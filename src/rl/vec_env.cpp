#include "rl/vec_env.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace autocat {

namespace {

/**
 * Check non-null streams with identical dimensions that all mask
 * actions or none do: the trainer decides masking from stream 0 and
 * then reads every stream's mask.
 */
void
validateStreams(const std::vector<Environment *> &envs)
{
    if (envs.empty())
        throw std::invalid_argument("VecEnv: need at least one stream");
    for (const Environment *e : envs) {
        if (!e)
            throw std::invalid_argument("VecEnv: null environment");
        if (e->observationSize() != envs.front()->observationSize() ||
            e->numActions() != envs.front()->numActions()) {
            throw std::invalid_argument(
                "VecEnv: streams must share observation/action dimensions");
        }
        if ((e->actionMask() != nullptr) !=
            (envs.front()->actionMask() != nullptr)) {
            throw std::invalid_argument(
                "VecEnv: streams must agree on action masking");
        }
    }
}

/** Step one stream with auto-reset; write outputs at index @p i. */
void
stepStream(Environment &env, std::size_t action, std::size_t i,
           Matrix &obs_out, std::vector<double> &rewards,
           std::vector<std::uint8_t> &dones, std::vector<StepInfo> &infos)
{
    StepResult sr = env.step(action);
    rewards[i] = sr.reward;
    dones[i] = sr.done ? 1 : 0;
    infos[i] = sr.info;
    const std::vector<float> obs = sr.done ? env.reset() : std::move(sr.obs);
    assert(obs.size() == obs_out.cols());
    std::memcpy(obs_out.rowPtr(i), obs.data(), obs.size() * sizeof(float));
}

/** makeStepAllSurface()'s adapter. */
class StepAllSurface final : public BatchStepSurface
{
  public:
    explicit StepAllSurface(VecEnv &envs) : envs_(envs) {}

    const Matrix &obsMatrix() const override { return obs_; }

    void
    stepBatchInPlace(const std::size_t *actions, double *rewards,
                     std::uint8_t *dones, StepInfo *infos) override
    {
        actions_.assign(actions, actions + envs_.numEnvs());
        VecStepResult r = envs_.stepAll(actions_);
        std::copy(r.rewards.begin(), r.rewards.end(), rewards);
        std::copy(r.dones.begin(), r.dones.end(), dones);
        std::copy(r.infos.begin(), r.infos.end(), infos);
        obs_ = std::move(r.obs);
        copyMasks();
    }

    void
    resetAllInPlace() override
    {
        obs_ = envs_.resetAll();
        copyMasks();
    }

    const std::uint8_t *maskMatrix() const override
    {
        return masks_.empty() ? nullptr : masks_.data();
    }

  private:
    void
    copyMasks()
    {
        if (!envs_.env(0).actionMask())
            return;
        const std::size_t na = envs_.numActions();
        masks_.resize(envs_.numEnvs() * na);
        for (std::size_t i = 0; i < envs_.numEnvs(); ++i)
            std::memcpy(masks_.data() + i * na, envs_.env(i).actionMask(),
                        na);
    }

    VecEnv &envs_;
    Matrix obs_;
    std::vector<std::size_t> actions_;
    std::vector<std::uint8_t> masks_;  ///< N x A; empty when unmasked
};

} // namespace

std::unique_ptr<BatchStepSurface>
makeStepAllSurface(VecEnv &envs)
{
    return std::make_unique<StepAllSurface>(envs);
}

void
VecEnv::stepRange(std::size_t begin, std::size_t end,
                  const std::vector<std::size_t> &actions,
                  VecStepResult &out)
{
    assert(begin <= end && end <= numEnvs());
    assert(actions.size() == numEnvs());
    assert(out.obs.rows() == numEnvs() &&
           out.obs.cols() == observationSize());
    assert(out.rewards.size() == numEnvs() &&
           out.dones.size() == numEnvs() && out.infos.size() == numEnvs());
    for (std::size_t i = begin; i < end; ++i)
        stepStream(env(i), actions[i], i, out.obs, out.rewards, out.dones,
                   out.infos);
}

// ------------------------------------------------------------ SyncVecEnv

SyncVecEnv::SyncVecEnv(std::vector<std::unique_ptr<Environment>> envs)
    : owned_(std::move(envs))
{
    envs_.reserve(owned_.size());
    for (auto &e : owned_)
        envs_.push_back(e.get());
    validateStreams(envs_);
}

SyncVecEnv::SyncVecEnv(const std::vector<Environment *> &envs) : envs_(envs)
{
    validateStreams(envs_);
}

SyncVecEnv::SyncVecEnv(Environment &env) : envs_{&env} {}

std::size_t
SyncVecEnv::observationSize() const
{
    return envs_.front()->observationSize();
}

std::size_t
SyncVecEnv::numActions() const
{
    return envs_.front()->numActions();
}

Matrix
SyncVecEnv::resetAll()
{
    Matrix obs(envs_.size(), observationSize());
    for (std::size_t i = 0; i < envs_.size(); ++i) {
        const std::vector<float> row = envs_[i]->reset();
        std::memcpy(obs.rowPtr(i), row.data(), row.size() * sizeof(float));
    }
    return obs;
}

VecStepResult
SyncVecEnv::stepAll(const std::vector<std::size_t> &actions)
{
    assert(actions.size() == envs_.size());
    VecStepResult r;
    r.obs.resize(envs_.size(), observationSize());
    r.rewards.resize(envs_.size());
    r.dones.resize(envs_.size());
    r.infos.resize(envs_.size());
    for (std::size_t i = 0; i < envs_.size(); ++i)
        stepStream(*envs_[i], actions[i], i, r.obs, r.rewards, r.dones,
                   r.infos);
    return r;
}

// -------------------------------------------------------- ThreadedVecEnv

ThreadedVecEnv::ThreadedVecEnv(
    std::vector<std::unique_ptr<Environment>> envs, std::size_t num_threads)
    : envs_(std::move(envs)),
      pool_(num_threads, /*max_useful=*/envs_.size())
{
    std::vector<Environment *> raw;
    raw.reserve(envs_.size());
    for (auto &e : envs_)
        raw.push_back(e.get());
    validateStreams(raw);
    obs_dim_ = envs_.front()->observationSize();
    num_actions_ = envs_.front()->numActions();
}

Matrix
ThreadedVecEnv::resetAll()
{
    Matrix obs;
    obs.resizeUninit(envs_.size(), obs_dim_);
    pool_.parallelFor(0, envs_.size(), [&](std::size_t i) {
        const std::vector<float> row = envs_[i]->reset();
        std::memcpy(obs.rowPtr(i), row.data(), row.size() * sizeof(float));
    });
    return obs;
}

VecStepResult
ThreadedVecEnv::stepAll(const std::vector<std::size_t> &actions)
{
    VecStepResult r;
    r.obs.resizeUninit(envs_.size(), obs_dim_);
    r.rewards.resize(envs_.size());
    r.dones.resize(envs_.size());
    r.infos.resize(envs_.size());
    stepRange(0, envs_.size(), actions, r);
    return r;
}

void
ThreadedVecEnv::stepRange(std::size_t begin, std::size_t end,
                          const std::vector<std::size_t> &actions,
                          VecStepResult &out)
{
    assert(begin <= end && end <= envs_.size());
    assert(actions.size() == envs_.size());
    assert(out.obs.rows() == envs_.size() && out.obs.cols() == obs_dim_);
    assert(out.rewards.size() == envs_.size() &&
           out.dones.size() == envs_.size() &&
           out.infos.size() == envs_.size());
    pool_.parallelFor(begin, end, [&](std::size_t i) {
        stepStream(*envs_[i], actions[i], i, out.obs, out.rewards,
                   out.dones, out.infos);
    });
}

} // namespace autocat
