#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace autocat {

PpoTrainer::PpoTrainer(VecEnv &envs, const PpoConfig &config)
    : envs_(&envs), config_(config), rng_(config.seed)
{
    init();
}

void
PpoTrainer::init()
{
    Rng init_rng(config_.seed ^ 0x5eedf00dull);
    net_ = std::make_unique<ActorCritic>(envs_->observationSize(),
                                         envs_->numActions(),
                                         config_.hidden, config_.layers,
                                         init_rng);
    auto blocks = net_->paramBlocks();
    adam_ = std::make_unique<Adam>(blocks, config_.lr);
    rebuildBuffer();
}

void
PpoTrainer::rebuildBuffer()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t steps_per_stream =
        (static_cast<std::size_t>(config_.stepsPerEpoch) + n - 1) / n;
    buffer_ = std::make_unique<RolloutBuffer>(steps_per_stream, n,
                                              envs_->observationSize());
    surface_ = envs_->batchSurface();
    step_all_.reset();
    if (!surface_) {
        step_all_ = makeStepAllSurface(*envs_);
        surface_ = step_all_.get();
    }
    // Streams either all mask or none do (every adapter's constructor
    // enforces this), so stream 0 answers for the batch.
    masking_ = envs_->env(0).actionMask() != nullptr;
    if (masking_)
        buffer_->enableMasks(envs_->numActions());
    running_return_.assign(n, 0.0);
    running_len_.assign(n, 0.0);
    collection_active_ = false;
}

void
PpoTrainer::recordEpisodeStats(const std::vector<double> &rewards,
                               const std::vector<std::uint8_t> &dones)
{
    for (std::size_t s = 0; s < rewards.size(); ++s) {
        running_return_[s] += rewards[s];
        running_len_[s] += 1.0;
        if (dones[s]) {
            collect_return_sum_ += running_return_[s];
            collect_len_sum_ += running_len_[s];
            ++collect_episodes_;
            running_return_[s] = 0.0;
            running_len_[s] = 0.0;
        }
    }
}

/*
 * One loop for every adapter. The policy GEMM reads the surface's
 * observation matrix directly; the acting observations (and masks) are
 * staged into the rollout before the step overwrites them, and the
 * step's outcomes are committed after it. Forward, sampling, stepping
 * and bookkeeping run in the same order whichever surface steps, so a
 * BatchVecEnv and a SyncVecEnv over the same streams give bitwise
 * identical rollouts.
 */
void
PpoTrainer::collect()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t na = envs_->numActions();
    BatchStepSurface &surface = *surface_;
    buffer_->clear();
    collect_return_sum_ = 0.0;
    collect_len_sum_ = 0.0;
    collect_episodes_ = 0;

    if (!collection_active_) {
        surface.resetAllInPlace();
        collection_active_ = true;
        running_return_.assign(n, 0.0);
        running_len_.assign(n, 0.0);
    }

    std::vector<std::size_t> actions(n);
    std::vector<double> values(n), log_probs(n), rewards(n);
    std::vector<std::uint8_t> dones(n, 0);
    std::vector<StepInfo> infos(n);
    const Matrix &obs = surface.obsMatrix();
    while (!buffer_->full()) {
        net_->forwardNoGrad(obs, fwd_out_);
        const std::uint8_t *masks = masking_ ? surface.maskMatrix() : nullptr;
        if (masks)
            buffer_->stageMasks(masks);
        for (std::size_t s = 0; s < n; ++s) {
            actions[s] = masks ? net_->sampleMasked(fwd_out_.logits, s,
                                                    masks + s * na, rng_,
                                                    &log_probs[s])
                               : net_->sample(fwd_out_.logits, s, rng_,
                                              &log_probs[s]);
            values[s] = fwd_out_.values[s];
        }

        buffer_->stageObs(obs);
        surface.stepBatchInPlace(actions.data(), rewards.data(),
                                 dones.data(), infos.data());
        total_env_steps_ += static_cast<long long>(n);
        recordEpisodeStats(rewards, dones);
        buffer_->commitStep(actions, rewards, dones, values, log_probs);
    }

    // Bootstrap the value of the state each stream stopped in; streams
    // whose final transition ended an episode bootstrap from 0 (their
    // current observation is already the next episode's start).
    std::vector<double> last_values(n, 0.0);
    net_->forwardNoGrad(obs, fwd_out_);
    for (std::size_t s = 0; s < n; ++s) {
        if (!dones[s])
            last_values[s] = fwd_out_.values[s];
    }

    buffer_->computeAdvantages(config_.gamma, config_.lambda, last_values);
    buffer_->normalizeAdvantages();
}

/*
 * The PPO loss of rows [r0, r1) of the minibatch in idx_ws_: one block of
 * the training step's row region (ActorCritic::trainStep), so it writes
 * only those rows of the workspaces, which update() has sized.
 */
void
PpoTrainer::lossRows(const AcOutput &out, Matrix &dlogits,
                     std::vector<float> &dvalues, double inv_b,
                     std::size_t r0, std::size_t r1)
{
    const std::vector<std::size_t> &idx = idx_ws_;
    const std::size_t na = dlogits.cols();
    if (masking_) {
        // Replay the acting masks: the surrogate ratio and the entropy
        // bonus are computed on the same restricted support the policy
        // sampled from. Masked entries get probability exactly 0, which
        // zeroes their gradient terms below without any extra
        // branching.
        buffer_->gatherMasksInto(mask_mb_ws_, idx, r0, r1);
        softmaxEntropyRowsMaskedInto(probs_ws_.data(), logp_ws_.data(),
                                     entropy_ws_.data(), out.logits,
                                     mask_mb_ws_.data(), r0, r1);
    } else {
        softmaxEntropyRowsInto(probs_ws_.data(), logp_ws_.data(),
                               entropy_ws_.data(), out.logits, r0, r1);
    }

    for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t i = idx[r];
        const std::size_t act = buffer_->actions()[i];
        const double adv = buffer_->advantages()[i];
        const double old_logp = buffer_->logProbs()[i];
        const double ret = buffer_->returns()[i];

        // p and log(max(p, 1e-12)), the latter computed once per entry
        // by the softmax kernel.
        const double *p = probs_ws_.data() + r * na;
        const double *logp = logp_ws_.data() + r * na;
        const double ent = entropy_ws_[r];
        const double ratio = std::exp(logp[act] - old_logp);

        // Clipped surrogate: gradient flows only through the unclipped
        // branch when it is the active minimum.
        const bool clipped = (adv >= 0.0 && ratio > 1.0 + config_.clip) ||
                             (adv < 0.0 && ratio < 1.0 - config_.clip);
        const double dl_dlogp = clipped ? 0.0 : -adv * ratio;

        // Entropy bonus gradient: d(-H)/dlogit_k = p_k * (log p_k + H).
        for (std::size_t k = 0; k < na; ++k) {
            const double ind = (k == act) ? 1.0 : 0.0;
            double g = dl_dlogp * (ind - p[k]);
            g += config_.entropyCoef * p[k] * (logp[k] + ent);
            dlogits(r, k) = static_cast<float>(g * inv_b);
        }

        const double verr = static_cast<double>(out.values[r]) - ret;
        dvalues[r] =
            static_cast<float>(2.0 * config_.valueCoef * verr * inv_b);

        double *terms = loss_terms_ws_.data() + 3 * r;
        terms[0] = -std::min(ratio * adv,
                             std::clamp(ratio, 1.0 - config_.clip,
                                        1.0 + config_.clip) *
                                 adv);
        terms[1] = verr * verr;
        terms[2] = ent;
    }
}

void
PpoTrainer::update(EpochStats &stats)
{
    const std::size_t n = buffer_->size();
    const std::size_t na = net_->numActions();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    /** The minibatch as the training step sees it. */
    struct Rows final : ActorCritic::Minibatch
    {
        PpoTrainer &trainer;
        double inv_b = 0.0;

        explicit Rows(PpoTrainer &t) : trainer(t) {}

        void
        gather(Matrix &input, std::size_t r0, std::size_t r1) override
        {
            trainer.buffer_->gatherObsInto(input, trainer.idx_ws_, r0, r1);
        }

        void
        loss(const AcOutput &out, Matrix &dlogits,
             std::vector<float> &dvalues, std::size_t r0,
             std::size_t r1) override
        {
            trainer.lossRows(out, dlogits, dvalues, inv_b, r0, r1);
        }
    } rows(*this);

    double pi_loss_sum = 0.0, v_loss_sum = 0.0, ent_sum = 0.0;
    for (int pass = 0; pass < config_.updatePasses; ++pass) {
        rng_.shuffle(order);
        for (std::size_t start = 0; start < n;
             start += static_cast<std::size_t>(config_.minibatchSize)) {
            const std::size_t end = std::min(
                n, start + static_cast<std::size_t>(config_.minibatchSize));
            idx_ws_.assign(order.begin() + start, order.begin() + end);
            const std::size_t bsz = idx_ws_.size();

            // Every element the row blocks write is sized here, on the
            // calling thread.
            probs_ws_.resize(bsz * na);
            logp_ws_.resize(bsz * na);
            entropy_ws_.resize(bsz);
            loss_terms_ws_.resize(3 * bsz);
            if (masking_)
                mask_mb_ws_.resize(bsz * na);
            rows.inv_b = 1.0 / static_cast<double>(bsz);
            net_->trainStep(bsz, rows, train_out_, dlogits_ws_,
                            dvalues_ws_);

            // The loss terms are summed in row order, as one serial
            // loop would.
            for (std::size_t r = 0; r < bsz; ++r) {
                pi_loss_sum += loss_terms_ws_[3 * r];
                v_loss_sum += loss_terms_ws_[3 * r + 1];
                ent_sum += loss_terms_ws_[3 * r + 2];
            }

            auto blocks = net_->paramBlocks();
            clipGradNorm(blocks, config_.maxGradNorm);
            adam_->step(blocks);
        }
    }

    const double steps = static_cast<double>(n) * config_.updatePasses;
    stats.policyLoss = pi_loss_sum / steps;
    stats.valueLoss = v_loss_sum / steps;
    stats.entropy = ent_sum / steps;
}

EpochStats
PpoTrainer::runEpoch()
{
    EpochStats stats;
    stats.epoch = ++epoch_;
    if (epoch_ > 1) {
        config_.entropyCoef = std::max(
            config_.entropyMin, config_.entropyCoef * config_.entropyDecay);
    }
    collect();
    if (collect_episodes_ > 0) {
        stats.meanReturn =
            collect_return_sum_ / static_cast<double>(collect_episodes_);
        stats.meanEpisodeLength =
            collect_len_sum_ / static_cast<double>(collect_episodes_);
    }
    update(stats);
    return stats;
}

EvalStats
PpoTrainer::evaluate(int episodes, bool greedy)
{
    // Evaluation moves the streams, so the next collect() restarts them
    // from reset(), also when an episode throws.
    collection_active_ = false;
    if (greedy) {
        return runEpisodes(*envs_, episodes,
                           greedyPolicies(*net_, envs_->numEnvs()));
    }
    return runEpisodes(
        *envs_, episodes,
        [this](Environment &env, const std::vector<float> &obs,
               const StepInfo *) {
            const AcOutput &out = net_->forwardOne(obs);
            const std::uint8_t *m = masking_ ? env.actionMask() : nullptr;
            return m ? net_->sampleMasked(out.logits, 0, m, rng_)
                     : net_->sample(out.logits, 0, rng_);
        });
}

void
PpoTrainer::setVecEnv(VecEnv &envs)
{
    if (envs.observationSize() != envs_->observationSize() ||
        envs.numActions() != envs_->numActions()) {
        throw std::invalid_argument(
            "setVecEnv: observation/action dimensions must match");
    }
    envs_ = &envs;
    rebuildBuffer();
}

} // namespace autocat
