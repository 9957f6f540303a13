#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "attacks/classifier.hpp"
#include "env/env_registry.hpp"
#include "rl/checkpoint.hpp"

namespace e2e {

using namespace autocat;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/**
 * Forwarding VecEnv that times the stepping calls the trainer makes
 * during collection. It exposes a batch surface exactly when the
 * wrapped adapter does, so PpoTrainer picks the same collection path
 * (and therefore produces the same bits) as on the bare adapter.
 */
class TimedVecEnv final : public VecEnv, private BatchStepSurface
{
  public:
    explicit TimedVecEnv(VecEnv &inner)
        : inner_(inner), surface_(inner.batchSurface())
    {
    }

    BatchStepSurface *batchSurface() override
    {
        return surface_ ? this : nullptr;
    }
    std::size_t numEnvs() const override { return inner_.numEnvs(); }
    std::size_t observationSize() const override
    {
        return inner_.observationSize();
    }
    std::size_t numActions() const override { return inner_.numActions(); }
    Matrix resetAll() override { return inner_.resetAll(); }

    VecStepResult
    stepAll(const std::vector<std::size_t> &actions) override
    {
        const auto t0 = Clock::now();
        VecStepResult r = inner_.stepAll(actions);
        record(t0, inner_.numEnvs());
        return r;
    }

    void
    stepRange(std::size_t begin, std::size_t end,
              const std::vector<std::size_t> &actions,
              VecStepResult &out) override
    {
        const auto t0 = Clock::now();
        inner_.stepRange(begin, end, actions, out);
        record(t0, end - begin);
    }

    Environment &env(std::size_t i) override { return inner_.env(i); }

    double stepSeconds = 0.0;
    long long steps = 0;
    long long calls = 0;

  private:
    const Matrix &obsMatrix() const override
    {
        return surface_->obsMatrix();
    }

    void
    stepBatchInPlace(const std::size_t *actions, double *rewards,
                     std::uint8_t *dones, StepInfo *infos) override
    {
        const auto t0 = Clock::now();
        surface_->stepBatchInPlace(actions, rewards, dones, infos);
        record(t0, inner_.numEnvs());
    }

    void resetAllInPlace() override { surface_->resetAllInPlace(); }
    const std::uint8_t *maskMatrix() const override
    {
        return surface_->maskMatrix();
    }

    void
    record(Clock::time_point t0, std::size_t n)
    {
        stepSeconds += secondsSince(t0);
        steps += static_cast<long long>(n);
        ++calls;
    }

    VecEnv &inner_;
    BatchStepSurface *surface_;
};

/** TrainingSession's phase stop criterion (core/campaign.cpp). */
bool
phaseStop(const CurriculumPhase &phase, const EvalStats &eval)
{
    const bool has_acc = phase.targetAccuracy >= 0.0;
    const bool has_det = phase.maxDetectionRate >= 0.0;
    if (!has_acc && !has_det)
        return false;
    if (eval.guesses < eval.episodes)
        return false;
    if (has_acc && eval.guessAccuracy < phase.targetAccuracy)
        return false;
    if (has_det && eval.detectionRate > phase.maxDetectionRate)
        return false;
    return true;
}

long long
evalSteps(const EvalStats &s)
{
    return static_cast<long long>(
        s.meanEpisodeLength * static_cast<double>(s.episodes) + 0.5);
}

} // namespace

CurriculumPhase
explorePhase(const ExplorationConfig &config)
{
    CurriculumPhase phase;
    phase.name = "explore";
    phase.maxEpochs = config.maxEpochs;
    phase.targetAccuracy = std::max(0.0, config.targetAccuracy);
    return phase;
}

std::unique_ptr<VecEnv>
buildPhaseVecEnv(const ExplorationConfig &base, const CurriculumPhase &phase,
                 ScenarioContext *ctx_out)
{
    ScenarioContext ctx(base.env);
    phase.rewards.apply(ctx.env);
    if (phase.detectionEnable)
        ctx.env.detectionEnable = *phase.detectionEnable;
    if (phase.multiSecret)
        ctx.env.multiSecret = *phase.multiSecret;
    if (phase.multiSecretEpisodeSteps)
        ctx.env.multiSecretEpisodeSteps = *phase.multiSecretEpisodeSteps;
    ctx.detectors = phase.detectors;
    const std::string scenario =
        phase.scenario.empty() ? base.scenario : phase.scenario;
    const VecEnvKind kind =
        base.batchEnv ? VecEnvKind::Batch
                      : (base.threadedEnvs ? VecEnvKind::Threaded
                                           : VecEnvKind::Sync);
    auto vec = makeVecEnv(scenario, ctx,
                          static_cast<std::size_t>(std::max(1, base.numStreams)),
                          kind);
    if (ctx_out)
        *ctx_out = std::move(ctx);
    return vec;
}

TracedRun
runTraced(const ExplorationConfig &base, const CurriculumPhase &phase,
          const std::filesystem::path &dir)
{
    TracedRun run;
    const auto t_wall = Clock::now();

    ScenarioContext ctx;
    auto vec = buildPhaseVecEnv(base, phase, &ctx);
    TimedVecEnv timed(*vec);
    PpoTrainer trainer(timed, base.ppo);
    run.setupS = secondsSince(t_wall);
    run.obsDim = timed.observationSize();
    run.numActions = timed.numActions();
    run.streams = timed.numEnvs();

    ExplorationResult &fin = run.result;
    for (int e = 1; e <= phase.maxEpochs; ++e) {
        auto t0 = Clock::now();
        trainer.runEpoch();
        run.epochS.push_back(secondsSince(t0));

        t0 = Clock::now();
        const EvalStats eval = trainer.evaluate(base.evalEpisodes, true);
        run.evalS += secondsSince(t0);
        run.evalSteps += evalSteps(eval);

        const bool stop = phaseStop(phase, eval);
        if (stop) {
            fin.converged = true;
            fin.epochsToConverge = e;
            fin.stepsToDiscovery = trainer.totalEnvSteps();
        }
        if (stop || e == phase.maxEpochs)
            break;
    }
    fin.envSteps = trainer.totalEnvSteps();

    auto t0 = Clock::now();
    const EvalStats final_eval = trainer.evaluate(base.evalEpisodes, true);
    run.evalS += secondsSince(t0);
    run.evalSteps += evalSteps(final_eval);
    fin.finalAccuracy = final_eval.guessAccuracy;
    fin.finalEpisodeLength = final_eval.meanEpisodeLength;
    fin.bitRate = final_eval.bitRate;
    fin.detectionRate = final_eval.detectionRate;
    if (auto *game = dynamic_cast<CacheGuessingGame *>(&timed.env(0))) {
        fin.sequence =
            extractSequence(*game, trainer.policy(), &fin.finalGuess);
        fin.category = classifyAttack(fin.sequence, ctx.env);
    }
    run.wallS = secondsSince(t_wall);
    run.vecStepS = timed.stepSeconds;
    run.vecSteps = timed.steps;
    run.vecCalls = timed.calls;

    // Checkpoint layer at this trainer's shape: the write/read pair a
    // checkpointing cell pays at every boundary.
    const std::string path = (dir / "probe.ckpt").string();
    std::vector<double> write_ms, read_ms;
    for (int i = 0; i < 9; ++i) {
        t0 = Clock::now();
        savePpoCheckpoint(path, trainer);
        write_ms.push_back(secondsSince(t0) * 1e3);
        t0 = Clock::now();
        loadPpoCheckpoint(path, trainer);
        read_ms.push_back(secondsSince(t0) * 1e3);
    }
    run.checkpointWriteMs = median(write_ms);
    run.checkpointReadMs = median(read_ms);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    run.checkpointBytes = bytes.str();
    std::filesystem::remove(path);
    return run;
}

} // namespace e2e
