#include "core/campaign.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rl/checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/binio.hpp"
#include "util/logging.hpp"

namespace autocat {

namespace {

constexpr char kCampaignMagic[8] = {'A', 'C', 'C', 'A', 'M', 'P', 'G',
                                    'N'};
constexpr std::uint32_t kCampaignVersion = 1;

/** Phase stop criterion: conjunctive over the criteria that are set,
 *  always requiring at least one guess per episode on average. */
bool
phaseStopSatisfied(const CurriculumPhase &phase, const EvalStats &eval)
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

std::string
buildCampaignPayload(std::size_t next_phase, int epochs_done,
                     const std::vector<PhaseResult> &results)
{
    std::string p;
    binPut(p, static_cast<std::uint32_t>(next_phase));
    binPut(p, static_cast<std::uint32_t>(epochs_done));
    binPut(p, static_cast<std::uint32_t>(results.size()));
    for (const PhaseResult &r : results) {
        binPutString(p, r.name);
        binPut(p, static_cast<std::int32_t>(r.epochsRun));
        binPut(p, static_cast<std::uint8_t>(r.converged ? 1 : 0));
        binPut(p, static_cast<std::int32_t>(r.convergedEpoch));
        binPut(p, static_cast<std::int64_t>(r.envStepsEnd));
        binPut(p, r.finalEval.meanReturn);
        binPut(p, r.finalEval.meanEpisodeLength);
        binPut(p, r.finalEval.guessAccuracy);
        binPut(p, r.finalEval.bitRate);
        binPut(p, r.finalEval.detectionRate);
        binPut(p, static_cast<std::uint64_t>(r.finalEval.episodes));
        binPut(p, static_cast<std::uint64_t>(r.finalEval.guesses));
    }
    return p;
}

void
parseCampaignPayload(const std::string &payload, std::size_t *next_phase,
                     int *epochs_done, std::vector<PhaseResult> *results)
{
    ByteCursor c(payload, "campaign checkpoint");
    *next_phase = c.get<std::uint32_t>();
    *epochs_done = static_cast<int>(c.get<std::uint32_t>());
    const auto count = c.get<std::uint32_t>();
    results->clear();
    results->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        PhaseResult r;
        r.name = c.getString();
        r.epochsRun = c.get<std::int32_t>();
        r.converged = c.get<std::uint8_t>() != 0;
        r.convergedEpoch = c.get<std::int32_t>();
        r.envStepsEnd = c.get<std::int64_t>();
        r.finalEval.meanReturn = c.get<double>();
        r.finalEval.meanEpisodeLength = c.get<double>();
        r.finalEval.guessAccuracy = c.get<double>();
        r.finalEval.bitRate = c.get<double>();
        r.finalEval.detectionRate = c.get<double>();
        r.finalEval.episodes =
            static_cast<std::size_t>(c.get<std::uint64_t>());
        r.finalEval.guesses =
            static_cast<std::size_t>(c.get<std::uint64_t>());
        results->push_back(std::move(r));
    }
    c.expectExhausted();
}

} // namespace

std::uint64_t
checkpointBoundarySeed(std::uint64_t stream_seed, int global_epoch)
{
    // splitmix64-style finalizer over (seed, epoch) so consecutive
    // boundaries of one stream decorrelate.
    std::uint64_t x = stream_seed + 0x9e3779b97f4a7c15ull *
                                        (static_cast<std::uint64_t>(
                                             global_epoch) +
                                         1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
RewardOverrides::apply(EnvConfig &env) const
{
    if (correctGuessReward)
        env.correctGuessReward = *correctGuessReward;
    if (wrongGuessReward)
        env.wrongGuessReward = *wrongGuessReward;
    if (stepReward)
        env.stepReward = *stepReward;
    if (lengthViolationReward)
        env.lengthViolationReward = *lengthViolationReward;
    if (detectionReward)
        env.detectionReward = *detectionReward;
    if (noGuessReward)
        env.noGuessReward = *noGuessReward;
}

TrainingSession::TrainingSession(CampaignConfig config)
    : config_(std::move(config))
{
}

TrainingSession::~TrainingSession() = default;

PpoTrainer &
TrainingSession::trainer()
{
    if (!trainer_)
        throw std::logic_error(
            "TrainingSession::trainer: run() has not built the trainer "
            "yet");
    return *trainer_;
}

std::vector<CurriculumPhase>
TrainingSession::resolvedPhases() const
{
    if (!config_.phases.empty())
        return config_.phases;
    // explore(): one phase driven by the base config's budget and
    // accuracy target. explore() treats ANY target as an active
    // criterion (a negative target converges on the first guessing
    // epoch), while a negative phase target means "disabled" — clamp
    // to 0.
    CurriculumPhase single;
    single.name = "explore";
    single.maxEpochs = config_.base.maxEpochs;
    single.targetAccuracy = std::max(0.0, config_.base.targetAccuracy);
    return {single};
}

std::string
TrainingSession::phaseScenario(const CurriculumPhase &phase) const
{
    return phase.scenario.empty() ? config_.base.scenario : phase.scenario;
}

ScenarioContext
TrainingSession::phaseContext(const CurriculumPhase &phase) const
{
    ScenarioContext ctx(config_.base.env);
    phase.rewards.apply(ctx.env);
    if (phase.detectionEnable)
        ctx.env.detectionEnable = *phase.detectionEnable;
    if (phase.multiSecret)
        ctx.env.multiSecret = *phase.multiSecret;
    if (phase.multiSecretEpisodeSteps)
        ctx.env.multiSecretEpisodeSteps = *phase.multiSecretEpisodeSteps;
    ctx.detectors = phase.detectors;
    return ctx;
}

void
TrainingSession::buildPhaseEnv(const CurriculumPhase &phase,
                               const ScenarioContext &ctx)
{
    vec_ = makeVecEnv(phaseScenario(phase), ctx,
                      static_cast<std::size_t>(
                          std::max(1, config_.base.numStreams)),
                      config_.base.batchEnv
                          ? VecEnvKind::Batch
                          : (config_.base.threadedEnvs
                                 ? VecEnvKind::Threaded
                                 : VecEnvKind::Sync));
}

void
TrainingSession::boundarySync(const ScenarioContext &ctx)
{
    const std::size_t n = vec_->numEnvs();
    for (std::size_t i = 0; i < n; ++i) {
        vec_->env(i).reseed(checkpointBoundarySeed(
            ctx.env.seed + i, trainer_->epochsCompleted()));
    }
    trainer_->restartCollection();
}

void
TrainingSession::writeCheckpoint(std::size_t next_phase, int epochs_done,
                                 const std::vector<PhaseResult> &results)
{
    // Crash-safe: both sections are staged in memory and land on disk
    // via temp file + fsync + atomic rename, so a worker killed at any
    // instant leaves either the previous complete checkpoint or the
    // new one — never a truncated file that blocks resume.
    std::ostringstream oss(std::ios::binary);
    writeBinarySection(oss, kCampaignMagic, kCampaignVersion,
                       buildCampaignPayload(next_phase, epochs_done,
                                            results),
                       "campaign checkpoint");
    writePpoCheckpoint(oss, *trainer_);
    atomicWriteFile(config_.checkpointPath, oss.str(),
                    "campaign checkpoint");
}

std::unique_ptr<std::ifstream>
TrainingSession::openResume(const std::vector<CurriculumPhase> &phases,
                            std::size_t *start_phase, int *start_epoch,
                            std::vector<PhaseResult> *results)
{
    auto in = std::make_unique<std::ifstream>(config_.checkpointPath,
                                              std::ios::binary);
    if (!*in)
        return nullptr;  // missing file: start fresh
    const std::string payload = readBinarySection(
        *in, kCampaignMagic, kCampaignVersion, "campaign checkpoint");
    parseCampaignPayload(payload, start_phase, start_epoch, results);
    if (*start_phase > phases.size())
        throw std::runtime_error(
            "campaign checkpoint: position beyond the configured phase "
            "list (phase " + std::to_string(*start_phase) + " of " +
            std::to_string(phases.size()) + ")");
    if (results->size() != *start_phase)
        throw std::runtime_error(
            "campaign checkpoint: stored phase results do not match the "
            "campaign position (corrupt file?)");
    if (*start_phase < phases.size() &&
        *start_epoch >= phases[*start_phase].maxEpochs)
        throw std::runtime_error(
            "campaign checkpoint: mid-phase epoch beyond the phase "
            "budget (config changed since the checkpoint?)");
    return in;
}

CampaignResult
TrainingSession::run(const EpochCallback &epoch_cb,
                     const PhaseCallback &phase_cb,
                     const CheckpointCallback &checkpoint_cb)
{
    if (ran_)
        throw std::logic_error("TrainingSession::run: already ran");
    ran_ = true;

    const std::vector<CurriculumPhase> phases = resolvedPhases();
    const bool checkpointing = !config_.checkpointPath.empty();

    CampaignResult result;
    std::size_t start_phase = 0;
    int start_epoch = 0;
    std::unique_ptr<std::ifstream> resume_in;
    if (config_.resume && checkpointing) {
        resume_in =
            openResume(phases, &start_phase, &start_epoch, &result.phases);
        result.resumed = resume_in != nullptr;
    }
    // A checkpoint taken after the last phase has nothing left to
    // train; rebuild the final phase for evaluation/extraction only.
    bool already_complete = false;
    if (result.resumed && start_phase >= phases.size()) {
        already_complete = true;
        start_phase = phases.size() - 1;
        start_epoch = phases[start_phase].maxEpochs;
    }

    ScenarioContext ctx;
    for (std::size_t p = start_phase; p < phases.size(); ++p) {
        const CurriculumPhase &phase = phases[p];
        ctx = phaseContext(phase);
        // The trainer's dimension check in setVecEnv reads the old
        // VecEnv, so the previous phase's environments must outlive
        // the rebind.
        std::unique_ptr<VecEnv> previous = std::move(vec_);
        buildPhaseEnv(phase, ctx);
        if (!trainer_) {
            trainer_ =
                std::make_unique<PpoTrainer>(*vec_, config_.base.ppo);
        } else {
            trainer_->setVecEnv(*vec_);
        }
        previous.reset();
        const int epochs_done = (p == start_phase) ? start_epoch : 0;
        if (resume_in) {
            readPpoCheckpoint(*resume_in, *trainer_);
            resume_in.reset();
        }
        // Every point a checkpoint can resume at must be entered in
        // the boundary-synced state by BOTH the uninterrupted and the
        // resumed run: any phase entry after the first (the phase-end
        // write put a checkpoint exactly here) and any mid-phase
        // resume position. Without the phase-entry sync, an
        // uninterrupted run would train a new phase on its
        // construction-seeded streams while a resumed run trains on
        // reseeded ones — breaking the bit-identity contract.
        if (checkpointing && (p > 0 || epochs_done > 0))
            boundarySync(ctx);

        PhaseResult pr;
        pr.name = phase.name.empty() ? ("phase-" + std::to_string(p))
                                     : phase.name;
        bool recorded = false;

        for (int e = epochs_done + 1; e <= phase.maxEpochs; ++e) {
            EpochStats stats = trainer_->runEpoch();
            stats.eval = trainer_->evaluate(config_.base.evalEpisodes,
                                            /*greedy=*/true);
            if (epoch_cb)
                epoch_cb(stats);

            const bool stop = phaseStopSatisfied(phase, stats.eval);
            if (stop && !pr.converged) {
                pr.converged = true;
                pr.convergedEpoch = e;
            }
            const bool phase_over = stop || e == phase.maxEpochs;
            if (phase_over) {
                pr.epochsRun = e;
                pr.finalEval = stats.eval;
                pr.envStepsEnd = trainer_->totalEnvSteps();
                result.phases.push_back(pr);
                recorded = true;
            }
            const bool cadence = config_.checkpointEvery > 0 &&
                                 e % config_.checkpointEvery == 0;
            if (checkpointing && (phase_over || cadence)) {
                boundarySync(ctx);
                writeCheckpoint(phase_over ? p + 1 : p,
                                phase_over ? 0 : e, result.phases);
                if (checkpoint_cb) {
                    checkpoint_cb(config_.checkpointPath,
                                  phase_over ? p + 1 : p,
                                  phase_over ? 0 : e);
                }
            }
            if (phase_over)
                break;
        }

        if (!recorded && !already_complete) {
            // Zero-epoch phase (maxEpochs <= epochs already done):
            // record it so results line up with the phase list.
            pr.epochsRun = epochs_done;
            pr.envStepsEnd = trainer_->totalEnvSteps();
            result.phases.push_back(pr);
            recorded = true;
        }
        if (recorded && phase_cb)
            phase_cb(p, result.phases.back());
    }

    // Final summary in explore()'s result shape.
    const PhaseResult &last = result.phases.back();
    ExplorationResult &fin = result.final;
    fin.converged = last.converged;
    fin.epochsToConverge = last.convergedEpoch;
    fin.envSteps = trainer_->totalEnvSteps();
    // Phases stop at their first convergence check that passes, so the
    // converging phase's end-of-phase step count IS the steps-to-
    // discovery sample-efficiency measure. Derived here — checkpoints
    // already record envStepsEnd, so resumed runs agree for free.
    fin.stepsToDiscovery = last.converged ? last.envStepsEnd : -1;

    const EvalStats final_eval =
        trainer_->evaluate(config_.base.evalEpisodes, /*greedy=*/true);
    fin.finalAccuracy = final_eval.guessAccuracy;
    fin.finalEpisodeLength = final_eval.meanEpisodeLength;
    fin.bitRate = final_eval.bitRate;
    fin.detectionRate = final_eval.detectionRate;

    // Sequence extraction needs guessing-game introspection; scenarios
    // that are not guessing games report metrics only. A replay that
    // never guesses is no attack, so it keeps the Unknown category.
    if (auto *game = dynamic_cast<CacheGuessingGame *>(&vec_->env(0))) {
        fin.sequence =
            extractSequence(*game, trainer_->policy(), &fin.finalGuess);
        if (!fin.finalGuess.empty())
            fin.category = classifyAttack(fin.sequence, ctx.env);
    }
    return result;
}

CampaignResult
runCampaign(CampaignConfig config,
            const TrainingSession::EpochCallback &epoch_cb,
            const TrainingSession::PhaseCallback &phase_cb)
{
    TrainingSession session(std::move(config));
    return session.run(epoch_cb, phase_cb);
}

} // namespace autocat
