#include "serve/cell_exec.hpp"

#include <chrono>

#include "attacks/classifier.hpp"
#include "env/sequence_oracle.hpp"
#include "rl/search.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace autocat {

namespace {

/**
 * Sec. VI-A random-search baseline, mapped into the ExplorationResult
 * shape so search rows aggregate alongside PPO rows. The search runs
 * over a ScenarioOracle for the cell's scenario on the same total
 * simulated-step budget a PPO cell may spend (maxEpochs x
 * stepsPerEpoch), walking a sequence-length ladder that spends half
 * the remaining budget per rung — short candidates are scored in bulk
 * before longer ones get a turn, and the rung series sums to the
 * budget. Deterministic: the trial RNG is seeded from the cell's
 * derived PPO seed.
 */
ExplorationResult
runRandomSearchCell(const ExplorationConfig &cfg)
{
    ScenarioOracle oracle(cfg.scenario, cfg.env);
    Rng rng(cfg.ppo.seed);
    const long long budget = static_cast<long long>(cfg.maxEpochs) *
                             static_cast<long long>(cfg.ppo.stepsPerEpoch);

    ExplorationResult res;
    long long steps = 0;
    for (std::size_t len = 2; steps < budget; ++len) {
        const std::vector<std::size_t> probe(len, 0);
        const long long per_trial = oracle.stepsPerTrial(probe);
        const long long max_trials = (budget - steps) / 2 / per_trial;
        if (max_trials <= 0)
            break;
        const SearchResult sr = randomSearch(oracle, len, max_trials, rng);
        steps += sr.stepsTaken;
        if (!sr.found)
            continue;

        res.converged = true;
        res.stepsToDiscovery = steps;
        // A found distinguishing sequence decodes the secret with one
        // final guess: accuracy 1 at one guess per len+1 steps.
        res.finalAccuracy = 1.0;
        res.finalEpisodeLength = static_cast<double>(len) + 1.0;
        res.bitRate = 1.0 / (static_cast<double>(len) + 1.0);
        for (std::size_t idx : sr.sequence) {
            const Action a = oracle.actionSpace().decode(idx);
            res.sequence.push({a.kind, a.addr});
        }
        res.finalGuess = "g*";  // any guess decodes the pattern
        res.category = classifyAttack(res.sequence, cfg.env);
        break;
    }
    res.envSteps = steps;
    return res;
}

} // namespace

std::string
cellCheckpointPath(const std::string &dir, std::size_t index)
{
    return dir + "/cell_" + std::to_string(index) + ".ckpt";
}

SweepCellResult
runSweepCell(SweepCell cell, const CellExecOptions &options)
{
    using Clock = std::chrono::steady_clock;

    SweepCellResult out;
    out.cell = std::move(cell);
    const auto t0 = Clock::now();
    try {
        if (out.cell.agent == "random_search") {
            // Non-learning baseline: no campaign, no checkpoints (a
            // retried cell just replays the deterministic search).
            out.result = runRandomSearchCell(out.cell.config);
            out.completed = true;
            out.wallSeconds = std::chrono::duration<double>(
                                  Clock::now() - t0)
                                  .count();
            return out;
        }

        CampaignConfig campaign;
        campaign.base = out.cell.config;
        campaign.phases = out.cell.phases;
        campaign.checkpointPath = options.checkpointPath;
        campaign.checkpointEvery = options.checkpointEvery;
        campaign.resume = !options.checkpointPath.empty();

        const bool verbose = out.cell.config.verbose;
        const PpoTrainer::EpochCallback epoch_cb =
            [&](const EpochStats &stats) {
                if (verbose) {
                    AUTOCAT_LOG_INFO
                        << out.cell.label << " epoch " << stats.epoch
                        << " return " << stats.meanReturn << " eval-acc "
                        << stats.eval.guessAccuracy;
                }
                if (options.epochCb)
                    options.epochCb(stats);
            };

        TrainingSession session(std::move(campaign));
        out.result =
            session.run(epoch_cb, {}, options.checkpointCb).final;
        out.completed = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown error";
    }
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

} // namespace autocat
