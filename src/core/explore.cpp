#include "core/explore.hpp"

#include <utility>

#include "core/campaign.hpp"
#include "util/logging.hpp"

namespace autocat {

AttackSequence
extractSequence(CacheGuessingGame &env, ActorCritic &policy,
                std::string *guess)
{
    // Deterministic replay: fix the secret so the rendered trajectory
    // is reproducible (the paper's tables show one example sequence).
    // The leading reset draws from the env RNG ahead of the replayed
    // episode's own reset, and the extracted sequence depends on it.
    env.reset();
    const auto secret = env.secretSpace().front();
    env.forceSecret(secret);

    AttackSequence seq;
    EpisodeHooks hooks;
    hooks.onStart = [&](Environment &) { env.forceSecret(secret); };
    hooks.onStep = [&](Environment &, std::size_t action,
                       const StepResult &) {
        const Action decoded = env.actionSpace().decode(action);
        if (decoded.isGuess()) {
            if (guess)
                *guess = env.actionSpace().toString(action);
            // In multi-secret mode one symbol round is representative.
            return false;
        }
        seq.push({decoded.kind, decoded.addr});
        return true;
    };
    // Replay under the same mask the policy trained with — a masked
    // action would be one the trained policy could never have taken.
    SyncVecEnv one(env);
    runEpisodes(one, 1, greedyPolicy(policy), hooks);
    return seq;
}

/*
 * explore() is a thin one-phase campaign: an empty phase list resolves
 * to a single phase driven by the base config's budget and accuracy
 * target (pinned by test_explore and test_e2e_discovery).
 */
ExplorationResult
explore(const ExplorationConfig &config)
{
    CampaignConfig campaign;
    campaign.base = config;

    const PpoTrainer::EpochCallback log_cb =
        [&](const EpochStats &stats) {
            if (config.verbose) {
                AUTOCAT_LOG_INFO
                    << "epoch " << stats.epoch << " return "
                    << stats.meanReturn << " len "
                    << stats.meanEpisodeLength << " eval-acc "
                    << stats.eval.guessAccuracy;
            }
        };

    TrainingSession session(std::move(campaign));
    return session.run(log_cb).final;
}

} // namespace autocat
