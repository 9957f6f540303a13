#include "core/explore.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/campaign.hpp"
#include "util/logging.hpp"

namespace autocat {

AttackSequence
extractSequence(CacheGuessingGame &env, ActorCritic &policy,
                std::string *guess)
{
    env.reset();
    // Deterministic replay: fix the secret so the rendered trajectory
    // is reproducible (the paper's tables show one example sequence).
    const auto secrets = env.secretSpace();
    env.forceSecret(secrets.front());

    AttackSequence seq;
    std::vector<float> obs = env.reset();
    env.forceSecret(secrets.front());

    bool done = false;
    int safety = 4096;
    while (!done && safety-- > 0) {
        const AcOutput &out = policy.forwardOne(obs);
        // Replay under the same mask the policy trained with — a
        // masked action would be one the trained policy could never
        // have taken.
        const std::uint8_t *mask = env.actionMask();
        const std::size_t action =
            mask ? policy.argmaxMasked(out.logits, 0, mask)
                 : policy.argmax(out.logits, 0);
        const Action decoded = env.actionSpace().decode(action);
        StepResult sr = env.step(action);
        if (decoded.isGuess()) {
            if (guess)
                *guess = env.actionSpace().toString(action);
            // In multi-secret mode one symbol round is representative.
            break;
        }
        seq.push({decoded.kind, decoded.addr});
        done = sr.done;
        obs = std::move(sr.obs);
    }
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
