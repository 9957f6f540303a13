/**
 * @file
 * Distinguishing-sequence oracle over a registered scenario.
 *
 * A fixed primitive-action sequence (accesses, flushes, victim
 * triggers) is a working attack exactly when the latency pattern it
 * produces differs for every pair of secrets — then a final guess can
 * decode the secret from the observations. The search baselines of
 * Section VI-A use this oracle to score candidates.
 */

#ifndef AUTOCAT_ENV_SEQUENCE_ORACLE_HPP
#define AUTOCAT_ENV_SEQUENCE_ORACLE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/action_space.hpp"
#include "env/env_config.hpp"
#include "rl/env_interface.hpp"
#include "rl/search.hpp"

namespace autocat {

class CacheGuessingGame;

/**
 * Registry-aware oracle: candidates are replayed through the actual
 * scenario environment (env/env_registry.hpp), so search baselines
 * score sequences against exactly the channel the RL agent trains on
 * — the plain guessing game, hierarchy scenarios, the TLB, the
 * prefetcher side channel, detector-in-the-loop variants. The latency
 * pattern is the per-access StepInfo::observedLatency stream.
 *
 * Replays force randomInit off (candidates run from the deterministic
 * empty channel, so distinguishability is well defined) and pin the
 * secret per trial via forceSecret(). A candidate whose replay ends
 * the episode early (length limit, a terminating detector) under any
 * secret is scored non-distinguishing: its observations are truncated,
 * so it cannot carry a full decode.
 */
class ScenarioOracle : public SequenceOracle
{
  public:
    /**
     * @param scenario registry scenario name the cells train on
     * @param config   environment description (randomInit forced off)
     *
     * @throws std::out_of_range for an unknown scenario
     * @throws std::invalid_argument when the scenario does not build a
     *         CacheGuessingGame (no forceSecret/secretSpace to replay
     *         against)
     */
    ScenarioOracle(const std::string &scenario, const EnvConfig &config);
    ~ScenarioOracle();

    std::size_t numPrimitives() const override;
    bool isDistinguishing(const std::vector<std::size_t> &seq) override;
    long long
    stepsPerTrial(const std::vector<std::size_t> &seq) const override;

    /** The replayed game's action space (index decoding, rendering). */
    const ActionSpace &actionSpace() const;

  private:
    /** Replay @p seq under @p secret; false when the episode ended
     *  before the sequence completed. */
    bool replayPattern(const std::vector<std::size_t> &seq,
                       std::optional<std::uint64_t> secret,
                       std::vector<int> &pattern);

    std::unique_ptr<Environment> env_;
    CacheGuessingGame *game_ = nullptr;  ///< env_ downcast (non-owning)
    std::vector<std::optional<std::uint64_t>> secrets_;
};

} // namespace autocat

#endif // AUTOCAT_ENV_SEQUENCE_ORACLE_HPP
