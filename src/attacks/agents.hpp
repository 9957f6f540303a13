/**
 * @file
 * Scripted attack agents for multi-secret episodes.
 *
 * The Table VIII/IX benches compare RL-trained agents against the
 * "textbook" attacker: a hand-written state machine playing the same
 * environment. Scripted agents read the per-step info (latency of
 * their last access) exactly like the RL agent reads its observation,
 * and play episodes through the same runner (scriptedPolicy()).
 */

#ifndef AUTOCAT_ATTACKS_AGENTS_HPP
#define AUTOCAT_ATTACKS_AGENTS_HPP

#include <cstdint>
#include <vector>

#include "env/guessing_game.hpp"
#include "rl/episodes.hpp"

namespace autocat {

/** Interface of a hand-written agent. */
class ScriptedAgent
{
  public:
    virtual ~ScriptedAgent() = default;

    /** Called at episode start. */
    virtual void onEpisodeStart() = 0;

    /**
     * Choose the next action index.
     *
     * @param last_latency latency class observed at the previous step
     *                     (LatNa at the first step)
     */
    virtual std::size_t act(int last_latency) = 0;
};

/**
 * Textbook prime+probe attacker for a direct-mapped cache with
 * disjoint address ranges (the Table VIII/IX setting): prime all
 * conflicting sets, trigger the victim, probe, and guess the victim
 * address whose set missed. Probes double as the next round's prime.
 */
class TextbookPrimeProbeAgent : public ScriptedAgent
{
  public:
    explicit TextbookPrimeProbeAgent(const CacheGuessingGame &env);

    void onEpisodeStart() override;
    std::size_t act(int last_latency) override;

  private:
    enum class Phase { Prime, Trigger, Probe, Guess };

    const ActionSpace &actions_;
    const EnvConfig &config_;
    std::size_t num_lines_;
    Phase phase_ = Phase::Prime;
    std::size_t cursor_ = 0;
    long missed_line_ = -1;
};

/**
 * Play @p agent through runEpisodes(): onEpisodeStart() before each
 * episode's first action, then act() on the latency of the previous
 * step. The agent must outlive the policy.
 */
EpisodePolicy scriptedPolicy(ScriptedAgent &agent);

} // namespace autocat

#endif // AUTOCAT_ATTACKS_AGENTS_HPP
