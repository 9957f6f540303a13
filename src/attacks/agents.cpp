#include "attacks/agents.hpp"

#include <algorithm>

namespace autocat {

TextbookPrimeProbeAgent::TextbookPrimeProbeAgent(
    const CacheGuessingGame &env)
    : actions_(env.actionSpace()), config_(env.config())
{
    // One attacker line per victim line (direct-mapped conflict pairs).
    num_lines_ = static_cast<std::size_t>(
        std::min(config_.numVictimAddrs(), config_.numAttackAddrs()));
}

void
TextbookPrimeProbeAgent::onEpisodeStart()
{
    phase_ = Phase::Prime;
    cursor_ = 0;
    missed_line_ = -1;
}

std::size_t
TextbookPrimeProbeAgent::act(int last_latency)
{
    switch (phase_) {
      case Phase::Prime: {
        const std::size_t a = cursor_++;
        if (cursor_ >= num_lines_) {
            phase_ = Phase::Trigger;
            cursor_ = 0;
        }
        return actions_.accessIndex(config_.attackAddrS + a);
      }
      case Phase::Trigger:
        phase_ = Phase::Probe;
        cursor_ = 0;
        missed_line_ = -1;
        return actions_.triggerIndex();
      case Phase::Probe: {
        // Record the outcome of the previous probe access.
        if (cursor_ > 0 && last_latency == LatMiss)
            missed_line_ = static_cast<long>(cursor_ - 1);
        if (cursor_ >= num_lines_) {
            phase_ = Phase::Guess;
            return act(last_latency);
        }
        // The act() after the final probe scores it, then guesses.
        return actions_.accessIndex(config_.attackAddrS + cursor_++);
      }
      case Phase::Guess: {
        // Entered only from Probe, which has already scored the final
        // probe. Probes refilled every set: they are the next round's
        // prime.
        phase_ = Phase::Trigger;
        const std::uint64_t guess_addr =
            config_.victimAddrS +
            (missed_line_ >= 0 ? static_cast<std::uint64_t>(missed_line_)
                               : 0);
        return actions_.guessIndex(guess_addr);
      }
    }
    return actions_.triggerIndex();
}

EpisodePolicy
scriptedPolicy(ScriptedAgent &agent)
{
    return [&agent](Environment &, const std::vector<float> &,
                    const StepInfo *last) {
        if (!last)
            agent.onEpisodeStart();
        return agent.act(last ? last->observedLatency : LatNa);
    };
}

} // namespace autocat
