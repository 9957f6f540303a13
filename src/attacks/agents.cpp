#include "attacks/agents.hpp"

#include <algorithm>
#include <cassert>

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
    first_round_ = true;
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
        const std::size_t a = cursor_++;
        if (cursor_ >= num_lines_) {
            // The next act() call scores the final probe, then guesses.
        }
        return actions_.accessIndex(config_.attackAddrS + a);
      }
      case Phase::Guess: {
        if (missed_line_ < 0 && last_latency == LatMiss)
            missed_line_ = static_cast<long>(num_lines_ - 1);
        // Probes refilled every set: they are the next round's prime.
        phase_ = Phase::Trigger;
        first_round_ = false;
        const std::uint64_t guess_addr =
            config_.victimAddrS +
            (missed_line_ >= 0 ? static_cast<std::uint64_t>(missed_line_)
                               : 0);
        return actions_.guessIndex(guess_addr);
      }
    }
    return actions_.triggerIndex();
}

AgentRunStats
runScriptedAgent(CacheGuessingGame &env, ScriptedAgent &agent,
                 int episodes)
{
    AgentRunStats stats;
    stats.episodes = static_cast<std::size_t>(episodes);

    long long steps = 0;
    std::size_t correct = 0, guesses = 0, detected_eps = 0;
    double return_sum = 0.0;

    for (int e = 0; e < episodes; ++e) {
        env.reset();
        agent.onEpisodeStart();
        int last_lat = LatNa;
        bool done = false;
        bool detected = false;
        while (!done) {
            const StepResult sr = env.step(agent.act(last_lat));
            ++steps;
            return_sum += sr.reward;
            last_lat = sr.info.observedLatency;
            if (sr.info.guessMade) {
                ++guesses;
                if (sr.info.guessCorrect)
                    ++correct;
            }
            if (sr.info.detected)
                detected = true;
            done = sr.done;
        }
        if (detected)
            ++detected_eps;
    }

    stats.guesses = guesses;
    stats.bitRate = steps ? static_cast<double>(guesses) /
                                static_cast<double>(steps)
                          : 0.0;
    stats.guessAccuracy =
        guesses ? static_cast<double>(correct) /
                      static_cast<double>(guesses)
                : 0.0;
    stats.detectionRate =
        episodes ? static_cast<double>(detected_eps) /
                       static_cast<double>(episodes)
                 : 0.0;
    stats.meanReturn = return_sum / std::max(1, episodes);
    return stats;
}

} // namespace autocat
