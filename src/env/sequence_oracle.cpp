#include "env/sequence_oracle.hpp"

#include <stdexcept>

#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"

namespace autocat {

ScenarioOracle::ScenarioOracle(const std::string &scenario,
                               const EnvConfig &config)
{
    EnvConfig cfg = config;
    cfg.randomInit = false;  // deterministic empty-channel replays
    env_ = makeEnv(scenario, cfg);
    game_ = dynamic_cast<CacheGuessingGame *>(env_.get());
    if (!game_) {
        throw std::invalid_argument(
            "ScenarioOracle: scenario \"" + scenario +
            "\" does not build a guessing game; sequences cannot be "
            "replayed against its secret space");
    }
    secrets_ = game_->secretSpace();
}

ScenarioOracle::~ScenarioOracle() = default;

std::size_t
ScenarioOracle::numPrimitives() const
{
    return game_->actionSpace().numPrimitives();
}

const ActionSpace &
ScenarioOracle::actionSpace() const
{
    return game_->actionSpace();
}

bool
ScenarioOracle::replayPattern(const std::vector<std::size_t> &seq,
                              std::optional<std::uint64_t> secret,
                              std::vector<int> &pattern)
{
    pattern.clear();
    game_->resetRow();
    game_->forceSecret(secret);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const Action a = game_->actionSpace().decode(seq[i]);
        const CacheGuessingGame::FastStep fs = game_->stepFast(seq[i]);
        if (a.kind == ActionKind::Access)
            pattern.push_back(fs.info.observedLatency);
        if (fs.done)
            return i + 1 == seq.size();
    }
    return true;
}

bool
ScenarioOracle::isDistinguishing(const std::vector<std::size_t> &seq)
{
    // The victim must actually run for the pattern to depend on the
    // secret; skip replay evaluation otherwise.
    const ActionSpace &actions = game_->actionSpace();
    bool has_trigger = false;
    for (std::size_t idx : seq) {
        if (actions.decode(idx).kind == ActionKind::TriggerVictim) {
            has_trigger = true;
            break;
        }
    }
    if (!has_trigger)
        return false;

    std::vector<std::vector<int>> patterns;
    patterns.reserve(secrets_.size());
    std::vector<int> p;
    for (const auto &secret : secrets_) {
        if (!replayPattern(seq, secret, p))
            return false;  // truncated replay: no full decode possible
        for (const auto &prev : patterns) {
            if (prev == p)
                return false;
        }
        patterns.push_back(p);
    }
    return true;
}

long long
ScenarioOracle::stepsPerTrial(const std::vector<std::size_t> &seq) const
{
    // Each candidate is replayed once per secret value.
    return static_cast<long long>(seq.size()) *
           static_cast<long long>(secrets_.size());
}

} // namespace autocat
