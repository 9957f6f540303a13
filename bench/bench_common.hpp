/**
 * @file
 * Shared helpers for the paper-table bench binaries.
 *
 * Each binary reproduces one table or figure of the paper. Budgets
 * scale with AUTOCAT_FAST / AUTOCAT_FULL (see core/bench_mode.hpp);
 * the default mode finishes the entire suite in minutes and prints an
 * honest "converged?" column instead of hiding timeouts.
 */

#ifndef AUTOCAT_BENCH_BENCH_COMMON_HPP
#define AUTOCAT_BENCH_BENCH_COMMON_HPP

#include <cstdio>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/autocat.hpp"
#include "env/env_registry.hpp"

namespace autocat {
namespace bench {

/**
 * Build a guessing game through the scenario registry (benches name
 * the scenario instead of a concrete Environment class).
 */
inline std::unique_ptr<CacheGuessingGame>
makeGame(const EnvConfig &cfg)
{
    std::unique_ptr<Environment> env = makeEnv("guessing_game", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    if (!game)
        throw std::logic_error(
            "makeGame: scenario did not produce a CacheGuessingGame");
    env.release();
    return std::unique_ptr<CacheGuessingGame>(game);
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what)
{
    std::cout << "\n### " << what << "\n"
              << "### mode: " << benchModeName(benchMode())
              << "  (AUTOCAT_FAST=1 for smoke, AUTOCAT_FULL=1 for "
                 "paper-scale budgets)\n\n";
}

/** The Table V environment: 4-way FA set, victim 0/E, attacker 0-4. */
inline EnvConfig
tableVEnv(ReplPolicy policy, std::uint64_t seed = 7)
{
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 4;
    cfg.cache.policy = policy;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 4;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 16;
    cfg.seed = seed;
    return cfg;
}

/** The Table VIII/IX environment: 4-set DM, disjoint address ranges,
 *  fixed-length multi-secret episodes. */
inline EnvConfig
multiSecretEnv(std::uint64_t seed = 7)
{
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = 160;
    cfg.windowSize = 16;
    cfg.seed = seed;
    return cfg;
}

/** Curriculum stage variants of multiSecretEnv(). */
inline EnvConfig
singleSecretStage(std::uint64_t seed = 7)
{
    EnvConfig cfg = multiSecretEnv(seed);
    cfg.multiSecret = false;
    return cfg;
}

inline EnvConfig
shortChannelStage(std::uint64_t seed = 7)
{
    EnvConfig cfg = multiSecretEnv(seed);
    cfg.multiSecretEpisodeSteps = 32;
    return cfg;
}

/** Episode-wise evaluation with a measurement detector attached. */
struct DetectorEvalStats
{
    double bitRate = 0.0;
    double guessAccuracy = 0.0;
    double detectionRate = 0.0;
    double avgMaxAutocorr = 0.0;  ///< only with an AutocorrDetector
};

/**
 * Run @p act for @p episodes on @p env, reading @p autocorr (may be
 * null) after every episode for the Table VIII statistics.
 */
inline DetectorEvalStats
evaluateWithDetector(
    CacheGuessingGame &env,
    const std::function<std::size_t(const std::vector<float> &, int)> &act,
    int episodes, AutocorrDetector *autocorr,
    const std::function<void()> &on_episode_start = {})
{
    DetectorEvalStats stats;
    long long steps = 0;
    std::size_t guesses = 0, correct = 0, detected_eps = 0;
    double autocorr_sum = 0.0;

    for (int e = 0; e < episodes; ++e) {
        std::vector<float> obs = env.reset();
        if (on_episode_start)
            on_episode_start();
        int last_lat = LatNa;
        bool done = false, detected = false;
        while (!done) {
            const std::size_t action = act(obs, last_lat);
            StepResult sr = env.step(action);
            ++steps;
            last_lat = sr.info.observedLatency;
            if (sr.info.guessMade) {
                ++guesses;
                if (sr.info.guessCorrect)
                    ++correct;
            }
            if (sr.info.detected)
                detected = true;
            done = sr.done;
            obs = std::move(sr.obs);
        }
        if (autocorr)
            autocorr_sum += autocorr->maxAutocorr();
        if (detected)
            ++detected_eps;
    }

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
    stats.avgMaxAutocorr =
        episodes ? autocorr_sum / static_cast<double>(episodes) : 0.0;
    return stats;
}

/**
 * A multi-secret channel agent (Tables VIII/IX): the trainer and the
 * three curriculum stages it trains on, each a 1-stream SyncVecEnv
 * over the caller's instance so detector state attached to it stays
 * observable. The trainer holds the stages' addresses, so the agent is
 * neither copied nor moved.
 */
struct ChannelAgent
{
    ChannelAgent(Environment &single_env, Environment &short_env,
                 Environment &full_env, const PpoConfig &ppo)
        : single(single_env), multiShort(short_env), multiFull(full_env),
          trainer(single, ppo)
    {
    }
    ChannelAgent(const ChannelAgent &) = delete;
    ChannelAgent &operator=(const ChannelAgent &) = delete;

    SyncVecEnv single, multiShort, multiFull;
    PpoTrainer trainer;
};

/**
 * Curriculum training for the multi-secret channel agents: the policy
 * first learns the one-shot attack on single-secret episodes, then
 * repetition on short multi-secret episodes, then the full 160-step
 * channel. All three environments must share observation/action
 * dimensions (same address ranges and window).
 *
 * @return the agent, its trainer bound to @p multi_full
 */
inline std::unique_ptr<ChannelAgent>
trainChannelAgent(CacheGuessingGame &single, CacheGuessingGame &multi_short,
                  CacheGuessingGame &multi_full, const PpoConfig &ppo,
                  int phase1_epochs, int phase2_epochs, int phase3_epochs)
{
    auto agent =
        std::make_unique<ChannelAgent>(single, multi_short, multi_full, ppo);
    PpoTrainer &trainer = agent->trainer;
    for (int e = 1; e <= phase1_epochs; ++e) {
        trainer.runEpoch();
        if (e % 10 == 0 &&
            trainer.evaluate(40).guessAccuracy >= 0.98) {
            break;
        }
    }
    trainer.setVecEnv(agent->multiShort);
    for (int e = 0; e < phase2_epochs; ++e)
        trainer.runEpoch();
    trainer.setVecEnv(agent->multiFull);
    for (int e = 0; e < phase3_epochs; ++e)
        trainer.runEpoch();
    return agent;
}

/** Wrap a trained policy as an act function. */
inline std::function<std::size_t(const std::vector<float> &, int)>
policyActFn(ActorCritic &policy)
{
    return [&policy](const std::vector<float> &obs, int) {
        const AcOutput out = policy.forwardOne(obs);
        return policy.argmax(out.logits, 0);
    };
}

/** Wrap a scripted agent as an act function. */
inline std::function<std::size_t(const std::vector<float> &, int)>
scriptedActFn(ScriptedAgent &agent)
{
    return [&agent](const std::vector<float> &, int lat) {
        return agent.act(lat);
    };
}

} // namespace bench
} // namespace autocat

#endif // AUTOCAT_BENCH_BENCH_COMMON_HPP
