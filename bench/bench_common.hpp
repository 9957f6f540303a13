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

} // namespace bench
} // namespace autocat

#endif // AUTOCAT_BENCH_BENCH_COMMON_HPP
