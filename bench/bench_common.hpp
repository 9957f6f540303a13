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

/**
 * The Tables VIII/IX and Fig. 3 curriculum as a campaign on
 * multiSecretEnv(): the policy learns the one-shot attack on
 * single-secret episodes ("one-shot", stops at greedy accuracy 0.98),
 * then repetition on 32-step multi-secret episodes ("short-channel"),
 * then the full 160-step channel ("channel"), with @p detector attached
 * in the two channel phases.
 */
inline CampaignConfig
channelCampaign(const DetectorSpec &detector, std::uint64_t seed,
                int channel_epochs)
{
    CampaignConfig cfg;
    cfg.base.env = multiSecretEnv();
    cfg.base.ppo.seed = seed;
    cfg.base.evalEpisodes = 40;

    CurriculumPhase one_shot;
    one_shot.name = "one-shot";
    one_shot.multiSecret = false;
    one_shot.maxEpochs = byMode(12, 60, 80);
    one_shot.targetAccuracy = 0.98;

    CurriculumPhase short_channel;
    short_channel.name = "short-channel";
    short_channel.multiSecretEpisodeSteps = 32;
    short_channel.maxEpochs = byMode(4, 25, 40);
    short_channel.detectors = {detector};

    CurriculumPhase channel;
    channel.name = "channel";
    channel.maxEpochs = channel_epochs;
    channel.detectors = {detector};

    cfg.phases = {one_shot, short_channel, channel};
    return cfg;
}

/** Say whether @p row's curriculum learned the one-shot attack. */
inline void
printOneShot(const std::string &row, const CampaignResult &result)
{
    const PhaseResult &one_shot = result.phases.front();
    std::cout << row << ": one-shot phase ";
    if (one_shot.converged)
        std::cout << "converged at epoch " << one_shot.convergedEpoch;
    else
        std::cout << "did not converge";
    std::cout << "\n";
}

/**
 * Play @p episodes on @p game: the textbook prime+probe agent when
 * @p policy is null, else @p policy greedily.
 */
inline EvalStats
playRow(CacheGuessingGame &game, ActorCritic *policy, int episodes,
        const EpisodeHooks &hooks = {})
{
    TextbookPrimeProbeAgent textbook(game);
    SyncVecEnv vec(game);
    return runEpisodes(vec, episodes,
                       policy ? greedyPolicy(*policy)
                              : scriptedPolicy(textbook),
                       hooks);
}

} // namespace bench
} // namespace autocat

#endif // AUTOCAT_BENCH_BENCH_COMMON_HPP
