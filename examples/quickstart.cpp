/**
 * @file
 * Quickstart: explore a cache-timing attack with AutoCAT in ~30 lines.
 *
 * Builds the paper's canonical setting — a 4-way fully-associative
 * LRU set where the victim either touches address 0 or stays idle —
 * trains the PPO agent, and prints the attack it discovered together
 * with its automatic classification.
 *
 *   $ ./examples/quickstart
 */

#include <iostream>

#include "core/autocat.hpp"

int
main()
{
    using namespace autocat;

    std::cout << versionString() << "\n\n";

    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1;          // one fully-associative set
    cfg.env.cache.numWays = 4;
    cfg.env.cache.policy = ReplPolicy::Lru;
    cfg.env.cache.addressSpaceSize = 8;
    cfg.env.attackAddrS = 0;            // attacker may touch 0..4
    cfg.env.attackAddrE = 4;
    cfg.env.victimAddrS = 0;            // victim touches 0 ...
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;  // ... or nothing (0/E)
    cfg.env.windowSize = 16;
    cfg.maxEpochs = 120;

    // Collect experience from 4 environment streams at once (stream i
    // is seeded env.seed + i); the policy forward pass is batched
    // across the streams. Set batchEnv = true to step them through the
    // SoA batch engine instead (same trajectories, no row copies).
    cfg.numStreams = 4;

    std::cout << "Training PPO on the cache guessing game "
                 "(one epoch = 3000 env steps across "
              << cfg.numStreams << " streams)...\n";
    const ExplorationResult result = explore(cfg);

    if (!result.converged) {
        std::cout << "Did not converge within " << cfg.maxEpochs
                  << " epochs; final accuracy "
                  << result.finalAccuracy << "\n";
        return 1;
    }

    std::cout << "\nConverged after " << result.epochsToConverge
              << " epochs (" << result.envSteps << " env steps).\n"
              << "Guess accuracy : " << result.finalAccuracy << "\n"
              << "Episode length : " << result.finalEpisodeLength << "\n"
              << "Attack found   : " << result.sequence.toString(false)
              << " -> " << result.finalGuess << "\n"
              << "Category       : " << categoryLabel(result.category)
              << " (auto-classified)\n";
    return 0;
}
