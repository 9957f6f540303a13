/**
 * @file
 * Example: how replacement policies change the attacks RL discovers.
 *
 * Runs the exploration pipeline against LRU, tree-PLRU, and SRRIP
 * versions of the same 4-way set (the Section V-C case study) and
 * contrasts the discovered sequences — RRIP typically needs a longer
 * sequence because a line must be re-referenced to be protected.
 *
 *   $ ./examples/explore_replacement_policy
 */

#include <iostream>

#include "core/autocat.hpp"

int
main()
{
    using namespace autocat;

    for (ReplPolicy policy :
         {ReplPolicy::Lru, ReplPolicy::TreePlru, ReplPolicy::Rrip}) {
        ExplorationConfig cfg;
        cfg.env.cache.numSets = 1;
        cfg.env.cache.numWays = 4;
        cfg.env.cache.policy = policy;
        cfg.env.cache.addressSpaceSize = 8;
        cfg.env.attackAddrS = 0;
        cfg.env.attackAddrE = 4;
        cfg.env.victimAddrS = 0;
        cfg.env.victimAddrE = 0;
        cfg.env.victimNoAccessEnable = true;
        cfg.env.windowSize = policy == ReplPolicy::Rrip ? 20 : 16;
        cfg.maxEpochs = 170;
        cfg.ppo.seed = 21;

        std::cout << "=== policy: " << replPolicyName(policy)
                  << " ===\n";
        const ExplorationResult r = explore(cfg);
        if (r.converged) {
            std::cout << "  converged in " << r.epochsToConverge
                      << " epochs, accuracy " << r.finalAccuracy
                      << "\n  attack: "
                      << attackString(r.sequence, r.finalGuess) << "\n\n";
        } else {
            std::cout << "  did not converge (accuracy "
                      << r.finalAccuracy << ")\n\n";
        }
    }

    std::cout << "Expected (paper Table V): RRIP needs the longest "
                 "training and attack sequence; LRU/PLRU are similar."
              << "\n";
    return 0;
}
