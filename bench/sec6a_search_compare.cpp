/**
 * @file
 * Section VI-A: RL vs brute-force search.
 *
 * The paper derives M = 2 (N+1)^{2N+1} / (N!)^2 candidate sequences
 * per successful prime+probe on an N-way set (~e^{2N}), vs ~1M env
 * steps for RL. This bench prints the closed form for N = 2..16,
 * measures random search on small sets, and trains the RL agent on
 * the 4-way set for the direct comparison.
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

int
main()
{
    banner("Section VI-A: search-space comparison");

    TextTable formula("Prime+probe search space M = 2(N+1)^{2N+1}/(N!)^2",
                      {"Ways N", "M (candidates)",
                       "steps (M x (2N+2))"});
    for (unsigned n : {2u, 4u, 8u, 12u, 16u}) {
        const double m = primeProbeSearchSpace(n);
        formula.addRow({TextTable::fmt((long)n),
                        TextTable::fmt(m, 0),
                        TextTable::fmt(m * (2 * n + 2), 0)});
    }
    formula.print(std::cout);
    std::cout << "(paper: M ~ 2.05e7 for N = 8 -> ~369M steps)\n\n";

    // Measured: random search for a distinguishing sequence on small
    // fully-associative sets with a 0/E victim.
    const unsigned max_ways = byMode(2u, 4u, 4u);
    TextTable measured("Measured random search (FA N-way, victim 0/E)",
                       {"Ways N", "Seq length", "Sequences tried",
                        "Sim steps"});
    for (unsigned n = 2; n <= max_ways; n += 2) {
        EnvConfig env;
        env.cache.numSets = 1;
        env.cache.numWays = n;
        env.cache.addressSpaceSize = 2 * n + 2;
        env.attackAddrS = 0;
        env.attackAddrE = n;  // n+1 lines: enough to fill and probe
        env.victimAddrS = 0;
        env.victimAddrE = 0;
        env.victimNoAccessEnable = true;
        env.randomInit = false;
        ScenarioOracle oracle("guessing_game", env);
        Rng rng(13);
        const SearchResult r =
            randomSearch(oracle, 2 * n + 2, 50'000'000 / (2 * n + 2),
                         rng);
        measured.addRow(
            {TextTable::fmt((long)n), TextTable::fmt((long)(2 * n + 2)),
             r.found ? TextTable::fmt((long)r.sequencesTried)
                     : "(not found)",
             TextTable::fmt((long)r.stepsTaken)});
    }
    measured.print(std::cout);

    // RL on the 4-way set.
    const int max_epochs = byMode(8, 120, 250);
    ExplorationConfig cfg;
    cfg.env = tableVEnv(ReplPolicy::Lru);
    cfg.ppo.seed = 11;
    cfg.maxEpochs = max_epochs;
    const ExplorationResult r = explore(cfg);
    std::cout << "\nRL (PPO) on the 4-way set: "
              << (r.converged ? "converged" : "did not converge")
              << " after " << r.envSteps << " env steps ("
              << (r.converged ? r.epochsToConverge : max_epochs)
              << " epochs x 3000 steps).\n"
              << "Paper: RL converges within ~1M steps where"
                 " exhaustive search needs ~369M at N = 8.\n";
    return 0;
}
