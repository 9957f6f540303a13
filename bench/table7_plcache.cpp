/**
 * @file
 * Table VII: bypassing the partition-locked (PL) cache defense.
 *
 * The victim's line is pre-installed and locked, so it can never be
 * evicted and the victim never misses — the setting proved "secure"
 * under the tag-state-only model of He & Lee (MICRO'17). AutoCAT still
 * finds an attack through the PLRU replacement metadata, at the cost
 * of a longer training time and attack sequence than the undefended
 * baseline.
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

int
main()
{
    banner("Table VII: PLRU cache with and without the PL-cache "
           "defense");

    const int runs = byMode(1, 1, 3);
    const int max_epochs = byMode(12, 150, 300);

    TextTable table("Table VII (reproduction)",
                    {"Cache", "Epochs to converge", "Final episode length",
                     "Example attack sequence"});

    for (bool pl_cache : {true, false}) {
        RunningStat epochs, length;
        std::string example = "(not converged)";
        bool all_converged = true;

        for (int run = 0; run < runs; ++run) {
            ExplorationConfig cfg;
            cfg.env = tableVEnv(ReplPolicy::TreePlru, 7 + run);
            // Paper setting: attacker addresses 1-5, victim line 0
            // locked in the cache.
            cfg.env.attackAddrS = 1;
            cfg.env.attackAddrE = 5;
            cfg.env.plCacheLockVictim = pl_cache;
            cfg.env.windowSize = 20;
            cfg.ppo.seed = 41 + run * 17;
            cfg.maxEpochs = max_epochs;
            const ExplorationResult r = explore(cfg);
            if (r.converged) {
                epochs.push(r.epochsToConverge);
                length.push(r.finalEpisodeLength);
                example = attackString(r.sequence, r.finalGuess);
            } else {
                all_converged = false;
            }
        }

        table.addRow({pl_cache ? "PL Cache" : "Baseline",
                      all_converged && epochs.count()
                          ? TextTable::fmt(epochs.mean(), 1)
                          : std::string("> ") +
                                TextTable::fmt((long)max_epochs),
                      length.count() ? TextTable::fmt(length.mean(), 1)
                                     : "-",
                      example});
    }

    table.print(std::cout);
    std::cout << "\nPaper (Table VII): PL cache 37.67 epochs / len 8.1;"
                 " baseline 7.67 / 7.0 — expect the defended cache to"
                 " need more training and a longer sequence.\n";
    return 0;
}
