/**
 * @file
 * Table V: RL training statistics and generated attacks for the
 * deterministic cache replacement policies (LRU, PLRU, RRIP) on a
 * 4-way set with a 0/E victim. The policy x run grid runs as one
 * sweep campaign (eval/sweep.hpp); the bench aggregates the per-cell
 * results into the paper's per-policy rows.
 *
 * Paper expectation: RRIP needs more epochs to converge and a longer
 * attack sequence than LRU/PLRU. Absolute epoch counts differ from the
 * paper (its asynchronous trainer consumes far more samples per
 * "epoch"); the ordering is the reproduced claim.
 */

#include <thread>

#include "bench_common.hpp"
#include "eval/sweep.hpp"

using namespace autocat;
using namespace autocat::bench;

int
main()
{
    banner("Table V: attacking deterministic replacement policies");

    const int runs = byMode(1, 1, 3);
    const int max_epochs = byMode(12, 160, 300);
    const ReplPolicy policies[] = {ReplPolicy::Lru, ReplPolicy::TreePlru,
                                   ReplPolicy::Rrip};

    // One cell per policy x run; seeds reproduce the pre-sweep bench.
    std::vector<SweepCell> cells;
    for (ReplPolicy policy : policies) {
        for (int run = 0; run < runs; ++run) {
            SweepCell cell;
            cell.index = cells.size();
            cell.policy = replPolicyName(policy);
            cell.scenario = "guessing_game";
            cell.seed = 7 + run;
            cell.label = std::string(replPolicyName(policy)) + "/run" +
                         std::to_string(run);
            cell.config.env = tableVEnv(policy, 7 + run);
            if (policy == ReplPolicy::Rrip)
                cell.config.env.windowSize = 20;  // RRIP attacks are longer
            cell.config.ppo.seed = 21 + 13 * run;
            cell.config.maxEpochs = max_epochs;
            cells.push_back(std::move(cell));
        }
    }

    // runSweepCells clamps to the cell count and a minimum of one.
    const SweepReport report = runSweepCells(
        "Table V cells", std::move(cells),
        static_cast<int>(std::thread::hardware_concurrency()));

    TextTable table("Table V (reproduction)",
                    {"Repl. alg.", "Runs", "Epochs to converge",
                     "Episode length", "Example attack sequence"});

    std::size_t cell_index = 0;
    for (ReplPolicy policy : policies) {
        RunningStat epochs, length;
        std::string example = "(not converged)";
        std::string failure;
        bool all_converged = true;

        for (int run = 0; run < runs; ++run) {
            const SweepCellResult &cell = report.cells[cell_index++];
            if (cell.completed && cell.result.converged) {
                const ExplorationResult &r = cell.result;
                epochs.push(r.epochsToConverge);
                length.push(r.finalEpisodeLength);
                example = attackString(r.sequence, r.finalGuess);
            } else {
                all_converged = false;
                if (!cell.completed)
                    failure = "FAILED: " + cell.error;
            }
        }

        table.addRow({replPolicyName(policy), TextTable::fmt((long)runs),
                      all_converged && epochs.count()
                          ? TextTable::fmt(epochs.mean(), 1)
                          : std::string("> ") +
                                TextTable::fmt((long)max_epochs),
                      length.count() ? TextTable::fmt(length.mean(), 1)
                                     : "-",
                      // A thrown cell must not masquerade as a timeout,
                      // even when another run of the policy converged.
                      failure.empty() ? example : failure});
    }

    table.print(std::cout);
    std::cout << "\n(" << report.cells.size() << " cells on "
              << report.workersUsed << " sweep workers, "
              << TextTable::fmt(report.wallSeconds, 1) << " s)\n";
    std::cout << "\nPaper (Table V): LRU 26.0 epochs/len 7.0, PLRU 15.67"
                 "/7.0, RRIP 70.67/12.7 — expect RRIP slowest & longest."
              << "\n";
    return 0;
}
