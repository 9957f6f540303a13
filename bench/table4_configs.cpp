/**
 * @file
 * Table IV: attacks found across diverse cache / attacker / victim
 * configurations — direct-mapped, fully- and set-associative caches,
 * prefetchers, flush on/off, shared and disjoint address ranges, and
 * a two-level hierarchy. Each row is one sweep cell: the campaign
 * runs through eval/sweep.hpp (cells fan out over a worker pool) and
 * the bench prints the per-row classification next to the paper's
 * expectation.
 *
 * The default mode runs a representative subset; AUTOCAT_FULL=1 runs
 * all 17 rows of the paper's table.
 */

#include <thread>

#include "bench_common.hpp"
#include "eval/sweep.hpp"

using namespace autocat;
using namespace autocat::bench;

namespace {

struct ConfigRow
{
    int no;
    const char *type;
    const char *expected;
    EnvConfig env;
    bool heavy = false;  ///< only run with AUTOCAT_FULL=1
    const char *scenario = "guessing_game";  ///< registry name
};

EnvConfig
make(unsigned sets, unsigned ways, std::uint64_t va_s, std::uint64_t va_e,
     std::uint64_t aa_s, std::uint64_t aa_e, bool flush, bool no_access,
     PrefetcherKind pf = PrefetcherKind::None)
{
    EnvConfig cfg;
    cfg.cache.numSets = sets;
    cfg.cache.numWays = ways;
    cfg.cache.policy = ReplPolicy::Lru;
    cfg.cache.prefetcher = pf;
    cfg.cache.addressSpaceSize = std::max(va_e, aa_e) + 1;
    cfg.attackAddrS = aa_s;
    cfg.attackAddrE = aa_e;
    cfg.victimAddrS = va_s;
    cfg.victimAddrE = va_e;
    cfg.flushEnable = flush;
    cfg.victimNoAccessEnable = no_access;
    cfg.seed = 7;
    const unsigned blocks = sets * ways;
    cfg.windowSize = std::min(40u, 4 * blocks + 12);
    return cfg;
}

std::vector<ConfigRow>
allRows()
{
    std::vector<ConfigRow> rows;
    // 1: DM 4 sets, disjoint, no flush -> PP
    rows.push_back({1, "DM 1x4", "PP",
                    make(4, 1, 0, 3, 4, 7, false, false)});
    // 2: DM + next-line prefetcher -> PP
    rows.push_back({2, "DM+PFnextline", "PP",
                    make(4, 1, 0, 3, 4, 7, false, false,
                         PrefetcherKind::NextLine)});
    // 3: DM, shared, flush -> FR
    rows.push_back({3, "DM 1x4", "FR",
                    make(4, 1, 0, 3, 0, 3, true, false)});
    // 4: DM, attacker covers both -> ER and PP
    rows.push_back({4, "DM 1x4", "ER,PP",
                    make(4, 1, 0, 3, 0, 7, false, false)});
    // 5: FA 4-way, 0/E, disjoint -> PP/LRU
    rows.push_back({5, "FA 4", "PP,LRU",
                    make(1, 4, 0, 0, 4, 7, false, true)});
    // 6: FA 4-way, 0/E, shared + flush -> FR/LRU
    rows.push_back({6, "FA 4", "FR,LRU",
                    make(1, 4, 0, 0, 0, 3, true, true)});
    // 7: FA 4-way, 0/E, attacker covers both -> ER/PP/LRU
    rows.push_back({7, "FA 4", "ER,PP,LRU",
                    make(1, 4, 0, 0, 0, 7, false, true)});
    // 8: FA 4-way, victim 0-3 shared, flush -> FR/LRU
    rows.push_back({8, "FA 4", "FR,LRU",
                    make(1, 4, 0, 3, 0, 3, true, false)});
    // 9: FA 4-way, victim 0-3, attacker 0-7, flush -> FR/LRU
    rows.push_back({9, "FA 4", "FR,LRU",
                    make(1, 4, 0, 3, 0, 7, true, false)});
    // 10: DM 8 sets, victim 0-7, flush -> FR (heavy: 8 secrets)
    rows.push_back({10, "DM 1x8", "FR",
                    make(8, 1, 0, 7, 0, 7, true, false), true});
    // 11: FA 8-way, 0/E, flush -> FR/LRU
    rows.push_back({11, "FA 8", "FR,LRU",
                    make(1, 8, 0, 0, 0, 7, true, true)});
    // 12: FA 8-way, 0/E, attacker 0-15 -> ER/PP/LRU (heavy)
    rows.push_back({12, "FA 8", "ER,PP,LRU",
                    make(1, 8, 0, 0, 0, 15, false, true), true});
    // 13: FA 8 + next-line prefetcher (heavy)
    rows.push_back({13, "FA8+PFnextline", "ER",
                    make(1, 8, 0, 0, 0, 15, false, true,
                         PrefetcherKind::NextLine),
                    true});
    // 14: FA 8 + stream prefetcher (heavy)
    rows.push_back({14, "FA8+PFstream", "ER",
                    make(1, 8, 0, 0, 0, 15, false, true,
                         PrefetcherKind::Stream),
                    true});
    // 15: SA 2-way x 4 sets, disjoint -> PP
    rows.push_back({15, "SA 2x4", "PP",
                    make(4, 2, 0, 3, 4, 11, false, false)});
    // 16: two-level (private DM L1s + shared 2x4 L2) -> PP (heavy)
    {
        // The l1l2_private scenario synthesizes the hierarchy from the
        // attacked-level config: DM L1s over the same sets, shared
        // inclusive L2 = cfg.cache.
        EnvConfig cfg = make(4, 2, 0, 3, 4, 11, false, false);
        cfg.cache.addressSpaceSize = 12;
        cfg.windowSize = 40;
        rows.push_back({16, "2-level SA 2x4", "PP", cfg, true,
                        "l1l2_private"});
    }
    // 17: two-level, L2 2x8, victim 0-7, attacker 8-23 (heavy)
    {
        EnvConfig cfg = make(8, 2, 0, 7, 8, 23, false, false);
        cfg.cache.addressSpaceSize = 24;
        cfg.windowSize = 56;
        rows.push_back({17, "2-level SA 2x8", "PP", cfg, true,
                        "l1l2_private"});
    }
    return rows;
}

} // namespace

int
main()
{
    banner("Table IV: attacks across cache/attacker configurations");

    const bool run_heavy = benchMode() == BenchMode::Full;
    const int max_epochs = byMode(10, 100, 260);
    const std::vector<ConfigRow> rows = allRows();

    // One sweep cell per (non-skipped) row; the seeds reproduce the
    // pre-sweep bench outputs exactly. row_cell maps each row to its
    // cell index (-1 = skipped) so the display loop below cannot drift
    // from this filter.
    std::vector<SweepCell> cells;
    std::vector<int> row_cell(rows.size(), -1);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const ConfigRow &row = rows[r];
        if (row.heavy && !run_heavy)
            continue;
        row_cell[r] = static_cast<int>(cells.size());
        SweepCell cell;
        cell.index = cells.size();
        cell.label = std::string("row ") + std::to_string(row.no) + " " +
                     row.type;
        cell.scenario = row.scenario;
        cell.policy = replPolicyName(row.env.cache.policy);
        cell.seed = row.env.seed;
        cell.config.env = row.env;
        cell.config.scenario = row.scenario;
        cell.config.ppo.seed = 19 + row.no;
        cell.config.maxEpochs = max_epochs;
        cells.push_back(std::move(cell));
    }

    // runSweepCells clamps to the cell count and a minimum of one.
    const SweepReport report = runSweepCells(
        "Table IV cells", std::move(cells),
        static_cast<int>(std::thread::hardware_concurrency()));

    TextTable table("Table IV (reproduction)",
                    {"No.", "Type", "Expected", "Found", "Acc",
                     "Attack found by AutoCAT"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const ConfigRow &row = rows[r];
        if (row_cell[r] < 0) {
            table.addRow({TextTable::fmt((long)row.no), row.type,
                          row.expected, "(skipped)", "-",
                          "run with AUTOCAT_FULL=1"});
            continue;
        }
        const SweepCellResult &cell = report.cells[row_cell[r]];
        if (!cell.completed) {
            table.addRow({TextTable::fmt((long)row.no), row.type,
                          row.expected, "(failed)", "-", cell.error});
            continue;
        }
        const ExplorationResult &res = cell.result;
        table.addRow(
            {TextTable::fmt((long)row.no), row.type, row.expected,
             res.converged ? categoryLabel(res.category) : "(timeout)",
             TextTable::fmt(res.finalAccuracy, 2),
             attackString(res.sequence, res.finalGuess)});
    }

    table.print(std::cout);
    std::cout << "\n(" << report.cells.size() << " cells on "
              << report.workersUsed << " sweep workers, "
              << TextTable::fmt(report.wallSeconds, 1) << " s)\n";
    std::cout << "\nPaper (Table IV): the agent finds a working attack"
                 " of the expected category for every configuration;"
                 " sequences are often shorter than the textbook"
                 " versions.\n";
    return 0;
}
