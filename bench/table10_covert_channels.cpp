/**
 * @file
 * Table X: StealthyStreamline vs the LRU address-based covert channel
 * on four simulated machines (2048-bit random messages, best bit rate
 * with average error rate < 5%, sweeping the per-symbol repeat count).
 *
 * Absolute Mbps depends on the latency constants (hw/latency_model.hpp);
 * the reproduced claims are the ordering (SS faster on every machine)
 * and the stealth property (no sender misses).
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

namespace {

/** Best rate under the 5% error budget over repeat counts 1..4. */
CovertResult
bestUnderErrorBudget(const CovertMachinePreset &machine,
                     CovertProtocol protocol, const BitString &message,
                     int runs)
{
    CovertResult best;
    bool have = false;
    for (unsigned repeats = 1; repeats <= 4; ++repeats) {
        RunningStat mbps, err;
        CovertResult sample;
        for (int r = 0; r < runs; ++r) {
            CovertChannelConfig cfg;
            cfg.protocol = protocol;
            cfg.ways = machine.l1Ways;
            cfg.bitsPerSymbol = 2;
            cfg.policy = ReplPolicy::Lru;
            cfg.latency = machine.latency;
            cfg.noise = machine.noise;
            cfg.repeats = repeats;
            cfg.seed = 1000 + 17 * r + repeats;
            CovertChannel channel(cfg);
            sample = channel.transmit(message);
            mbps.push(sample.mbps);
            err.push(sample.errorRate);
        }
        if (err.mean() < 0.05 && (!have || mbps.mean() > best.mbps)) {
            best = sample;
            best.mbps = mbps.mean();
            best.errorRate = err.mean();
            have = true;
        }
    }
    return best;
}

} // namespace

int
main()
{
    banner("Table X: covert channels on simulated machines");

    const std::size_t message_bits = byMode(512, 2048, 2048);
    const int runs = byMode(2, 10, 100);

    Rng rng(2023);
    const BitString message = randomBits(rng, message_bits);

    TextTable table("Table X (reproduction)",
                    {"CPU", "uarch", "L1D config", "OS",
                     "LRU (Mbps)", "SS (Mbps)", "Impr.",
                     "Sender misses (SS)"});

    for (const CovertMachinePreset &machine : tableXMachines()) {
        const CovertResult lru = bestUnderErrorBudget(
            machine, CovertProtocol::LruAddrBased, message, runs);
        const CovertResult ss = bestUnderErrorBudget(
            machine, CovertProtocol::StealthyStreamline, message, runs);
        const double impr =
            lru.mbps > 0.0 ? (ss.mbps / lru.mbps - 1.0) * 100.0 : 0.0;
        table.addRow({machine.cpu, machine.uarch, machine.l1d,
                      machine.os, TextTable::fmt(lru.mbps, 1),
                      TextTable::fmt(ss.mbps, 1),
                      TextTable::fmt(impr, 0) + "%",
                      TextTable::fmt((long)ss.victimMisses)});
    }

    table.print(std::cout);
    std::cout << "\nPaper (Table X): LRU 2.1-6.2 Mbps, SS 3.7-7.7 Mbps,"
                 " improvements 22-71% (larger on the 12-way"
                 " RocketLake parts). Expected shape: SS wins on every"
                 " machine and its sender never misses (stealth).\n";
    return 0;
}
