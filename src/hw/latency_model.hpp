/**
 * @file
 * Cycle-level latency model for the simulated hardware targets.
 *
 * Converts attack/covert-channel access sequences into cycle counts
 * (and thus Mbps at a given core frequency). The constants follow
 * typical published Intel load-to-use latencies; the exact values are
 * the LatencyModel defaults below, since the paper's absolute bit
 * rates depend on its authors' silicon.
 */

#ifndef AUTOCAT_HW_LATENCY_MODEL_HPP
#define AUTOCAT_HW_LATENCY_MODEL_HPP

namespace autocat {

/** Cycle costs of the memory operations a channel performs. */
struct LatencyModel
{
    double l1HitCycles = 4.0;      ///< L1D load-to-use
    double l2HitCycles = 14.0;     ///< L1 miss hitting L2
    double l3HitCycles = 40.0;     ///< L2 miss hitting L3
    double memCycles = 200.0;      ///< full miss to DRAM
    double measureCycles = 26.0;   ///< rdtscp fencing around a load
    double loopCycles = 2.0;       ///< per-access loop overhead
    double freqGHz = 3.4;          ///< core clock

    /** Cycles of one plain access that hits at @p level (1=L1,0=mem). */
    double
    plainAccess(int hit_level) const
    {
        return loopCycles + levelCycles(hit_level);
    }

    /** Cycles of one timed access that hits at @p level. */
    double
    measuredAccess(int hit_level) const
    {
        return loopCycles + measureCycles + levelCycles(hit_level);
    }

    /** Raw load latency by hit level. */
    double
    levelCycles(int hit_level) const
    {
        switch (hit_level) {
          case 1: return l1HitCycles;
          case 2: return l2HitCycles;
          case 3: return l3HitCycles;
          default: return memCycles;
        }
    }

    /** Convert cycles to seconds. */
    double
    seconds(double cycles) const
    {
        return cycles / (freqGHz * 1e9);
    }

    /** Megabits per second for @p bits transferred in @p cycles. */
    double
    mbps(double bits, double cycles) const
    {
        if (cycles <= 0.0)
            return 0.0;
        return bits / seconds(cycles) / 1e6;
    }
};

} // namespace autocat

#endif // AUTOCAT_HW_LATENCY_MODEL_HPP
