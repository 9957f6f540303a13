/**
 * @file
 * Synthetic benign-trace generation for training the Cyclone SVM.
 *
 * The paper trains its SVM on SPEC2017 memory traces (benign) vs.
 * textbook prime+probe traces (attack). SPEC traces are not available
 * offline, so we substitute a generator that reproduces the property
 * the detector keys on: benign co-resident processes touch the shared
 * cache with strided loops, working-set re-use, and zipf-like random
 * accesses, producing near-zero *cross-domain cyclic* interference,
 * while contention channels alternate domains on the same sets every
 * few accesses.
 */

#ifndef AUTOCAT_DETECT_BENIGN_TRACES_HPP
#define AUTOCAT_DETECT_BENIGN_TRACES_HPP

#include <cstdint>
#include <memory>

#include "cache/cache.hpp"
#include "detect/cyclone.hpp"
#include "detect/svm.hpp"
#include "util/rng.hpp"

namespace autocat {

/** Parameters of the synthetic benign workload mixture. */
struct BenignTraceConfig
{
    std::uint64_t addrSpace = 64;   ///< addresses each process draws from
    std::size_t traceLength = 160;  ///< demand accesses per trace
    double strideFraction = 0.4;    ///< share of strided-loop processes
    double loopFraction = 0.3;      ///< share of small-working-set loops
    /// remaining share: zipf-like random access
};

/**
 * Builds labeled Cyclone feature datasets.
 *
 * Benign rows come from the synthetic workload mixture; attack rows
 * from repeated textbook prime+probe rounds, both executed on a fresh
 * cache built from @p cache_config.
 */
class CycloneTrainingSetBuilder
{
  public:
    CycloneTrainingSetBuilder(const CacheConfig &cache_config,
                              std::size_t interval_steps,
                              const BenignTraceConfig &benign_config);

    /** Append @p traces benign traces worth of feature rows (label -1). */
    void addBenignTraces(std::size_t traces, Rng &rng, SvmDataset &out);

    /**
     * Append @p traces textbook prime+probe traces (label +1). The
     * attacker occupies [victim range size, 2x size) and the victim
     * accesses a random line of [0, size) each round.
     */
    void addPrimeProbeTraces(std::size_t traces, Rng &rng, SvmDataset &out);

    /** Convenience: balanced dataset with @p traces of each label. */
    SvmDataset build(std::size_t traces, Rng &rng);

  private:
    void runTrace(Cache &cache, Rng &rng, bool attack, int label,
                  SvmDataset &out);

    CacheConfig cache_config_;
    std::size_t interval_steps_;
    BenignTraceConfig benign_config_;
};

} // namespace autocat

#endif // AUTOCAT_DETECT_BENIGN_TRACES_HPP
