/**
 * @file
 * Scenario registry: construct environments by name.
 *
 * Benches, examples, and the exploration pipeline build their training
 * environments through this registry instead of naming a concrete
 * Environment subclass, so new cache scenarios (different simulators,
 * hardware targets, detector-in-the-loop workloads) plug in without
 * touching any call site. A scenario is a factory from a
 * ScenarioContext — the EnvConfig plus declarative detector
 * attachments — (and an optional externally-built MemorySystem) to an
 * Environment.
 *
 * Built-in scenarios:
 *  - "guessing_game": the paper's cache guessing game over the memory
 *    system the EnvConfig describes (single cache, or an explicit
 *    hierarchy when EnvConfig::hierarchy is set)
 *  - "l1l2_private": private per-core L1s + shared inclusive L2
 *  - "l1l2_shared":  shared L1 + shared inclusive L2 (SMT-style)
 *  - "l2_exclusive": private L1s + shared exclusive (victim) L2
 *  - "three_level":  private L1 + private L2 + shared inclusive L3
 * The hierarchy scenarios synthesize their levels from EnvConfig::cache
 * (the attacked outermost level) unless EnvConfig::hierarchy already
 * lists explicit levels.
 *
 * Channel scenarios (non-cache attacked resources, see
 * env/channel_model.hpp):
 *  - "tlb_evict": prime+probe over TLB sets; the TLB geometry and walk
 *    parameters come from EnvConfig::channel.tlb (config keys tlb.*).
 *  - "prefetch_probe": the stream prefetcher as the leak — the
 *    victim's secret selects its burst stride, and the prefetch the
 *    stride triggers perturbs cache state the attacker probes (burst
 *    shape from EnvConfig::channel, config keys channel.*).
 *
 * Detector-in-the-loop scenarios (Section V-D case studies; Tables
 * VIII/IX rows run these by name through campaigns and sweeps):
 *  - "miss_detect_terminate": guessing game with the miss-count
 *    detector in Terminate mode (detectionEnable forced on): any
 *    victim demand miss ends the episode with detectionReward.
 *  - "cchunter_bypass": guessing game with the CC-Hunter-style
 *    autocorrelation detector in Penalize mode (L2 episode penalty).
 *  - "cyclone_bypass": guessing game with the Cyclone-style SVM
 *    detector in Penalize mode (per-interval step penalty); the SVM is
 *    the deterministic cached model from detect/detector_factory.hpp.
 * Each attaches its default detector only when the context carries no
 * explicit DetectorSpec list; explicit specs replace the default.
 */

#ifndef AUTOCAT_ENV_ENV_REGISTRY_HPP
#define AUTOCAT_ENV_ENV_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/memory_system.hpp"
#include "detect/detector_factory.hpp"
#include "env/env_config.hpp"
#include "rl/env_interface.hpp"
#include "rl/vec_env.hpp"

namespace autocat {

/**
 * Everything a scenario factory constructs from: the environment
 * description plus declarative detector attachments. Campaign phases
 * (core/campaign.hpp) populate `detectors` to attach detectors by name
 * at phase start; an empty list lets detector scenarios fall back to
 * their built-in default attachment.
 */
struct ScenarioContext
{
    EnvConfig env;
    std::vector<DetectorSpec> detectors;

    ScenarioContext() = default;
    /*implicit*/ ScenarioContext(const EnvConfig &config) : env(config) {}

    /** The attacked (outermost) cache level's configuration. */
    const CacheConfig &
    attackedCache() const
    {
        return env.hierarchy.levels.empty()
                   ? env.cache
                   : env.hierarchy.levels.back().cache;
    }
};

/**
 * Scenario factory. @p memory may be null, in which case the factory
 * builds the memory system the context's EnvConfig describes (if it
 * needs one). Detector attachments in the context are applied by
 * makeEnv() after construction; factories only attach their own
 * scenario-default detectors (and only when ctx.detectors is empty).
 */
using EnvFactory = std::function<std::unique_ptr<Environment>(
    const ScenarioContext &, std::unique_ptr<MemorySystem> memory)>;

/**
 * Register a scenario under @p name, replacing any previous factory
 * with that name.
 *
 * @return true if the name was new, false if it replaced an entry
 */
bool registerScenario(const std::string &name, EnvFactory factory);

/** True if a scenario named @p name is registered. */
bool hasScenario(const std::string &name);

/** Sorted names of all registered scenarios. */
std::vector<std::string> scenarioNames();

/**
 * Build one environment from the scenario registry and apply the
 * context's detector attachments.
 *
 * @throws std::out_of_range for an unknown scenario name
 * @throws std::invalid_argument when ctx.detectors is non-empty but
 *         the scenario did not produce a CacheGuessingGame (detectors
 *         cannot be attached silently nowhere)
 */
std::unique_ptr<Environment>
makeEnv(const std::string &name, const ScenarioContext &ctx,
        std::unique_ptr<MemorySystem> memory = nullptr);

/** EnvConfig shorthand (no detector attachments). */
std::unique_ptr<Environment>
makeEnv(const std::string &name, const EnvConfig &config,
        std::unique_ptr<MemorySystem> memory = nullptr);

/** Which VecEnv adapter makeVecEnv wraps the streams in. */
enum class VecEnvKind
{
    Sync,      ///< SyncVecEnv: sequential on the caller
    Threaded,  ///< ThreadedVecEnv: per-stream worker pool
    Batch,     ///< BatchVecEnv: SoA pool, in-place observation rows
};

/**
 * Build an N-stream vectorized environment from the registry. Stream i
 * is constructed with `ctx.env.seed + i` so runs are reproducible and
 * streams are decorrelated; every adapter kind produces
 * bitwise-identical trajectories to N sequential single-env runs.
 * Detector attachments in the context apply to every stream (each
 * stream gets its own detector instances).
 *
 * @param name        scenario name
 * @param ctx         shared context (env.seed becomes the base seed)
 * @param num_streams N >= 1
 * @param kind        adapter the streams are wrapped in
 * @param decorate    optional per-stream hook (extra detectors, forced
 *                    state) run on each environment right after
 *                    construction and context attachment
 */
std::unique_ptr<VecEnv>
makeVecEnv(const std::string &name, const ScenarioContext &ctx,
           std::size_t num_streams, VecEnvKind kind = VecEnvKind::Sync,
           const std::function<void(Environment &)> &decorate = {});

/** EnvConfig shorthand (no detector attachments). */
std::unique_ptr<VecEnv>
makeVecEnv(const std::string &name, const EnvConfig &config,
           std::size_t num_streams, VecEnvKind kind = VecEnvKind::Sync,
           const std::function<void(Environment &)> &decorate = {});

} // namespace autocat

#endif // AUTOCAT_ENV_ENV_REGISTRY_HPP
