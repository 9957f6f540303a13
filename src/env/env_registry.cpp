#include "env/env_registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "env/batch_env_pool.hpp"
#include "env/channel_model.hpp"
#include "env/guessing_game.hpp"

namespace autocat {

namespace {

struct Registry
{
    std::mutex mutex;
    std::map<std::string, EnvFactory> factories;
};

/**
 * Describes one built-in hierarchy scenario: how deep the synthesized
 * hierarchy is and how its levels relate (see resolveHierarchy).
 */
struct HierarchyShape
{
    unsigned depth;
    InclusionPolicy outerInclusion;
    bool sharedL1;
};

/**
 * Fill in cfg.hierarchy for a hierarchy scenario. A config that already
 * carries explicit levels (e.g. from hierarchy.levels[N].* config keys)
 * is trusted as-is; otherwise the levels are synthesized from
 * cfg.cache, which describes the outermost (attacked) level:
 *
 *  - L1: same sets as cfg.cache, direct mapped, no prefetcher/mapping
 *    tricks (those stay on the attacked level, as in Table IV 16/17)
 *  - mid level (three_level only): half of cfg.cache's ways, private
 *  - outermost: cfg.cache itself, shared
 */
EnvConfig
resolveHierarchy(EnvConfig cfg, const HierarchyShape &shape)
{
    if (!cfg.hierarchy.levels.empty())
        return cfg;

    CacheConfig inner = cfg.cache;
    inner.numWays = 1;
    inner.prefetcher = PrefetcherKind::None;
    inner.randomSetMapping = false;

    cfg.hierarchy.numCores = 2;
    cfg.hierarchy.levels.push_back(
        {inner, InclusionPolicy::Inclusive, shape.sharedL1});
    if (shape.depth >= 3) {
        CacheConfig mid = inner;
        mid.numWays = std::max(1u, cfg.cache.numWays / 2);
        cfg.hierarchy.levels.push_back(
            {mid, InclusionPolicy::Inclusive, /*shared=*/false});
    }
    cfg.hierarchy.levels.push_back(
        {cfg.cache, shape.outerInclusion, /*shared=*/true});
    return cfg;
}

EnvFactory
hierarchyFactory(const HierarchyShape &shape)
{
    return [shape](const ScenarioContext &ctx,
                   std::unique_ptr<MemorySystem> memory)
               -> std::unique_ptr<Environment> {
        const EnvConfig resolved = resolveHierarchy(ctx.env, shape);
        if (!memory)
            memory = makeMemorySystem(resolved);
        return std::make_unique<CacheGuessingGame>(resolved,
                                                   std::move(memory));
    };
}

/**
 * Detector-in-the-loop scenario: the guessing game with a default
 * DetectorSpec attached — unless the context carries explicit specs,
 * which replace the default (makeEnv applies them afterwards).
 * @p force_detection_enable turns on Terminate-mode episode ending for
 * the miss-based case study.
 */
EnvFactory
detectorScenarioFactory(const DetectorSpec &default_spec,
                        bool force_detection_enable)
{
    return [default_spec, force_detection_enable](
               const ScenarioContext &ctx,
               std::unique_ptr<MemorySystem> memory)
               -> std::unique_ptr<Environment> {
        EnvConfig cfg = ctx.env;
        if (force_detection_enable)
            cfg.detectionEnable = true;
        if (!memory)
            memory = makeMemorySystem(cfg);
        auto game =
            std::make_unique<CacheGuessingGame>(cfg, std::move(memory));
        if (ctx.detectors.empty()) {
            game->attachDetector(
                makeDetector(default_spec, ctx.attackedCache()),
                default_spec.mode);
        }
        return game;
    };
}

/**
 * tlb_evict: the guessing game over a TLB channel. The TLB geometry
 * comes from EnvConfig::channel.tlb (config keys tlb.*); the episode
 * knobs that default from "blocks in the attacked cache" are resolved
 * here against the TLB's entry count instead, and the page address
 * space is widened to cover the configured attack/victim ranges (the
 * same guarantee the config parser gives the cache address space).
 */
std::unique_ptr<Environment>
makeTlbEvictEnv(const ScenarioContext &ctx,
                std::unique_ptr<MemorySystem> memory)
{
    if (memory) {
        throw std::invalid_argument(
            "tlb_evict: an external MemorySystem cannot back the TLB "
            "channel");
    }
    EnvConfig cfg = ctx.env;
    TlbConfig tlb = cfg.channel.tlb;
    const std::uint64_t needed =
        std::max(cfg.attackAddrE, cfg.victimAddrE) + 2;
    if (tlb.addressSpaceSize < needed)
        tlb.addressSpaceSize = needed;

    const unsigned blocks = tlb.numEntries();
    if (cfg.windowSize == 0)
        cfg.windowSize = 6 * blocks;
    if (cfg.randomInit && cfg.initAccesses == 0)
        cfg.initAccesses = 2 * blocks;

    return std::make_unique<CacheGuessingGame>(
        cfg, std::make_unique<TlbChannel>(tlb));
}

/**
 * prefetch_probe: the guessing game with the stream prefetcher as the
 * attacked resource. The probed cache reuses EnvConfig::cache (its
 * internal prefetcher stripped — the channel owns the modeled one);
 * the victim's burst shape comes from EnvConfig::channel. The address
 * space is widened so every secret's prefetch target (burst_base +
 * burst_len * stride) is a distinct address rather than a wraparound
 * alias.
 */
std::unique_ptr<Environment>
makePrefetchProbeEnv(const ScenarioContext &ctx,
                     std::unique_ptr<MemorySystem> memory)
{
    if (memory) {
        throw std::invalid_argument(
            "prefetch_probe: an external MemorySystem cannot back the "
            "prefetcher channel");
    }
    EnvConfig cfg = ctx.env;
    CacheConfig cache = cfg.cache;
    const std::uint64_t max_stride =
        cfg.victimAddrE - cfg.victimAddrS + 1;
    const std::uint64_t needed = std::max(
        std::max(cfg.attackAddrE, cfg.victimAddrE) + 2,
        cfg.channel.prefetchBurstBase +
            cfg.channel.prefetchBurstLen * max_stride + 1);
    if (cache.addressSpaceSize < needed)
        cache.addressSpaceSize = needed;

    return std::make_unique<CacheGuessingGame>(
        cfg, std::make_unique<PrefetchProbeChannel>(
                 cache, cfg.victimAddrS, cfg.channel.prefetchBurstLen,
                 cfg.channel.prefetchBurstBase));
}

/**
 * The registry singleton. Built-ins are installed on first access so
 * static-library linking cannot drop the registrations.
 */
Registry &
registry()
{
    static Registry *r = [] {
        auto *init = new Registry;
        init->factories["guessing_game"] =
            [](const ScenarioContext &ctx,
               std::unique_ptr<MemorySystem> memory)
            -> std::unique_ptr<Environment> {
            if (!memory)
                memory = makeMemorySystem(ctx.env);
            return std::make_unique<CacheGuessingGame>(ctx.env,
                                                       std::move(memory));
        };
        // Hierarchy scenarios: the guessing game over a CacheHierarchy
        // (Table IV configs 16/17 and the shapes the ROADMAP calls for).
        init->factories["l1l2_private"] = hierarchyFactory(
            {2, InclusionPolicy::Inclusive, /*sharedL1=*/false});
        init->factories["l1l2_shared"] = hierarchyFactory(
            {2, InclusionPolicy::Inclusive, /*sharedL1=*/true});
        init->factories["l2_exclusive"] = hierarchyFactory(
            {2, InclusionPolicy::Exclusive, /*sharedL1=*/false});
        init->factories["three_level"] = hierarchyFactory(
            {3, InclusionPolicy::Inclusive, /*sharedL1=*/false});
        // Channel scenarios: the same game over non-cache resources
        // (env/channel_model.hpp).
        init->factories["tlb_evict"] = makeTlbEvictEnv;
        init->factories["prefetch_probe"] = makePrefetchProbeEnv;
        // Detector-in-the-loop scenarios (Section V-D / Tables VIII-IX).
        {
            DetectorSpec miss;
            miss.kind = "miss";
            miss.mode = DetectorMode::Terminate;
            init->factories["miss_detect_terminate"] =
                detectorScenarioFactory(miss,
                                        /*force_detection_enable=*/true);
        }
        {
            DetectorSpec cchunter;
            cchunter.kind = "cchunter";
            cchunter.mode = DetectorMode::Penalize;
            cchunter.penalty = -2.0;
            init->factories["cchunter_bypass"] = detectorScenarioFactory(
                cchunter, /*force_detection_enable=*/false);
        }
        {
            DetectorSpec cyclone;
            cyclone.kind = "cyclone";
            cyclone.mode = DetectorMode::Penalize;
            cyclone.penalty = -2.0;
            init->factories["cyclone_bypass"] = detectorScenarioFactory(
                cyclone, /*force_detection_enable=*/false);
        }
        return init;
    }();
    return *r;
}

/** Attach the context's declarative detector specs to a built env. */
void
applyContextDetectors(Environment &env, const ScenarioContext &ctx,
                      const std::string &scenario)
{
    if (ctx.detectors.empty())
        return;
    auto *game = dynamic_cast<CacheGuessingGame *>(&env);
    if (!game) {
        throw std::invalid_argument(
            "makeEnv: scenario \"" + scenario +
            "\" did not produce a CacheGuessingGame; detector "
            "attachments cannot apply");
    }
    for (const DetectorSpec &spec : ctx.detectors)
        game->attachDetector(makeDetector(spec, ctx.attackedCache()),
                             spec.mode);
}

} // namespace

bool
registerScenario(const std::string &name, EnvFactory factory)
{
    if (!factory)
        throw std::invalid_argument("registerScenario: empty factory");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.factories.insert_or_assign(name, std::move(factory)).second;
}

bool
hasScenario(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.factories.count(name) != 0;
}

std::vector<std::string>
scenarioNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &entry : r.factories)
        names.push_back(entry.first);
    return names;
}

std::unique_ptr<Environment>
makeEnv(const std::string &name, const ScenarioContext &ctx,
        std::unique_ptr<MemorySystem> memory)
{
    EnvFactory factory;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto it = r.factories.find(name);
        if (it == r.factories.end())
            throw std::out_of_range("makeEnv: unknown scenario \"" + name +
                                    "\"");
        factory = it->second;
    }
    std::unique_ptr<Environment> env = factory(ctx, std::move(memory));
    applyContextDetectors(*env, ctx, name);
    return env;
}

std::unique_ptr<Environment>
makeEnv(const std::string &name, const EnvConfig &config,
        std::unique_ptr<MemorySystem> memory)
{
    return makeEnv(name, ScenarioContext(config), std::move(memory));
}

std::unique_ptr<VecEnv>
makeVecEnv(const std::string &name, const ScenarioContext &ctx,
           std::size_t num_streams, VecEnvKind kind,
           const std::function<void(Environment &)> &decorate)
{
    if (num_streams == 0)
        throw std::invalid_argument("makeVecEnv: need at least one stream");
    std::vector<std::unique_ptr<Environment>> envs;
    envs.reserve(num_streams);
    for (std::size_t i = 0; i < num_streams; ++i) {
        ScenarioContext stream_ctx = ctx;
        stream_ctx.env.seed = ctx.env.seed + i;
        envs.push_back(makeEnv(name, stream_ctx));
        if (decorate)
            decorate(*envs.back());
    }
    switch (kind) {
      case VecEnvKind::Threaded:
        return std::make_unique<ThreadedVecEnv>(std::move(envs));
      case VecEnvKind::Batch:
        return std::make_unique<BatchVecEnv>(std::move(envs));
      case VecEnvKind::Sync:
        break;
    }
    return std::make_unique<SyncVecEnv>(std::move(envs));
}

std::unique_ptr<VecEnv>
makeVecEnv(const std::string &name, const EnvConfig &config,
           std::size_t num_streams, VecEnvKind kind,
           const std::function<void(Environment &)> &decorate)
{
    return makeVecEnv(name, ScenarioContext(config), num_streams, kind,
                      decorate);
}

} // namespace autocat
