#include "detect/detector_factory.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "detect/autocorr_detector.hpp"
#include "detect/benign_traces.hpp"
#include "detect/cyclone.hpp"
#include "detect/miss_detector.hpp"

namespace autocat {

namespace {

/** Seed of the deterministic Cyclone SVM training corpus. */
constexpr std::uint64_t kCycloneSvmSeed = 404;

/** Traces per label in the cached SVM's training set — enough for a
 *  stable decision boundary, small enough to train in milliseconds. */
constexpr std::size_t kCycloneSvmTraces = 60;

} // namespace

SvmDataset
cycloneCampaignCorpus(std::size_t num_sets, std::size_t interval_steps,
                      Rng &rng)
{
    // The feature extractor watches num_sets sets of a direct-mapped
    // cache; benign traffic is the synthetic SPEC substitute.
    CacheConfig train_cache;
    train_cache.numSets = static_cast<unsigned>(num_sets);
    train_cache.numWays = 1;
    train_cache.policy = ReplPolicy::Lru;
    train_cache.addressSpaceSize = 128;

    BenignTraceConfig benign;
    benign.addrSpace = 64;
    benign.traceLength = 160;

    CycloneTrainingSetBuilder builder(train_cache, interval_steps, benign);
    rng = Rng(kCycloneSvmSeed);
    return builder.build(kCycloneSvmTraces, rng);
}

std::shared_ptr<const LinearSvm>
cycloneCampaignSvm(std::size_t num_sets, std::size_t interval_steps)
{
    struct Cache
    {
        std::mutex mutex;
        std::map<std::pair<std::size_t, std::size_t>,
                 std::shared_ptr<const LinearSvm>>
            models;
    };
    static Cache *cache = new Cache;

    const auto key = std::make_pair(num_sets, interval_steps);
    std::lock_guard<std::mutex> lock(cache->mutex);
    auto it = cache->models.find(key);
    if (it != cache->models.end())
        return it->second;

    Rng rng;
    const SvmDataset data =
        cycloneCampaignCorpus(num_sets, interval_steps, rng);
    auto svm = std::make_shared<LinearSvm>();
    svm->train(data, rng);

    cache->models.emplace(key, svm);
    return svm;
}

std::vector<std::string>
detectorKinds()
{
    return {"cchunter", "cyclone", "miss"};
}

bool
hasDetectorKind(const std::string &kind)
{
    for (const std::string &k : detectorKinds()) {
        if (k == kind)
            return true;
    }
    return false;
}

std::shared_ptr<Detector>
makeDetector(const DetectorSpec &spec, const CacheConfig &attacked_cache)
{
    if (spec.kind == "miss")
        return std::make_shared<MissBasedDetector>(spec.missThreshold);
    if (spec.kind == "cchunter") {
        // Paper defaults (Section V-D): lags up to 30, 0.75 threshold;
        // the spec's penalty is the L2 reward coefficient.
        return std::make_shared<AutocorrDetector>(
            /*max_lag=*/30, /*threshold=*/0.75,
            /*penalty_coef=*/spec.penalty, /*min_events=*/8);
    }
    if (spec.kind == "cyclone") {
        const std::size_t sets = attacked_cache.numSets;
        return std::make_shared<CycloneDetector>(
            sets, spec.cycloneInterval,
            cycloneCampaignSvm(sets, spec.cycloneInterval), spec.penalty);
    }
    std::string known;
    for (const std::string &k : detectorKinds())
        known += (known.empty() ? "" : ", ") + k;
    throw std::invalid_argument("makeDetector: unknown detector kind \"" +
                                spec.kind + "\" (known: " + known + ")");
}

DetectorMode
detectorModeFromString(const std::string &s)
{
    if (s == "terminate")
        return DetectorMode::Terminate;
    if (s == "penalize")
        return DetectorMode::Penalize;
    throw std::invalid_argument(
        "detector mode must be 'terminate' or 'penalize', got '" + s +
        "'");
}

const char *
detectorModeName(DetectorMode mode)
{
    return mode == DetectorMode::Terminate ? "terminate" : "penalize";
}

} // namespace autocat
