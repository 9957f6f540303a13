/**
 * @file
 * Detector construction by name.
 *
 * Campaign phases and registry scenarios describe detector-in-the-loop
 * training declaratively: a DetectorSpec names a detection scheme
 * ("miss", "cchunter", "cyclone"), how the environment reacts to it
 * (DetectorMode), and the scheme's reward knob. makeDetector() turns a
 * spec into a live Detector for a given attacked-cache geometry.
 *
 * The Cyclone scheme needs a trained SVM; since campaigns must be
 * reproducible, the classifier is trained once per (sets, interval)
 * geometry on the deterministic synthetic corpus from
 * detect/benign_traces.hpp (fixed seed) and cached process-wide, so
 * every cyclone detector of a geometry shares one model — mirroring
 * the paper's single offline-trained detector. The Table IX bench
 * measures against this model and cross-validates on its corpus.
 */

#ifndef AUTOCAT_DETECT_DETECTOR_FACTORY_HPP
#define AUTOCAT_DETECT_DETECTOR_FACTORY_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "detect/detector.hpp"
#include "detect/svm.hpp"

namespace autocat {

/** Declarative description of one detector attachment. */
struct DetectorSpec
{
    /** Scheme name: "miss", "cchunter" (autocorrelation), "cyclone". */
    std::string kind;

    /** How the environment reacts when the detector fires. */
    DetectorMode mode = DetectorMode::Penalize;

    /**
     * Reward knob of the scheme (<= 0): the Cyclone per-interval step
     * penalty, or the CC-Hunter L2 episode-penalty coefficient.
     * Ignored by "miss" (Terminate-mode detection uses the env's
     * detectionReward).
     */
    double penalty = -1.0;

    /** "miss": victim demand misses required to fire. */
    unsigned missThreshold = 1;

    /** "cyclone": demand accesses per observation interval. */
    unsigned cycloneInterval = 16;
};

/** Registered scheme names, sorted. */
std::vector<std::string> detectorKinds();

/** True if @p kind names a known detection scheme. */
bool hasDetectorKind(const std::string &kind);

/**
 * Build a detector from @p spec for an environment whose attacked
 * cache level is @p attacked_cache (the Cyclone feature extractor
 * tracks that level's sets).
 *
 * @throws std::invalid_argument for an unknown kind (the message lists
 *         the known schemes)
 */
std::shared_ptr<Detector> makeDetector(const DetectorSpec &spec,
                                       const CacheConfig &attacked_cache);

/**
 * The deterministic corpus cycloneCampaignSvm(num_sets, interval_steps)
 * trains on: synthetic benign traces vs textbook prime+probe on a
 * num_sets-set direct-mapped cache, drawn from a fixed seed. @p rng's
 * prior state is discarded; on return it stands where the draw ended,
 * so training or cross-validating from it continues the corpus's
 * stream (the Table IX bench cross-validates this way).
 */
SvmDataset cycloneCampaignCorpus(std::size_t num_sets,
                                 std::size_t interval_steps, Rng &rng);

/**
 * The process-wide Cyclone SVM for a geometry: trained on first use on
 * cycloneCampaignCorpus(), continuing its stream, then cached. Every
 * "cyclone" DetectorSpec and the Table IX bench detect with it.
 */
std::shared_ptr<const LinearSvm>
cycloneCampaignSvm(std::size_t num_sets, std::size_t interval_steps);

/** Parse "terminate" / "penalize" (std::invalid_argument otherwise). */
DetectorMode detectorModeFromString(const std::string &s);

/** Inverse of detectorModeFromString. */
const char *detectorModeName(DetectorMode mode);

} // namespace autocat

#endif // AUTOCAT_DETECT_DETECTOR_FACTORY_HPP
