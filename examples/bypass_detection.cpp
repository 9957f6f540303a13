/**
 * @file
 * Example: training an attacker against an active detector.
 *
 * Trains on the miss_detect_terminate scenario, which attaches the
 * miss-count detector (performance-counter style) to the environment
 * in Terminate mode: any victim cache miss ends the episode with a
 * detection penalty. The agent must find an attack that never makes
 * the victim miss — the pressure that produced StealthyStreamline in
 * the paper (Section V-D).
 *
 *   $ ./examples/bypass_detection
 */

#include <iostream>
#include <memory>

#include "core/autocat.hpp"

int
main()
{
    using namespace autocat;

    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1;
    cfg.env.cache.numWays = 4;
    cfg.env.cache.policy = ReplPolicy::Lru;
    cfg.env.cache.addressSpaceSize = 8;
    cfg.env.attackAddrS = 0;
    cfg.env.attackAddrE = 4;
    cfg.env.victimAddrS = 0;
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;
    cfg.env.windowSize = 16;
    cfg.scenario = "miss_detect_terminate";  // detector ends episodes
    cfg.maxEpochs = 170;

    // With the victim line resident at episode start the victim can
    // hit; evicting it (the classic attack) would trip the detector.
    cfg.env.plCacheLockVictim = false;
    cfg.env.initAccesses = 8;

    std::cout << "Training against the miss-count detector...\n";
    const ExplorationResult with_detector = explore(cfg);

    std::cout << "\nWith detector:\n"
              << "  converged: " << (with_detector.converged ? "yes"
                                                             : "no")
              << ", accuracy " << with_detector.finalAccuracy
              << ", detection rate " << with_detector.detectionRate
              << "\n  attack: "
              << attackString(with_detector.sequence, with_detector.finalGuess)
              << "\n";

    // Baseline without the detector for contrast.
    cfg.scenario = "guessing_game";
    const ExplorationResult baseline = explore(cfg);
    std::cout << "\nWithout detector (baseline):\n"
              << "  accuracy " << baseline.finalAccuracy
              << "\n  attack: "
              << attackString(baseline.sequence, baseline.finalGuess) << "\n\n"
              << "The detector-trained agent must leak through the"
                 " replacement state without ever evicting the"
                 " victim's line.\n";
    return 0;
}
