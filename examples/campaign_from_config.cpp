/**
 * @file
 * CLI campaign driver: run a resumable multi-phase training curriculum
 * from a config file (exploration base keys + `campaign.*` /
 * `phase[N].*` keys).
 *
 *   $ ./examples/campaign_from_config my_campaign.cfg
 *   $ ./examples/campaign_from_config my_campaign.cfg --resume
 *   $ ./examples/campaign_from_config --print-default > campaign.cfg
 *
 * With no config argument, runs a built-in 2-phase curriculum: learn
 * the attack clean, then keep training with the miss-count detector
 * penalizing detection (the Section V-D / Table VIII setting). With a
 * checkpoint path configured, interrupting the run and restarting with
 * --resume (or campaign.resume = true) continues bit-identically to an
 * uninterrupted run.
 *
 * Exit status: 0 when the final phase converged, 1 otherwise.
 */

#include <iostream>

#include "core/autocat.hpp"

namespace {

const char *kBuiltinCurriculum = R"(
    # 4-way LRU set, 0/E victim; learn clean, then evade the miss
    # detector.
    num_sets = 1
    num_ways = 4
    rep_policy = lru
    attack_addr_s = 0
    attack_addr_e = 4
    victim_addr_s = 0
    victim_addr_e = 0
    victim_no_access_enable = true
    window_size = 16
    init_accesses = 8
    seed = 7

    campaign.checkpoint_path = campaign.ckpt
    campaign.checkpoint_every = 10

    phase[0].name = warmup
    phase[0].max_epochs = 60
    phase[0].target_accuracy = 0.95

    # The scenario's default miss detector (Terminate mode, episode
    # ends with detection_reward) applies; the phase only tightens the
    # penalty and demands a low detection rate to stop.
    phase[1].name = bypass
    phase[1].scenario = miss_detect_terminate
    phase[1].max_epochs = 120
    phase[1].target_accuracy = 0.95
    phase[1].max_detection_rate = 0.1
    phase[1].detection_reward = -3
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace autocat;

    CampaignConfig cfg;
    std::string config_path;
    bool force_resume = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-default") {
            std::cout << renderCampaignConfig(
                parseCampaignConfig(std::string(kBuiltinCurriculum)));
            return 0;
        }
        if (arg == "--resume") {
            force_resume = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "usage: campaign_from_config [config.cfg] "
                         "[--resume] [--print-default]\n";
            return 2;
        } else {
            config_path = arg;
        }
    }

    try {
        if (!config_path.empty()) {
            cfg = loadCampaignConfig(config_path);
            std::cout << "Loaded " << config_path << "\n";
        } else {
            cfg = parseCampaignConfig(std::string(kBuiltinCurriculum));
            std::cout << "No config given; running the built-in 2-phase "
                         "miss-detector curriculum.\n";
        }
        if (force_resume)
            cfg.resume = true;

        TrainingSession session(cfg);
        const std::vector<CurriculumPhase> phases =
            session.resolvedPhases();
        std::cout << "Campaign has " << phases.size() << " phase(s)";
        if (!cfg.checkpointPath.empty()) {
            std::cout << ", checkpointing to " << cfg.checkpointPath
                      << (cfg.resume ? " (resume enabled)" : "");
        }
        std::cout << ".\n";

        const CampaignResult result = session.run(
            {},
            [](std::size_t index, const PhaseResult &phase) {
                std::cout << "  phase " << index << " [" << phase.name
                          << "]: "
                          << (phase.converged
                                  ? "converged at epoch " +
                                        std::to_string(
                                            phase.convergedEpoch)
                                  : "epoch budget exhausted")
                          << ", acc "
                          << phase.finalEval.guessAccuracy
                          << ", detection rate "
                          << phase.finalEval.detectionRate << "\n";
            },
            [](const std::string &path, std::size_t phase,
               int epochs_done) {
                std::cout << "  checkpoint -> " << path << " (phase "
                          << phase << ", epoch " << epochs_done << ")\n";
            });

        if (result.resumed)
            std::cout << "(resumed from checkpoint)\n";
        const ExplorationResult &fin = result.final;
        std::cout << (fin.converged ? "converged" : "NOT converged")
                  << "  accuracy=" << fin.finalAccuracy
                  << "  detection-rate=" << fin.detectionRate
                  << "  env-steps=" << fin.envSteps << "\n"
                  << "attack: " << attackString(fin.sequence, fin.finalGuess)
                  << "  [" << categoryLabel(fin.category) << "]\n";
        return fin.converged ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
