/**
 * @file
 * CLI explorer: run the AutoCAT pipeline from a config file.
 *
 *   $ ./examples/explore_from_config my_experiment.cfg
 *   $ ./examples/explore_from_config --print-default  > default.cfg
 *
 * With no arguments, runs the built-in Table V LRU configuration.
 * The config format covers every Table II knob (see
 * src/core/config_parser.hpp for the full key list).
 */

#include <iostream>

#include "core/autocat.hpp"
#include "core/config_parser.hpp"

int
main(int argc, char **argv)
{
    using namespace autocat;

    ExplorationConfig cfg;
    if (argc > 1 && std::string(argv[1]) == "--print-default") {
        cfg.env.cache.numWays = 4;
        cfg.env.attackAddrE = 4;
        cfg.env.victimAddrE = 0;
        cfg.env.victimNoAccessEnable = true;
        cfg.env.windowSize = 16;
        std::cout << renderExplorationConfig(cfg);
        return 0;
    }

    try {
        if (argc > 1) {
            cfg = loadExplorationConfig(argv[1]);
            std::cout << "Loaded " << argv[1] << "\n";
        } else {
            cfg = parseExplorationConfig(std::string(R"(
                num_sets = 1
                num_ways = 4
                rep_policy = lru
                attack_addr_s = 0
                attack_addr_e = 4
                victim_addr_s = 0
                victim_addr_e = 0
                victim_no_access_enable = true
                window_size = 16
                max_epochs = 120
            )"));
            std::cout << "No config given; using the built-in Table V "
                         "LRU setting.\n";
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    ExplorationResult r;
    try {
        r = explore(cfg);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    std::cout << (r.converged ? "converged" : "NOT converged")
              << "  epochs=" << r.epochsToConverge
              << "  accuracy=" << r.finalAccuracy
              << "  episode-length=" << r.finalEpisodeLength << "\n"
              << "attack: " << attackString(r.sequence, r.finalGuess)
              << "  [" << categoryLabel(r.category) << "]\n";
    return r.converged ? 0 : 1;
}
