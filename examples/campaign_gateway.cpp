/**
 * @file
 * CLI front door for the multi-tenant campaign gateway: accept one or
 * more sweep-config submissions (each carrying `gateway.tenant` and
 * `gateway.priority` keys) and run them all on ONE shared worker
 * fleet of runner_daemons — local slots this driver spawns, remote
 * endpoints, or both.
 *
 *   $ ./examples/campaign_gateway --root /tmp/gw --dist 3 \
 *         alice_nightly.cfg bob_quick.cfg
 *   $ ./examples/campaign_gateway --root /tmp/gw \
 *         --endpoints 10.0.0.2:7001,10.0.0.3:7001 alice.cfg bob.cfg
 *
 * Higher-priority campaigns schedule first (ties in submission
 * order); every campaign's report lands under
 * <root>/<tenant>/<campaign>/report.json, and each campaign is
 * crash-safe re-enterable through its grid manifest in the same tree.
 *
 * Exit status: 0 when every cell of every campaign completed, 1 when
 * any cell failed, 2 on submission/config errors.
 */

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "eval/sweep_config.hpp"
#include "serve/gateway/campaign_gateway.hpp"

namespace {

int
usage()
{
    std::cerr << "usage: campaign_gateway --root DIR [--dist N] "
                 "[--runner PATH] [--endpoints H:P[,H:P...]] "
                 "[--retries N] [--heartbeat-timeout S] "
                 "config.cfg [config.cfg ...]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace autocat;

    std::string root, runner_flag;
    // Fleet flags that mirror a sweep.* key, as (key, value): parsed
    // through the key, so a flag is validated like the key in a file.
    std::vector<std::pair<std::string, std::string>> key_flags;
    std::vector<std::string> config_paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--dist" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_processes", argv[++i]);
        } else if (arg == "--runner" && i + 1 < argc) {
            runner_flag = argv[++i];
        } else if (arg == "--endpoints" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_endpoints", argv[++i]);
        } else if (arg == "--retries" && i + 1 < argc) {
            key_flags.emplace_back("sweep.dist_retries", argv[++i]);
        } else if (arg == "--heartbeat-timeout" && i + 1 < argc) {
            key_flags.emplace_back("sweep.heartbeat_timeout_s", argv[++i]);
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            config_paths.push_back(arg);
        }
    }
    if (root.empty() || config_paths.empty())
        return usage();

    try {
        SweepConfig flags;
        flags.distProcesses = 2; // two local daemons unless --dist says
        for (const auto &[key, value] : key_flags)
            applySweepConfigKey(flags, key, value);
        FleetOptions fleet;
        fleet.localProcesses = flags.distProcesses;
        fleet.endpoints = flags.distEndpoints;
        fleet.maxRetries = flags.distRetries;
        fleet.heartbeatTimeoutS = flags.heartbeatTimeoutS;
        if (fleet.localProcesses > 0)
            fleet.daemonPath = resolveRunnerDaemon(runner_flag, argv[0]);

        CampaignGateway gateway(root, fleet);
        for (const std::string &path : config_paths) {
            SweepConfig cfg = loadSweepConfig(path);
            gateway.submit(std::move(cfg));
        }
        std::cout << "Gateway accepted " << config_paths.size()
                  << " campaign(s); running the fleet.\n";

        const std::vector<GatewayResult> results = gateway.run();
        std::size_t failed = 0;
        for (const GatewayResult &result : results) {
            failed += result.report.numFailed();
            std::cout << "  " << result.tenant << "/"
                      << result.campaign << ": "
                      << result.report.numConverged() << "/"
                      << result.report.cells.size() << " converged, "
                      << result.report.numFailed() << " failed ("
                      << result.report.cellsAdopted
                      << " adopted from manifest) -> "
                      << result.reportPath << "\n";
        }
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
