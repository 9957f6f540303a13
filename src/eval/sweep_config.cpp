#include "eval/sweep_config.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/campaign_config.hpp"
#include "core/config_parser.hpp"
#include "core/config_table.hpp"
#include "util/socket.hpp"

namespace autocat {

namespace {

/** Endpoints are validated when parsed, not when the fleet dials them. */
void
requireTcpEndpoints(const std::vector<std::string> &endpoints,
                    const std::string &key)
{
    for (const std::string &endpoint : endpoints) {
        try {
            parseTcpEndpoint(endpoint);
        } catch (const std::exception &e) {
            throw std::invalid_argument("config: " + key + ": " + e.what());
        }
    }
}

/** The sweep.* and gateway.* keys, in render order. */
const ConfigTable<SweepConfig> &
sweepKeys()
{
    static const ConfigTable<SweepConfig> keys = {
        {"sweep.name", [](auto &c) -> auto & { return c.name; }},
        {"sweep.scenarios", [](auto &c) -> auto & { return c.grid.scenarios; }},
        {"sweep.policies", [](auto &c) -> auto & { return c.grid.policies; }},
        {"sweep.seeds", [](auto &c) -> auto & { return c.grid.seeds; }},
        {"sweep.hardware_targets",
         [](auto &c) -> auto & { return c.grid.hardwareTargets; }},
        {"sweep.workers", [](auto &c) -> auto & { return c.workers; },
         configRange(1, 4096)},
        {"sweep.include_timing",
         [](auto &c) -> auto & { return c.includeTiming; }},
        {"sweep.report_json",
         [](auto &c) -> auto & { return c.reportJsonPath; }},
        {"sweep.report_csv", [](auto &c) -> auto & { return c.reportCsvPath; }},
        {"sweep.checkpoint_dir",
         [](auto &c) -> auto & { return c.checkpointDir; }},
        {"sweep.checkpoint_interval",
         [](auto &c) -> auto & { return c.checkpointInterval; },
         configRange(0, 1000000)},
        {"sweep.dist_processes",
         [](auto &c) -> auto & { return c.distProcesses; },
         configRange(0, 1024)},
        {"sweep.dist_retries", [](auto &c) -> auto & { return c.distRetries; },
         configRange(0, 100)},
        {"sweep.heartbeat_timeout_s",
         [](auto &c) -> auto & { return c.heartbeatTimeoutS; },
         configRange(0)},
        {"sweep.dist_work_dir",
         [](auto &c) -> auto & { return c.distWorkDir; }},
        {"sweep.dist_endpoints",
         [](auto &c) -> auto & { return c.distEndpoints; },
         requireTcpEndpoints},
        {"sweep.manifest_dir", [](auto &c) -> auto & { return c.manifestDir; }},
        {"sweep.manifest_reset",
         [](auto &c) -> auto & { return c.manifestReset; }},
        {"gateway.tenant", [](auto &c) -> auto & { return c.gatewayTenant; }},
        {"gateway.priority",
         [](auto &c) -> auto & { return c.gatewayPriority; },
         configRange(0, 1000000)},
        {"sweep.bakeoff_agents",
         [](auto &c) -> auto & { return c.bakeoffAgents; }},
        {"sweep.bakeoff_scenarios",
         [](auto &c) -> auto & { return c.bakeoffScenarios; }},
        {"sweep.masked_penalty",
         [](auto &c) -> auto & { return c.maskedPenalty; }, configRange(0)},
    };
    return keys;
}

} // namespace

bool
applySweepConfigKey(SweepConfig &cfg, const std::string &key,
                    const std::string &value)
{
    // Campaign cells: sweeps carry the same phase[N].* family campaign
    // configs use (core/campaign_config.hpp).
    return applyPhaseKey(cfg.phases, key, value) ||
           sweepKeys().apply(cfg, key, value);
}

SweepConfig
parseSweepConfig(std::istream &in)
{
    SweepConfig cfg;
    cfg.base = parseExplorationConfig(
        in, [&cfg](const std::string &key, const std::string &value) {
            return applySweepConfigKey(cfg, key, value);
        });
    validateConfigPhases(cfg.phases);
    return cfg;
}

SweepConfig
parseSweepConfig(const std::string &text)
{
    std::istringstream iss(text);
    return parseSweepConfig(iss);
}

SweepConfig
loadSweepConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("config: cannot open " + path);
    return parseSweepConfig(in);
}

std::string
renderSweepConfig(const SweepConfig &cfg)
{
    std::string out = renderExplorationConfig(cfg.base);
    sweepKeys().render(cfg, out);
    return out + renderPhaseKeys(cfg.phases);
}

} // namespace autocat
