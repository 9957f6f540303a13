#include "core/campaign_config.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_parser.hpp"
#include "core/config_table.hpp"

namespace autocat {

namespace {

/** Throws unless @p kind names a detection scheme or is "none". */
void
requireDetectorKind(const std::string &kind, const std::string &key)
{
    if (kind == "none" || hasDetectorKind(kind))
        return;
    std::string known;
    for (const std::string &k : detectorKinds())
        known += (known.empty() ? "" : ", ") + k;
    throw std::invalid_argument("config: unknown detector kind '" + kind +
                                "' for " + key + " (known: " + known +
                                ", none)");
}

/** The detector keys of a phase. */
const ConfigTable<DetectorSpec> &
detectorKeys()
{
    static const ConfigTable<DetectorSpec> keys = {
        {"detector", [](auto &d) -> auto & { return d.kind; },
         requireDetectorKind},
        {"detector_mode", [](auto &d) -> auto & { return d.mode; }},
        {"detector_penalty", [](auto &d) -> auto & { return d.penalty; }},
        {"detector_miss_threshold",
         [](auto &d) -> auto & { return d.missThreshold; }},
        {"detector_interval",
         [](auto &d) -> auto & { return d.cycloneInterval; }},
    };
    return keys;
}

/** The phase[N].* fields. */
const ConfigTable<CurriculumPhase> &
phaseKeys()
{
    static const ConfigTable<CurriculumPhase> keys = {
        {"name", [](auto &p) -> auto & { return p.name; }},
        {"scenario", [](auto &p) -> auto & { return p.scenario; }},
        {"max_epochs", [](auto &p) -> auto & { return p.maxEpochs; }},
        {"target_accuracy",
         [](auto &p) -> auto & { return p.targetAccuracy; }},
        {"max_detection_rate",
         [](auto &p) -> auto & { return p.maxDetectionRate; }},
        // The format carries at most one detector per phase: its first
        // key creates it, and "detector = none" removes it.
        {[](CurriculumPhase &p, const std::string &name,
            const std::string &key, const std::string &value) {
             DetectorSpec d =
                 p.detectors.empty() ? DetectorSpec() : p.detectors.front();
             if (!detectorKeys().apply(d, name, key, value))
                 return false;
             if (d.kind == "none")
                 p.detectors.clear();
             else
                 p.detectors.assign(1, d);
             return true;
         },
         [](const CurriculumPhase &p, const std::string &prefix,
            std::string &out) {
             if (p.detectors.size() > 1) {
                 throw std::invalid_argument(
                     "config: the config format carries at most one "
                     "detector per phase");
             }
             for (const DetectorSpec &d : p.detectors) {
                 if (!hasDetectorKind(d.kind)) {
                     throw std::invalid_argument(
                         "config: unknown detector kind '" + d.kind + "'");
                 }
                 detectorKeys().render(d, out, prefix);
             }
         }},
        {"detection_enable",
         [](auto &p) -> auto & { return p.detectionEnable; }},
        {"multi_secret", [](auto &p) -> auto & { return p.multiSecret; }},
        {"multi_secret_episode_steps",
         [](auto &p) -> auto & { return p.multiSecretEpisodeSteps; }},
        {"correct_guess_reward",
         [](auto &p) -> auto & { return p.rewards.correctGuessReward; }},
        {"wrong_guess_reward",
         [](auto &p) -> auto & { return p.rewards.wrongGuessReward; }},
        {"step_reward", [](auto &p) -> auto & { return p.rewards.stepReward; }},
        {"length_violation_reward",
         [](auto &p) -> auto & { return p.rewards.lengthViolationReward; }},
        {"detection_reward",
         [](auto &p) -> auto & { return p.rewards.detectionReward; }},
        {"no_guess_reward",
         [](auto &p) -> auto & { return p.rewards.noGuessReward; }},
    };
    return keys;
}

/** The phase list: the phase[N].* family. */
const ConfigTable<std::vector<CurriculumPhase>> &
phaseListKeys()
{
    using Table = ConfigTable<std::vector<CurriculumPhase>>;
    static const Table keys = {
        Table::indexed("phase", kMaxConfigPhases,
                       [](auto &phases) -> auto & { return phases; },
                       phaseKeys()),
    };
    return keys;
}

/** The campaign.* keys. */
const ConfigTable<CampaignConfig> &
campaignKeys()
{
    static const ConfigTable<CampaignConfig> keys = {
        {"campaign.checkpoint_path",
         [](auto &c) -> auto & { return c.checkpointPath; }},
        {"campaign.checkpoint_every",
         [](auto &c) -> auto & { return c.checkpointEvery; }},
        {"campaign.resume", [](auto &c) -> auto & { return c.resume; }},
    };
    return keys;
}

} // namespace

bool
applyPhaseKey(std::vector<CurriculumPhase> &phases,
              const std::string &key, const std::string &value)
{
    return phaseListKeys().apply(phases, key, value);
}

void
validateConfigPhases(const std::vector<CurriculumPhase> &phases)
{
    for (std::size_t k = 0; k < phases.size(); ++k) {
        for (const DetectorSpec &d : phases[k].detectors) {
            if (d.kind.empty()) {
                throw std::invalid_argument(
                    "config: phase[" + std::to_string(k) +
                    "] sets detector parameters without a phase[" +
                    std::to_string(k) + "].detector kind");
            }
        }
    }
}

std::string
renderPhaseKeys(const std::vector<CurriculumPhase> &phases)
{
    std::string out;
    phaseListKeys().render(phases, out);
    return out;
}

bool
applyCampaignKey(CampaignConfig &cfg, const std::string &key,
                 const std::string &value)
{
    return applyPhaseKey(cfg.phases, key, value) ||
           campaignKeys().apply(cfg, key, value);
}

CampaignConfig
parseCampaignConfig(std::istream &in)
{
    CampaignConfig cfg;
    cfg.base = parseExplorationConfig(
        in, [&cfg](const std::string &key, const std::string &value) {
            return applyCampaignKey(cfg, key, value);
        });
    validateConfigPhases(cfg.phases);
    return cfg;
}

CampaignConfig
parseCampaignConfig(const std::string &text)
{
    std::istringstream iss(text);
    return parseCampaignConfig(iss);
}

CampaignConfig
loadCampaignConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("config: cannot open " + path);
    return parseCampaignConfig(in);
}

std::string
renderCampaignConfig(const CampaignConfig &cfg)
{
    std::string out = renderExplorationConfig(cfg.base);
    campaignKeys().render(cfg, out);
    return out + renderPhaseKeys(cfg.phases);
}

} // namespace autocat
