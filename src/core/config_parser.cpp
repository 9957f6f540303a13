#include "core/config_parser.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_table.hpp"

namespace autocat {

bool
parseConfigBool(const std::string &value, const std::string &key)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    throw std::invalid_argument("config: bad boolean for " + key + ": " +
                                value);
}

std::uint64_t
parseConfigUint(const std::string &value, const std::string &key)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("config: bad unsigned integer for " +
                                    key + ": " + value);
    }
    try {
        return std::stoull(value);
    } catch (const std::exception &) {
        throw std::invalid_argument("config: value out of range for " +
                                    key + ": " + value);
    }
}

double
parseConfigDouble(const std::string &value, const std::string &key)
{
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        // "nan"/"inf" parse cleanly but are never a sane knob value;
        // they would train silently-garbage agents.
        if (consumed != value.size() || !std::isfinite(parsed))
            throw std::invalid_argument("not a finite number");
        return parsed;
    } catch (const std::exception &) {
        throw std::invalid_argument("config: bad number for " + key +
                                    ": " + value);
    }
}

unsigned
parseConfigU32(const std::string &value, const std::string &key)
{
    const std::uint64_t parsed = parseConfigUint(value, key);
    if (parsed > 0xffffffffull) {
        throw std::invalid_argument("config: value out of range for " +
                                    key + ": " + value);
    }
    return static_cast<unsigned>(parsed);
}

int
parseConfigInt(const std::string &value, const std::string &key)
{
    const std::uint64_t parsed = parseConfigUint(value, key);
    if (parsed > 0x7fffffffull) {
        throw std::invalid_argument("config: value out of range for " +
                                    key + ": " + value);
    }
    return static_cast<int>(parsed);
}

std::string
trimConfigToken(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::string
renderConfigDouble(double v)
{
    // Default ostream precision is 6 digits, which silently perturbs
    // high-precision knobs; std::to_chars emits the shortest exact
    // rendering, locale-independently.
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::vector<std::string>
splitConfigList(const std::string &text, const std::string &key)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = text.find(',', start);
        const std::string item = trimConfigToken(
            comma == std::string::npos ? text.substr(start)
                                       : text.substr(start, comma - start));
        if (item.empty()) {
            throw std::invalid_argument("config: empty item in list for " +
                                        key);
        }
        items.push_back(item);
        if (comma == std::string::npos)
            return items;
        start = comma + 1;
    }
}

std::string
renderConfigString(const std::string &value, const std::string &key)
{
    if (value.find_first_of("#\n") != std::string::npos ||
        value != trimConfigToken(value)) {
        throw std::invalid_argument(
            "config: " + key +
            " is not representable in the config format: '" + value + "'");
    }
    return value;
}

bool
splitIndexedConfigKey(const std::string &name, const std::string &family,
                      std::size_t limit, const std::string &key,
                      std::size_t &index, std::string &field)
{
    const std::string open = family + "[";
    if (name.compare(0, open.size(), open) != 0)
        return false;
    const auto close = name.find(']', open.size());
    if (close == std::string::npos || close + 1 >= name.size() ||
        name[close + 1] != '.') {
        throw std::invalid_argument("config: malformed key '" + key + "'");
    }
    // Strict index parse: "0z" must not silently parse as entry 0.
    const std::uint64_t parsed = parseConfigUint(
        name.substr(open.size(), close - open.size()), key);
    if (parsed >= limit) {
        throw std::invalid_argument("config: index out of range in '" +
                                    key + "'");
    }
    index = static_cast<std::size_t>(parsed);
    field = name.substr(close + 2);
    return true;
}

namespace {

/** Hierarchy depth cap for the config surface (sanity bound). */
constexpr std::size_t kMaxHierarchyLevels = 8;

/** The hierarchy.levels[N].* fields. */
const ConfigTable<HierarchyLevelConfig> &
levelKeys()
{
    static const ConfigTable<HierarchyLevelConfig> keys = {
        {"num_sets", [](auto &l) -> auto & { return l.cache.numSets; }},
        {"num_ways", [](auto &l) -> auto & { return l.cache.numWays; }},
        {"rep_policy", [](auto &l) -> auto & { return l.cache.policy; }},
        {"prefetcher", [](auto &l) -> auto & { return l.cache.prefetcher; }},
        {"random_set_mapping",
         [](auto &l) -> auto & { return l.cache.randomSetMapping; }},
        {"address_space",
         [](auto &l) -> auto & { return l.cache.addressSpaceSize; }},
        {"seed", [](auto &l) -> auto & { return l.cache.seed; }},
        {"inclusion", [](auto &l) -> auto & { return l.inclusion; }},
        {"shared", [](auto &l) -> auto & { return l.shared; }},
    };
    return keys;
}

bool
hasHierarchyLevels(const ExplorationConfig &cfg)
{
    return !cfg.env.hierarchy.levels.empty();
}

/** Every exploration key, in render order. */
const ConfigTable<ExplorationConfig> &
explorationKeys()
{
    using Table = ConfigTable<ExplorationConfig>;
    static const Table keys = {
        // ----- cache configuration (Table II)
        {"num_sets", [](auto &c) -> auto & { return c.env.cache.numSets; }},
        {"num_ways", [](auto &c) -> auto & { return c.env.cache.numWays; }},
        {"rep_policy", [](auto &c) -> auto & { return c.env.cache.policy; }},
        {"prefetcher",
         [](auto &c) -> auto & { return c.env.cache.prefetcher; }},
        {"random_set_mapping",
         [](auto &c) -> auto & { return c.env.cache.randomSetMapping; }},
        {"address_space",
         [](auto &c) -> auto & { return c.env.cache.addressSpaceSize; }},
        {"cache_seed", [](auto &c) -> auto & { return c.env.cache.seed; }},
        // ----- attack & victim configuration (Table II)
        {"attack_addr_s", [](auto &c) -> auto & { return c.env.attackAddrS; }},
        {"attack_addr_e", [](auto &c) -> auto & { return c.env.attackAddrE; }},
        {"victim_addr_s", [](auto &c) -> auto & { return c.env.victimAddrS; }},
        {"victim_addr_e", [](auto &c) -> auto & { return c.env.victimAddrE; }},
        {"flush_enable", [](auto &c) -> auto & { return c.env.flushEnable; }},
        {"victim_no_access_enable",
         [](auto &c) -> auto & { return c.env.victimNoAccessEnable; }},
        {"detection_enable",
         [](auto &c) -> auto & { return c.env.detectionEnable; }},
        {"pl_cache_lock_victim",
         [](auto &c) -> auto & { return c.env.plCacheLockVictim; }},
        {"require_trigger_before_guess",
         [](auto &c) -> auto & { return c.env.requireTriggerBeforeGuess; }},
        {"window_size", [](auto &c) -> auto & { return c.env.windowSize; }},
        {"episode_length_limit",
         [](auto &c) -> auto & { return c.env.episodeLengthLimit; }},
        // ----- explicit hierarchy; the core count only matters with
        // levels, so it renders only then
        Table::renderedIf(hasHierarchyLevels,
                          {"hierarchy.num_cores", [](auto &c) -> auto & {
                               return c.env.hierarchy.numCores;
                           }}),
        Table::indexed(
            "hierarchy.levels", kMaxHierarchyLevels,
            [](auto &c) -> auto & { return c.env.hierarchy.levels; },
            levelKeys()),
        // ----- non-cache channels (only tlb_evict / prefetch_probe read
        // them, but they parse and round-trip regardless of scenario)
        {"tlb.num_sets",
         [](auto &c) -> auto & { return c.env.channel.tlb.numSets; }},
        {"tlb.num_ways",
         [](auto &c) -> auto & { return c.env.channel.tlb.numWays; }},
        {"tlb.rep_policy",
         [](auto &c) -> auto & { return c.env.channel.tlb.policy; }},
        {"tlb.walk_levels",
         [](auto &c) -> auto & { return c.env.channel.tlb.walkLevels; }},
        {"tlb.level_bits",
         [](auto &c) -> auto & { return c.env.channel.tlb.levelBits; }},
        {"tlb.pwc_sets",
         [](auto &c) -> auto & { return c.env.channel.tlb.pwcSets; }},
        {"tlb.pwc_ways",
         [](auto &c) -> auto & { return c.env.channel.tlb.pwcWays; }},
        {"tlb.address_space",
         [](auto &c) -> auto & { return c.env.channel.tlb.addressSpaceSize; }},
        {"tlb.seed", [](auto &c) -> auto & { return c.env.channel.tlb.seed; }},
        {"channel.prefetch_burst_len",
         [](auto &c) -> auto & { return c.env.channel.prefetchBurstLen; }},
        {"channel.prefetch_burst_base",
         [](auto &c) -> auto & { return c.env.channel.prefetchBurstBase; }},
        // ----- episode / reward configuration (Table II)
        {"multi_secret", [](auto &c) -> auto & { return c.env.multiSecret; }},
        {"multi_secret_episode_steps",
         [](auto &c) -> auto & { return c.env.multiSecretEpisodeSteps; }},
        {"reveal_on_guess",
         [](auto &c) -> auto & { return c.env.revealOnGuess; }},
        {"random_init", [](auto &c) -> auto & { return c.env.randomInit; }},
        {"init_accesses",
         [](auto &c) -> auto & { return c.env.initAccesses; }},
        {"correct_guess_reward",
         [](auto &c) -> auto & { return c.env.correctGuessReward; }},
        {"wrong_guess_reward",
         [](auto &c) -> auto & { return c.env.wrongGuessReward; }},
        {"step_reward", [](auto &c) -> auto & { return c.env.stepReward; }},
        {"length_violation_reward",
         [](auto &c) -> auto & { return c.env.lengthViolationReward; }},
        {"detection_reward",
         [](auto &c) -> auto & { return c.env.detectionReward; }},
        {"no_guess_reward",
         [](auto &c) -> auto & { return c.env.noGuessReward; }},
        // ----- sample-efficiency layer
        {"mask_actions", [](auto &c) -> auto & { return c.env.maskActions; }},
        {"mask_useless_actions",
         [](auto &c) -> auto & { return c.env.maskUselessActions; }},
        {"useless_action_penalty",
         [](auto &c) -> auto & { return c.env.uselessActionPenalty; }},
        {"seed", [](auto &c) -> auto & { return c.env.seed; }},
        // ----- exploration control
        {"scenario", [](auto &c) -> auto & { return c.scenario; }},
        {"num_streams", [](auto &c) -> auto & { return c.numStreams; }},
        {"threaded_envs", [](auto &c) -> auto & { return c.threadedEnvs; }},
        {"batch_env", [](auto &c) -> auto & { return c.batchEnv; }},
        // ----- PPO hyper-parameters
        {"ppo_seed", [](auto &c) -> auto & { return c.ppo.seed; }},
        {"steps_per_epoch",
         [](auto &c) -> auto & { return c.ppo.stepsPerEpoch; }},
        {"learning_rate", [](auto &c) -> auto & { return c.ppo.lr; }},
        {"entropy_coef", [](auto &c) -> auto & { return c.ppo.entropyCoef; }},
        {"gamma", [](auto &c) -> auto & { return c.ppo.gamma; }},
        {"lambda", [](auto &c) -> auto & { return c.ppo.lambda; }},
        {"clip", [](auto &c) -> auto & { return c.ppo.clip; }},
        {"update_passes",
         [](auto &c) -> auto & { return c.ppo.updatePasses; }},
        {"minibatch_size",
         [](auto &c) -> auto & { return c.ppo.minibatchSize; }},
        {"entropy_decay",
         [](auto &c) -> auto & { return c.ppo.entropyDecay; }},
        {"entropy_min", [](auto &c) -> auto & { return c.ppo.entropyMin; }},
        {"value_coef", [](auto &c) -> auto & { return c.ppo.valueCoef; }},
        {"max_grad_norm",
         [](auto &c) -> auto & { return c.ppo.maxGradNorm; }},
        {"hidden", [](auto &c) -> auto & { return c.ppo.hidden; }},
        {"layers", [](auto &c) -> auto & { return c.ppo.layers; }},
        // ----- run control
        {"max_epochs", [](auto &c) -> auto & { return c.maxEpochs; }},
        {"target_accuracy",
         [](auto &c) -> auto & { return c.targetAccuracy; }},
        {"eval_episodes", [](auto &c) -> auto & { return c.evalEpisodes; }},
        {"verbose", [](auto &c) -> auto & { return c.verbose; }},
    };
    return keys;
}

} // namespace

ExplorationConfig
parseExplorationConfig(std::istream &in, const ConfigKeyHandler &extra)
{
    ExplorationConfig cfg;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimConfigToken(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(
                "config: missing '=' on line " + std::to_string(lineno));
        }
        const std::string key = trimConfigToken(line.substr(0, eq));
        const std::string value =
            trimConfigToken(line.substr(eq + 1));

        // Every key family reports errors with the offending line.
        bool handled = false;
        try {
            handled = explorationKeys().apply(cfg, key, value) ||
                      (extra && extra(key, value));
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(std::string(e.what()) +
                                        " on line " +
                                        std::to_string(lineno));
        }
        if (!handled) {
            throw std::invalid_argument("config: unknown option '" + key +
                                        "' on line " +
                                        std::to_string(lineno));
        }
    }

    // Keep the address space large enough for the configured ranges.
    const std::uint64_t needed =
        std::max(cfg.env.attackAddrE, cfg.env.victimAddrE) + 2;
    if (cfg.env.cache.addressSpaceSize < needed)
        cfg.env.cache.addressSpaceSize = needed;
    for (auto &lvl : cfg.env.hierarchy.levels) {
        if (lvl.cache.addressSpaceSize < needed)
            lvl.cache.addressSpaceSize = needed;
    }
    if (cfg.env.channel.tlb.addressSpaceSize < needed)
        cfg.env.channel.tlb.addressSpaceSize = needed;
    return cfg;
}

ExplorationConfig
parseExplorationConfig(const std::string &text,
                       const ConfigKeyHandler &extra)
{
    std::istringstream iss(text);
    return parseExplorationConfig(iss, extra);
}

ExplorationConfig
loadExplorationConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("config: cannot open " + path);
    return parseExplorationConfig(in);
}

std::string
renderExplorationConfig(const ExplorationConfig &cfg)
{
    std::string out;
    explorationKeys().render(cfg, out);
    return out;
}

} // namespace autocat
