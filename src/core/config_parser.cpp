#include "core/config_parser.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

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

namespace {

/** Hierarchy depth cap for the config surface (sanity bound). */
constexpr unsigned kMaxHierarchyLevels = 8;

/**
 * Apply a "hierarchy." key: either hierarchy.num_cores or a
 * hierarchy.levels[K].field entry, where field is one of num_sets /
 * num_ways / rep_policy / prefetcher / random_set_mapping /
 * address_space / seed / inclusion / shared. The levels list grows on
 * demand so levels may be configured in any order.
 */
void
applyHierarchyKey(ExplorationConfig &cfg, const std::string &key,
                  const std::string &value)
{
    HierarchyConfig &h = cfg.env.hierarchy;
    if (key == "hierarchy.num_cores") {
        h.numCores = parseConfigU32(value, key);
        return;
    }

    const std::string prefix = "hierarchy.levels[";
    const auto close = key.find(']');
    if (key.compare(0, prefix.size(), prefix) != 0 ||
        close == std::string::npos || close + 1 >= key.size() ||
        key[close + 1] != '.') {
        throw std::invalid_argument("config: unknown option '" + key +
                                    "'");
    }

    // Strict index parse: "0z" must not silently parse as level 0.
    const std::uint64_t idx = parseConfigUint(
        key.substr(prefix.size(), close - prefix.size()), key);
    if (idx >= kMaxHierarchyLevels) {
        throw std::invalid_argument(
            "config: hierarchy level index out of range in '" + key +
            "'");
    }
    if (h.levels.size() <= idx)
        h.levels.resize(idx + 1);
    HierarchyLevelConfig &lvl = h.levels[idx];

    const std::string field = key.substr(close + 2);
    if (field == "num_sets")
        lvl.cache.numSets = parseConfigU32(value, key);
    else if (field == "num_ways")
        lvl.cache.numWays = parseConfigU32(value, key);
    else if (field == "rep_policy")
        lvl.cache.policy = replPolicyFromString(value);
    else if (field == "prefetcher")
        lvl.cache.prefetcher = prefetcherFromString(value);
    else if (field == "random_set_mapping")
        lvl.cache.randomSetMapping = parseConfigBool(value, key);
    else if (field == "address_space")
        lvl.cache.addressSpaceSize = parseConfigUint(value, key);
    else if (field == "seed")
        lvl.cache.seed = parseConfigUint(value, key);
    else if (field == "inclusion")
        lvl.inclusion = inclusionFromString(value);
    else if (field == "shared")
        lvl.shared = parseConfigBool(value, key);
    else
        throw std::invalid_argument("config: unknown hierarchy field '" +
                                    field + "' in '" + key + "'");
}

/**
 * Apply a "tlb." key: the TLB channel's geometry / walk parameters
 * (only the tlb_evict scenario reads them, but the keys parse and
 * round-trip regardless of scenario).
 */
void
applyTlbKey(ExplorationConfig &cfg, const std::string &key,
            const std::string &value)
{
    TlbConfig &t = cfg.env.channel.tlb;
    const std::string field = key.substr(4);
    if (field == "num_sets")
        t.numSets = parseConfigU32(value, key);
    else if (field == "num_ways")
        t.numWays = parseConfigU32(value, key);
    else if (field == "rep_policy")
        t.policy = replPolicyFromString(value);
    else if (field == "walk_levels")
        t.walkLevels = parseConfigU32(value, key);
    else if (field == "level_bits")
        t.levelBits = parseConfigU32(value, key);
    else if (field == "pwc_sets")
        t.pwcSets = parseConfigU32(value, key);
    else if (field == "pwc_ways")
        t.pwcWays = parseConfigU32(value, key);
    else if (field == "address_space")
        t.addressSpaceSize = parseConfigUint(value, key);
    else if (field == "seed")
        t.seed = parseConfigUint(value, key);
    else
        throw std::invalid_argument("config: unknown tlb field '" +
                                    field + "' in '" + key + "'");
}

/**
 * Apply a "channel." key: the prefetch_probe victim burst shape.
 */
void
applyChannelKey(ExplorationConfig &cfg, const std::string &key,
                const std::string &value)
{
    ChannelConfig &c = cfg.env.channel;
    const std::string field = key.substr(8);
    if (field == "prefetch_burst_len")
        c.prefetchBurstLen = parseConfigU32(value, key);
    else if (field == "prefetch_burst_base")
        c.prefetchBurstBase = parseConfigUint(value, key);
    else
        throw std::invalid_argument("config: unknown channel field '" +
                                    field + "' in '" + key + "'");
}

} // namespace

ExplorationConfig
parseExplorationConfig(std::istream &in, const ConfigKeyHandler &extra)
{
    ExplorationConfig cfg;

    using Setter = std::function<void(const std::string &)>;
    const std::map<std::string, Setter> setters = {
        // ----- cache configuration (Table II)
        {"num_sets",
         [&](const std::string &v) {
             cfg.env.cache.numSets = parseConfigU32(v, "num_sets");
         }},
        {"num_ways",
         [&](const std::string &v) {
             cfg.env.cache.numWays = parseConfigU32(v, "num_ways");
         }},
        {"rep_policy",
         [&](const std::string &v) {
             cfg.env.cache.policy = replPolicyFromString(v);
         }},
        {"prefetcher",
         [&](const std::string &v) {
             cfg.env.cache.prefetcher = prefetcherFromString(v);
         }},
        {"random_set_mapping",
         [&](const std::string &v) {
             cfg.env.cache.randomSetMapping =
                 parseConfigBool(v, "random_set_mapping");
         }},
        {"address_space",
         [&](const std::string &v) {
             cfg.env.cache.addressSpaceSize =
                 parseConfigUint(v, "address_space");
         }},
        {"cache_seed",
         [&](const std::string &v) {
             cfg.env.cache.seed = parseConfigUint(v, "cache_seed");
         }},
        // ----- attack & victim configuration (Table II)
        {"attack_addr_s",
         [&](const std::string &v) {
             cfg.env.attackAddrS = parseConfigUint(v, "attack_addr_s");
         }},
        {"attack_addr_e",
         [&](const std::string &v) {
             cfg.env.attackAddrE = parseConfigUint(v, "attack_addr_e");
         }},
        {"victim_addr_s",
         [&](const std::string &v) {
             cfg.env.victimAddrS = parseConfigUint(v, "victim_addr_s");
         }},
        {"victim_addr_e",
         [&](const std::string &v) {
             cfg.env.victimAddrE = parseConfigUint(v, "victim_addr_e");
         }},
        {"flush_enable",
         [&](const std::string &v) {
             cfg.env.flushEnable = parseConfigBool(v, "flush_enable");
         }},
        {"victim_no_access_enable",
         [&](const std::string &v) {
             cfg.env.victimNoAccessEnable =
                 parseConfigBool(v, "victim_no_access_enable");
         }},
        {"detection_enable",
         [&](const std::string &v) {
             cfg.env.detectionEnable =
                 parseConfigBool(v, "detection_enable");
         }},
        {"pl_cache_lock_victim",
         [&](const std::string &v) {
             cfg.env.plCacheLockVictim =
                 parseConfigBool(v, "pl_cache_lock_victim");
         }},
        {"require_trigger_before_guess",
         [&](const std::string &v) {
             cfg.env.requireTriggerBeforeGuess =
                 parseConfigBool(v, "require_trigger_before_guess");
         }},
        // ----- episode / RL configuration (Table II)
        {"window_size",
         [&](const std::string &v) {
             cfg.env.windowSize = parseConfigU32(v, "window_size");
         }},
        {"episode_length_limit",
         [&](const std::string &v) {
             cfg.env.episodeLengthLimit =
                 parseConfigU32(v, "episode_length_limit");
         }},
        {"multi_secret",
         [&](const std::string &v) {
             cfg.env.multiSecret = parseConfigBool(v, "multi_secret");
         }},
        {"multi_secret_episode_steps",
         [&](const std::string &v) {
             cfg.env.multiSecretEpisodeSteps =
                 parseConfigU32(v, "multi_secret_episode_steps");
         }},
        {"reveal_on_guess",
         [&](const std::string &v) {
             cfg.env.revealOnGuess =
                 parseConfigBool(v, "reveal_on_guess");
         }},
        {"random_init",
         [&](const std::string &v) {
             cfg.env.randomInit = parseConfigBool(v, "random_init");
         }},
        {"init_accesses",
         [&](const std::string &v) {
             cfg.env.initAccesses = parseConfigU32(v, "init_accesses");
         }},
        {"correct_guess_reward",
         [&](const std::string &v) {
             cfg.env.correctGuessReward =
                 parseConfigDouble(v, "correct_guess_reward");
         }},
        {"wrong_guess_reward",
         [&](const std::string &v) {
             cfg.env.wrongGuessReward =
                 parseConfigDouble(v, "wrong_guess_reward");
         }},
        {"step_reward",
         [&](const std::string &v) {
             cfg.env.stepReward = parseConfigDouble(v, "step_reward");
         }},
        {"length_violation_reward",
         [&](const std::string &v) {
             cfg.env.lengthViolationReward =
                 parseConfigDouble(v, "length_violation_reward");
         }},
        {"detection_reward",
         [&](const std::string &v) {
             cfg.env.detectionReward =
                 parseConfigDouble(v, "detection_reward");
         }},
        {"no_guess_reward",
         [&](const std::string &v) {
             cfg.env.noGuessReward =
                 parseConfigDouble(v, "no_guess_reward");
         }},
        // ----- sample-efficiency layer
        {"mask_actions",
         [&](const std::string &v) {
             cfg.env.maskActions = parseConfigBool(v, "mask_actions");
         }},
        {"mask_useless_actions",
         [&](const std::string &v) {
             cfg.env.maskUselessActions =
                 parseConfigBool(v, "mask_useless_actions");
         }},
        {"useless_action_penalty",
         [&](const std::string &v) {
             cfg.env.uselessActionPenalty =
                 parseConfigDouble(v, "useless_action_penalty");
         }},
        {"seed",
         [&](const std::string &v) {
             cfg.env.seed = parseConfigUint(v, "seed");
         }},
        // ----- PPO hyper-parameters
        {"ppo_seed",
         [&](const std::string &v) {
             cfg.ppo.seed = parseConfigUint(v, "ppo_seed");
         }},
        {"steps_per_epoch",
         [&](const std::string &v) {
             cfg.ppo.stepsPerEpoch = parseConfigInt(v, "steps_per_epoch");
         }},
        {"learning_rate",
         [&](const std::string &v) {
             cfg.ppo.lr = parseConfigDouble(v, "learning_rate");
         }},
        {"entropy_coef",
         [&](const std::string &v) {
             cfg.ppo.entropyCoef = parseConfigDouble(v, "entropy_coef");
         }},
        {"gamma",
         [&](const std::string &v) {
             cfg.ppo.gamma = parseConfigDouble(v, "gamma");
         }},
        {"lambda",
         [&](const std::string &v) {
             cfg.ppo.lambda = parseConfigDouble(v, "lambda");
         }},
        {"clip",
         [&](const std::string &v) {
             cfg.ppo.clip = parseConfigDouble(v, "clip");
         }},
        {"update_passes",
         [&](const std::string &v) {
             cfg.ppo.updatePasses = parseConfigInt(v, "update_passes");
         }},
        {"minibatch_size",
         [&](const std::string &v) {
             cfg.ppo.minibatchSize = parseConfigInt(v, "minibatch_size");
         }},
        {"entropy_decay",
         [&](const std::string &v) {
             cfg.ppo.entropyDecay = parseConfigDouble(v, "entropy_decay");
         }},
        {"entropy_min",
         [&](const std::string &v) {
             cfg.ppo.entropyMin = parseConfigDouble(v, "entropy_min");
         }},
        {"value_coef",
         [&](const std::string &v) {
             cfg.ppo.valueCoef = parseConfigDouble(v, "value_coef");
         }},
        {"max_grad_norm",
         [&](const std::string &v) {
             cfg.ppo.maxGradNorm = parseConfigDouble(v, "max_grad_norm");
         }},
        {"hidden",
         [&](const std::string &v) {
             cfg.ppo.hidden = parseConfigUint(v, "hidden");
         }},
        {"layers",
         [&](const std::string &v) {
             cfg.ppo.layers = parseConfigUint(v, "layers");
         }},
        // ----- exploration control
        {"scenario",
         [&](const std::string &v) { cfg.scenario = v; }},
        {"num_streams",
         [&](const std::string &v) {
             cfg.numStreams = parseConfigInt(v, "num_streams");
         }},
        {"threaded_envs",
         [&](const std::string &v) {
             cfg.threadedEnvs = parseConfigBool(v, "threaded_envs");
         }},
        {"batch_env",
         [&](const std::string &v) {
             cfg.batchEnv = parseConfigBool(v, "batch_env");
         }},
        {"max_epochs",
         [&](const std::string &v) {
             cfg.maxEpochs = parseConfigInt(v, "max_epochs");
         }},
        {"target_accuracy",
         [&](const std::string &v) {
             cfg.targetAccuracy = parseConfigDouble(v, "target_accuracy");
         }},
        {"eval_episodes",
         [&](const std::string &v) {
             cfg.evalEpisodes = parseConfigInt(v, "eval_episodes");
         }},
        {"verbose",
         [&](const std::string &v) {
             cfg.verbose = parseConfigBool(v, "verbose");
         }},
    };

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
        const auto with_line = [&](const auto &apply) {
            try {
                apply();
            } catch (const std::invalid_argument &e) {
                throw std::invalid_argument(std::string(e.what()) +
                                            " on line " +
                                            std::to_string(lineno));
            }
        };

        const auto it = setters.find(key);
        if (it != setters.end()) {
            with_line([&] { it->second(value); });
        } else if (key.compare(0, 10, "hierarchy.") == 0) {
            with_line([&] { applyHierarchyKey(cfg, key, value); });
        } else if (key.compare(0, 4, "tlb.") == 0) {
            with_line([&] { applyTlbKey(cfg, key, value); });
        } else if (key.compare(0, 8, "channel.") == 0) {
            with_line([&] { applyChannelKey(cfg, key, value); });
        } else {
            bool handled = false;
            if (extra)
                with_line([&] { handled = extra(key, value); });
            if (!handled) {
                throw std::invalid_argument("config: unknown option '" +
                                            key + "' on line " +
                                            std::to_string(lineno));
            }
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
    // The one free-form string this renderer emits: '#' starts a
    // comment anywhere in a line, '\n' would inject a config line, and
    // values are whitespace-trimmed on parse, so such a scenario name
    // would silently re-parse changed instead of round-tripping.
    if (cfg.scenario.find_first_of("#\n") != std::string::npos ||
        cfg.scenario != trimConfigToken(cfg.scenario)) {
        throw std::invalid_argument(
            "renderExplorationConfig: scenario name is not "
            "representable in the config format: '" + cfg.scenario + "'");
    }

    std::ostringstream out;
    out << "num_sets = " << cfg.env.cache.numSets << "\n"
        << "num_ways = " << cfg.env.cache.numWays << "\n"
        << "rep_policy = " << replPolicyName(cfg.env.cache.policy) << "\n"
        << "prefetcher = " << prefetcherName(cfg.env.cache.prefetcher)
        << "\n"
        << "random_set_mapping = "
        << (cfg.env.cache.randomSetMapping ? "true" : "false") << "\n"
        << "address_space = " << cfg.env.cache.addressSpaceSize << "\n"
        << "cache_seed = " << cfg.env.cache.seed << "\n"
        << "attack_addr_s = " << cfg.env.attackAddrS << "\n"
        << "attack_addr_e = " << cfg.env.attackAddrE << "\n"
        << "victim_addr_s = " << cfg.env.victimAddrS << "\n"
        << "victim_addr_e = " << cfg.env.victimAddrE << "\n"
        << "flush_enable = " << (cfg.env.flushEnable ? "true" : "false")
        << "\n"
        << "victim_no_access_enable = "
        << (cfg.env.victimNoAccessEnable ? "true" : "false") << "\n"
        << "detection_enable = "
        << (cfg.env.detectionEnable ? "true" : "false") << "\n"
        << "pl_cache_lock_victim = "
        << (cfg.env.plCacheLockVictim ? "true" : "false") << "\n"
        << "require_trigger_before_guess = "
        << (cfg.env.requireTriggerBeforeGuess ? "true" : "false") << "\n"
        << "window_size = " << cfg.env.windowSize << "\n"
        << "episode_length_limit = " << cfg.env.episodeLengthLimit << "\n";
    if (!cfg.env.hierarchy.levels.empty()) {
        out << "hierarchy.num_cores = " << cfg.env.hierarchy.numCores
            << "\n";
        for (std::size_t k = 0; k < cfg.env.hierarchy.levels.size();
             ++k) {
            const HierarchyLevelConfig &lvl = cfg.env.hierarchy.levels[k];
            const std::string p =
                "hierarchy.levels[" + std::to_string(k) + "].";
            out << p << "num_sets = " << lvl.cache.numSets << "\n"
                << p << "num_ways = " << lvl.cache.numWays << "\n"
                << p << "rep_policy = " << replPolicyName(lvl.cache.policy)
                << "\n"
                << p << "prefetcher = "
                << prefetcherName(lvl.cache.prefetcher) << "\n"
                << p << "random_set_mapping = "
                << (lvl.cache.randomSetMapping ? "true" : "false") << "\n"
                << p << "address_space = " << lvl.cache.addressSpaceSize
                << "\n"
                << p << "seed = " << lvl.cache.seed << "\n"
                << p << "inclusion = " << inclusionName(lvl.inclusion)
                << "\n"
                << p << "shared = " << (lvl.shared ? "true" : "false")
                << "\n";
        }
    }
    const TlbConfig &tlb = cfg.env.channel.tlb;
    out << "tlb.num_sets = " << tlb.numSets << "\n"
        << "tlb.num_ways = " << tlb.numWays << "\n"
        << "tlb.rep_policy = " << replPolicyName(tlb.policy) << "\n"
        << "tlb.walk_levels = " << tlb.walkLevels << "\n"
        << "tlb.level_bits = " << tlb.levelBits << "\n"
        << "tlb.pwc_sets = " << tlb.pwcSets << "\n"
        << "tlb.pwc_ways = " << tlb.pwcWays << "\n"
        << "tlb.address_space = " << tlb.addressSpaceSize << "\n"
        << "tlb.seed = " << tlb.seed << "\n"
        << "channel.prefetch_burst_len = "
        << cfg.env.channel.prefetchBurstLen << "\n"
        << "channel.prefetch_burst_base = "
        << cfg.env.channel.prefetchBurstBase << "\n";
    out
        << "multi_secret = "
        << (cfg.env.multiSecret ? "true" : "false") << "\n"
        << "multi_secret_episode_steps = "
        << cfg.env.multiSecretEpisodeSteps << "\n"
        << "reveal_on_guess = "
        << (cfg.env.revealOnGuess ? "true" : "false") << "\n"
        << "random_init = " << (cfg.env.randomInit ? "true" : "false")
        << "\n"
        << "init_accesses = " << cfg.env.initAccesses << "\n"
        << "correct_guess_reward = " << renderConfigDouble(cfg.env.correctGuessReward)
        << "\n"
        << "wrong_guess_reward = " << renderConfigDouble(cfg.env.wrongGuessReward)
        << "\n"
        << "step_reward = " << renderConfigDouble(cfg.env.stepReward) << "\n"
        << "length_violation_reward = "
        << renderConfigDouble(cfg.env.lengthViolationReward) << "\n"
        << "detection_reward = " << renderConfigDouble(cfg.env.detectionReward)
        << "\n"
        << "no_guess_reward = " << renderConfigDouble(cfg.env.noGuessReward)
        << "\n"
        << "mask_actions = " << (cfg.env.maskActions ? "true" : "false")
        << "\n"
        << "mask_useless_actions = "
        << (cfg.env.maskUselessActions ? "true" : "false") << "\n"
        << "useless_action_penalty = "
        << renderConfigDouble(cfg.env.uselessActionPenalty) << "\n"
        << "seed = " << cfg.env.seed << "\n"
        << "scenario = " << cfg.scenario << "\n"
        << "num_streams = " << cfg.numStreams << "\n"
        << "threaded_envs = " << (cfg.threadedEnvs ? "true" : "false")
        << "\n"
        << "batch_env = " << (cfg.batchEnv ? "true" : "false") << "\n"
        << "ppo_seed = " << cfg.ppo.seed << "\n"
        << "steps_per_epoch = " << cfg.ppo.stepsPerEpoch << "\n"
        << "learning_rate = " << renderConfigDouble(cfg.ppo.lr) << "\n"
        << "entropy_coef = " << renderConfigDouble(cfg.ppo.entropyCoef) << "\n"
        << "gamma = " << renderConfigDouble(cfg.ppo.gamma) << "\n"
        << "lambda = " << renderConfigDouble(cfg.ppo.lambda) << "\n"
        << "clip = " << renderConfigDouble(cfg.ppo.clip) << "\n"
        << "update_passes = " << cfg.ppo.updatePasses << "\n"
        << "minibatch_size = " << cfg.ppo.minibatchSize << "\n"
        << "entropy_decay = " << renderConfigDouble(cfg.ppo.entropyDecay)
        << "\n"
        << "entropy_min = " << renderConfigDouble(cfg.ppo.entropyMin)
        << "\n"
        << "value_coef = " << renderConfigDouble(cfg.ppo.valueCoef) << "\n"
        << "max_grad_norm = " << renderConfigDouble(cfg.ppo.maxGradNorm)
        << "\n"
        << "hidden = " << cfg.ppo.hidden << "\n"
        << "layers = " << cfg.ppo.layers << "\n"
        << "max_epochs = " << cfg.maxEpochs << "\n"
        << "target_accuracy = " << renderConfigDouble(cfg.targetAccuracy) << "\n"
        << "eval_episodes = " << cfg.evalEpisodes << "\n"
        << "verbose = " << (cfg.verbose ? "true" : "false") << "\n";
    return out.str();
}

} // namespace autocat
