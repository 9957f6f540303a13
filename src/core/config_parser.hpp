/**
 * @file
 * Text-based experiment configuration.
 *
 * The upstream AutoCAT drives experiments from config files; this
 * parser accepts a simple `key = value` format (one option per line,
 * '#' comments) covering every Table II knob plus the PPO
 * hyper-parameters, so explorations can be described without
 * recompiling:
 *
 *     # 4-way LRU set, 0/E victim
 *     num_sets            = 1
 *     num_ways            = 4
 *     rep_policy          = lru
 *     attack_addr_s       = 0
 *     attack_addr_e       = 4
 *     victim_addr_s       = 0
 *     victim_addr_e       = 0
 *     victim_no_access_enable = true
 *     window_size         = 16
 *     step_reward         = -0.01
 *     max_epochs          = 120
 *
 * Each key is one line of an ordered table (core/config_table.hpp)
 * that names it and binds it to its field; parsing and rendering walk
 * the same table, so a new knob is one added line.
 */

#ifndef AUTOCAT_CORE_CONFIG_PARSER_HPP
#define AUTOCAT_CORE_CONFIG_PARSER_HPP

#include <cstdint>
#include <functional>
#include <istream>
#include <string>

#include "core/explore.hpp"

namespace autocat {

/**
 * Extension hook for key families the core parser does not know.
 * Offered every key the core does not consume; return true when the
 * key was handled, false to let the parser reject it as unknown.
 * Throw std::invalid_argument for a recognized-but-malformed key (the
 * parser appends the line number).
 */
using ConfigKeyHandler =
    std::function<bool(const std::string &key, const std::string &value)>;

/**
 * Strict config-value parsers, shared by the core key set and layered
 * key families (eval/sweep_config.cpp). All of them consume the whole
 * value or throw std::invalid_argument naming @p key: "8abc" is not
 * 8, "-1" is not a valid unsigned, and out-of-range values fail as
 * invalid_argument so the parser can attach a line number.
 */
bool parseConfigBool(const std::string &value, const std::string &key);
std::uint64_t parseConfigUint(const std::string &value,
                              const std::string &key);
double parseConfigDouble(const std::string &value, const std::string &key);

/** parseConfigUint narrowed to unsigned; overflow fails loudly
 *  instead of wrapping. */
unsigned parseConfigU32(const std::string &value, const std::string &key);

/** parseConfigUint narrowed to a non-negative int. */
int parseConfigInt(const std::string &value, const std::string &key);

/** Strip leading/trailing config whitespace (spaces, tabs, CR). */
std::string trimConfigToken(const std::string &s);

/**
 * Shortest round-trip double rendering: the text re-parses to the
 * exact same double and the decimal point is locale-independent.
 * Shared by every renderer so all key families round-trip alike.
 */
std::string renderConfigDouble(double v);

/**
 * Parse an exploration config from `key = value` text.
 *
 * Unknown keys raise std::invalid_argument (typos should fail loudly,
 * not silently fall back to defaults). @p extra, when given, extends
 * the key set — e.g. eval/sweep_config.hpp layers the `sweep.*`
 * family on top.
 */
ExplorationConfig parseExplorationConfig(std::istream &in,
                                         const ConfigKeyHandler &extra = {});

/** Parse from a string (convenience for tests). */
ExplorationConfig parseExplorationConfig(const std::string &text,
                                         const ConfigKeyHandler &extra = {});

/** Load from a file path; throws std::runtime_error if unreadable. */
ExplorationConfig loadExplorationConfig(const std::string &path);

/** Render a config back to the key = value format (round-trips). */
std::string renderExplorationConfig(const ExplorationConfig &config);

} // namespace autocat

#endif // AUTOCAT_CORE_CONFIG_PARSER_HPP
