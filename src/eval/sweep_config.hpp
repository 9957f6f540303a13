/**
 * @file
 * `sweep.*` config-file keys: parse and render a SweepConfig.
 *
 * A sweep file is an ordinary exploration config (every key
 * core/config_parser.hpp documents, serving as the per-cell base)
 * plus the sweep grid and run knobs:
 *
 *     # 3 scenarios x 2 policies = 6 campaign cells
 *     sweep.name             = tableIV-smoke
 *     sweep.scenarios        = l1l2_private, l2_exclusive, three_level
 *     sweep.policies         = lru, plru
 *     sweep.seeds            = 7
 *     sweep.hardware_targets = false
 *     sweep.workers          = 2
 *     sweep.include_timing   = false
 *     sweep.report_json      = sweep_report.json
 *     sweep.report_csv       = sweep_report.csv
 *
 * A sweep may also carry the `phase[N].*` campaign-phase family
 * (core/campaign_config.hpp): non-empty phases turn every grid cell
 * into a curriculum campaign (SweepConfig::phases), which is how the
 * Table VIII/IX detector-bypass rows run — train clean first, then
 * against the detector scenario, with the report's detection-rate
 * column filled from the final campaign evaluation.
 *
 * Parsing layers onto parseExplorationConfig() through its
 * ConfigKeyHandler hook, so the key families share one format,
 * one error style (unknown/malformed keys throw with line numbers),
 * and one renderer round-trip contract: render -> parse -> render is
 * a fixed point.
 */

#ifndef AUTOCAT_EVAL_SWEEP_CONFIG_HPP
#define AUTOCAT_EVAL_SWEEP_CONFIG_HPP

#include <istream>
#include <string>

#include "eval/sweep.hpp"

namespace autocat {

/**
 * Apply one `sweep.*`, `gateway.*` or `phase[N].*` key to @p cfg;
 * returns false for keys outside these families. The drivers apply
 * their CLI flags that mirror a key through here, so a flag is
 * validated exactly like the key in a file.
 *
 * @throws std::invalid_argument for a malformed or out-of-bounds value
 */
bool applySweepConfigKey(SweepConfig &cfg, const std::string &key,
                         const std::string &value);

/**
 * Parse a sweep config (base exploration keys + `sweep.*` keys).
 *
 * @throws std::invalid_argument for unknown or malformed keys
 */
SweepConfig parseSweepConfig(std::istream &in);

/** Parse from a string (convenience for tests). */
SweepConfig parseSweepConfig(const std::string &text);

/** Load from a file path; throws std::runtime_error if unreadable. */
SweepConfig loadSweepConfig(const std::string &path);

/** Render a sweep config back to `key = value` text (round-trips). */
std::string renderSweepConfig(const SweepConfig &config);

} // namespace autocat

#endif // AUTOCAT_EVAL_SWEEP_CONFIG_HPP
