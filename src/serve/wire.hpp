/**
 * @file
 * Cell-runner wire format: a SweepCell travels to a worker process as
 * a self-contained *job blob*, and the finished SweepCellResult comes
 * back as a *row blob*.
 *
 * Both blobs are single util/binio sections — 8-byte magic, u32
 * format version, length-prefixed payload, trailing FNV-1a checksum —
 * so a truncated, bit-flipped, or wrong-kind file is rejected with a
 * distinct error instead of silently corrupting a report, exactly
 * like rl/checkpoint files.
 *
 * The job payload embeds the cell's resolved configuration as
 * rendered config text (core/config_parser.hpp +
 * core/campaign_config.hpp `phase[N].*` lines), deliberately reusing
 * the render -> parse fixed-point contract: the wire inherits the
 * full config surface, one serializer instead of two, and a job blob
 * is human-recoverable with `strings`. A config field only reaches a
 * remote worker if the renderer emits it — renderer coverage IS wire
 * coverage, which test_dist pins.
 *
 * The row payload is binary field-by-field (metrics, the attack
 * sequence, the category label) plus the cell index so the scheduler
 * can verify a row against the slot it claims to fill.
 */

#ifndef AUTOCAT_SERVE_WIRE_HPP
#define AUTOCAT_SERVE_WIRE_HPP

#include <string>

#include "eval/sweep.hpp"

namespace autocat {

/**
 * Current job-blob format version (v2 added the cell agent; v3 dropped
 * the double-buffered collection key, which the parser now rejects).
 */
constexpr std::uint32_t kCellJobVersion = 3;

/** Current row-blob format version (v2 added steps-to-discovery). */
constexpr std::uint32_t kCellRowVersion = 2;

/** Serialize a sweep cell into a self-contained job blob. */
std::string serializeCellJob(const SweepCell &cell);

/**
 * Parse a job blob back into a cell.
 *
 * @throws std::runtime_error for bad magic / version / truncation /
 *         checksum, std::invalid_argument for config text that does
 *         not parse (a version-skewed runner fails loudly)
 */
SweepCell deserializeCellJob(const std::string &bytes);

/**
 * Serialize a finished cell's outcome. Only the outcome fields and
 * the cell index travel: the scheduler owns the cell description and
 * re-attaches it on receipt.
 */
std::string serializeCellRow(const SweepCellResult &row);

/**
 * Parse a row blob. The returned result carries the outcome fields
 * and `cell.index`; every other cell field is default-initialized.
 *
 * @throws std::runtime_error for a corrupt or version-skewed blob
 */
SweepCellResult deserializeCellRow(const std::string &bytes);

} // namespace autocat

#endif // AUTOCAT_SERVE_WIRE_HPP
