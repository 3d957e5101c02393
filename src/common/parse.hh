/**
 * @file
 * Checked scalar parsing for command-line flag values.
 *
 * The tools originally used atoi/atof/strtod directly, which silently
 * accept garbage ("--scale 1.5x" parsed as 1.5, "--assoc foo" as 0)
 * — precisely the "subtly invalid config" failure mode that kills a
 * sweep hours in.  These helpers validate the whole token and return
 * a classified Result so the caller can name the flag, the offending
 * value, and the reason in one fatal diagnostic.
 */

#ifndef MEMBW_COMMON_PARSE_HH
#define MEMBW_COMMON_PARSE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"

namespace membw {

/**
 * Hard ceiling for --jobs worker counts.  Sweep cells are
 * memory-bound; beyond this every extra thread is pure
 * oversubscription (stacks + scheduler churn, no throughput), so the
 * parser rejects larger requests outright rather than letting a
 * typo'd "--jobs 40000" take down the host.
 */
inline constexpr unsigned maxParallelJobs = 256;

/**
 * Parse a byte size: a positive number with an optional K/M/G suffix
 * (optionally followed by 'B'), e.g. "64K", "1M", "8192", "1.5MB".
 * Rejects trailing garbage, non-positive values, and sizes that would
 * overflow a 64-bit byte count.
 */
Result<Bytes> tryParseSize(const std::string &text);

/** Parse a whole non-negative decimal integer; rejects garbage. */
Result<std::uint64_t> tryParseU64(const std::string &text);

/**
 * Parse a whole decimal integer in [@p min, @p max]; rejects garbage
 * and out-of-range values with a message naming the allowed range.
 */
Result<std::int64_t> tryParseInt(const std::string &text,
                                 std::int64_t min, std::int64_t max);

/** Parse a finite double; rejects garbage, NaN, and infinity. */
Result<double> tryParseDouble(const std::string &text);

/**
 * Check a trace-length scale: finite and > 0.  Generators multiply
 * their reference target by it and convert the product to an
 * unsigned count: zero simulates nothing and a negative product is
 * undefined behaviour.  The text form also rejects what
 * tryParseDouble() rejects.
 */
Result<double> tryParseScale(double value);
Result<double> tryParseScale(const std::string &text);

/**
 * Parse a --jobs worker count: an integer in [1, maxParallelJobs].
 * 0 ("run nothing"?) and oversubscribed counts are classified
 * errors, so every tool reports them identically.
 */
Result<unsigned> tryParseJobs(const std::string &text);

/**
 * Parse a Table 5 experiment name: exactly one upper-case letter
 * A-F.  membw_decompose and the daemon's decompose requests both
 * go through this, so "BOGUS" or "f" fail the same way everywhere.
 */
Result<char> tryParseExperiment(const std::string &text);

/**
 * Parse a comma-separated list of byte sizes ("1K,64K,2M"), each
 * validated by tryParseSize; rejects empty lists/elements.
 */
Result<std::vector<Bytes>> tryParseSizeList(const std::string &text);

} // namespace membw

#endif // MEMBW_COMMON_PARSE_HH
