/**
 * @file
 * Binary save/load for traces so long workload generations can be
 * cached between tool invocations.
 *
 * There is one on-disk format ("MBWT", version 2): a 16-byte header
 * (magic, version, record count) followed by one varint-compact
 * record per reference — a zigzag word-delta from the previous
 * address with the store bit folded in, or, for the rare reference
 * that is not one aligned word, the raw address and size.  SPEC-like
 * traces take ~2.4 bytes per reference.
 *
 * Loading is hardened against untrusted bytes: the parser works over
 * an in-memory image with every read bounds-checked, classifies
 * failures (bad magic / unsupported version / truncation / corrupt
 * records / implausible sizes) through the common Result layer, and
 * never allocates more than the file itself could describe — a
 * truncated or hostile record count is rejected *before* any
 * allocation.  parseTrace() is the raw entry point and is fuzzed
 * directly (tests/fuzz/trace_fuzz.cc).
 */

#ifndef MEMBW_TRACE_TRACE_IO_HH
#define MEMBW_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>

#include "common/result.hh"
#include "trace/trace.hh"

namespace membw {

/** Largest single-reference size the loader accepts, in bytes. */
constexpr Bytes maxTraceRefBytes = 4096;

/**
 * Write @p trace to @p path in the membw binary format
 * (magic "MBWT", version 2, count, then compact records).
 * Throws FatalError on I/O failure.
 */
void saveTrace(const Trace &trace, const std::string &path);

/**
 * Parse a trace image from memory.  @p origin names the source in
 * diagnostics (a path, or "<fuzz>").  Never throws on bad bytes;
 * returns a classified Error instead.
 */
Result<Trace> parseTrace(const std::uint8_t *data, std::size_t size,
                         const std::string &origin);

/** Read @p path and parse it; classified Error on failure. */
Result<Trace> tryLoadTrace(const std::string &path);

/**
 * Read a trace previously written by saveTrace().
 * Boundary wrapper over tryLoadTrace(): throws FatalError carrying
 * the classified reason.
 */
Trace loadTrace(const std::string &path);

/**
 * CRC-32 over the trace's logical content (addr/size/kind per
 * reference), independent of the on-disk encoding.  Checkpoints
 * store it so --resume can prove it is replaying the same input.
 */
std::uint32_t traceCrc32(const Trace &trace);

} // namespace membw

#endif // MEMBW_TRACE_TRACE_IO_HH
