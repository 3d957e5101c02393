/**
 * @file
 * Chunked SoA (structure-of-arrays) view of a trace for one block
 * size.
 *
 * Sweep kernels that evaluate many cache configurations sharing one
 * block size re-derive the same per-reference quantities — block
 * number, load/store kind, request size — once per cell.
 * A BlockStream pre-decodes them once per (trace, block size) into
 * contiguous parallel arrays that workers share read-only, so a
 * sweep cell iterates flat arrays in L2-resident chunks instead of
 * pulling each MemRef through the polymorphic per-access hot loop.
 *
 * The decode also records the two trace properties the one-pass
 * sweep guards need (does any reference span a block boundary? are
 * there stores?) so eligibility checks are O(1) instead of another
 * trace walk.
 */

#ifndef MEMBW_TRACE_BLOCK_STREAM_HH
#define MEMBW_TRACE_BLOCK_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace membw {

struct BlockStream
{
    /**
     * References per chunk.  8K references keep the three live decode
     * arrays (~88KB) inside a typical L2 slice while a kernel
     * replays the chunk once per configuration.
     */
    static constexpr std::size_t chunkRefs = std::size_t{1} << 13;

    Bytes blockBytes = 0;
    unsigned blockShift = 0; ///< log2(blockBytes)

    std::size_t refs = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Bytes requestBytes = 0; ///< sum of reference sizes

    /** True iff some reference crosses a block boundary (the direct
     * simulator treats that as fatal; one-pass kernels must too). */
    bool spansBlock = false;

    /** The decode arrays, one entry per reference. */
    std::vector<std::uint64_t> blockNum; ///< addr >> blockShift
    std::vector<std::uint8_t> isStore;   ///< 0 = load, 1 = store
    std::vector<std::uint16_t> size;     ///< request bytes (<= block)
};

/**
 * Decode @p trace once for @p blockBytes (a power of two >=
 * wordBytes).  O(n); the result is immutable and safe to share
 * across sweep workers.
 */
BlockStream buildBlockStream(const Trace &trace, Bytes blockBytes);

} // namespace membw

#endif // MEMBW_TRACE_BLOCK_STREAM_HH
