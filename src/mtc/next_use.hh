/**
 * @file
 * Forward "next use" side table for Belady MIN simulation.
 *
 * Pass one of the two-pass MTC simulation (Section 5.2): for every
 * trace position i, the tick of the next reference to the same
 * aligned block (at a caller-chosen block granularity), or
 * tickInfinity when the block is never referenced again.
 */

#ifndef MEMBW_MTC_NEXT_USE_HH
#define MEMBW_MTC_NEXT_USE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/page_allocator.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace membw {

/**
 * Per-position next-use ticks for @p trace at @p blockBytes
 * granularity.  References that span two blocks (which QPT-style
 * word traces never do) take the earlier of the two next-uses.
 */
std::vector<Tick> buildNextUse(const Trace &trace, Bytes blockBytes);

/**
 * Pass one's output for one (trace, block granularity) pair: what a
 * MinCacheSim needs to order its victims without a heap.
 */
struct NextUseData
{
    /** Per-position next-use ticks, as buildNextUse() returns them. */
    std::vector<Tick> ticks;

    /**
     * One entry per "dead" position, a position whose tick is
     * tickInfinity, in trace order: the rank of the block that
     * position references (its first block, if it spans two) among
     * the blocks of all dead positions, by ascending address.  A dead
     * position is its block's last reference, so no two share a
     * block: the ranks are a permutation of 0..D-1, and D is the
     * number of distinct blocks when no reference spans a boundary.
     * Mapped rather than heap-allocated (see PageAllocator).
     */
    std::vector<std::uint32_t, PageAllocator<std::uint32_t>> deadRank;
};

/**
 * Shareable next-use table.  Every MTC cell of a sweep that uses the
 * same (trace, block granularity) pair needs the same table; build it
 * once with makeNextUseTable() and hand the same handle to each
 * MinCacheSim so pass one runs once per sweep instead of once per
 * cell.  The table is complete when built and never written again,
 * so cells on different threads may share it.
 */
using NextUseTable = std::shared_ptr<const NextUseData>;

/** Build the ticks and dead ranks in one backward pass. */
NextUseData buildNextUseData(const Trace &trace, Bytes blockBytes);

/** Build a shareable next-use table (see buildNextUseData()). */
NextUseTable makeNextUseTable(const Trace &trace, Bytes blockBytes);

} // namespace membw

#endif // MEMBW_MTC_NEXT_USE_HH
