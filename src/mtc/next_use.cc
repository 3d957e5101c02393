#include "mtc/next_use.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/trace_span.hh"

namespace membw {

namespace {

/**
 * The backward walk behind both builders.  When @p deadKeys (room for
 * one word per reference) is given, the first block of each position
 * whose next use is tickInfinity is stored at its end, so the D dead
 * blocks fill deadKeys[n - D, n) in trace order; returns D in @p dead.
 */
std::vector<Tick>
walkBackward(const Trace &trace, Bytes blockBytes, Addr *deadKeys,
             std::size_t &dead)
{
    if (!isPowerOfTwo(blockBytes))
        fatal("next-use granularity must be a power of two");

    MEMBW_SPAN_D("mtc.next_use_build",
                 "block=" + std::to_string(blockBytes) +
                     "B refs=" + std::to_string(trace.size()));

    std::vector<Tick> next(trace.size(), tickInfinity);
    std::unordered_map<Addr, Tick> lastSeen;
    // One entry per distinct block, which can approach one per
    // reference for small blocks over sparse traces.  Reserving for
    // the worst case up front costs at most ~16 bytes per reference
    // of transient bucket space and eliminates the rehash storms
    // (log2(n) full-table rehashes) the old /8 heuristic paid on
    // every large trace.
    lastSeen.reserve(trace.size() + 16);

    // Walk backwards: lastSeen[b] is the next position at which block
    // b is referenced, relative to the position being filled in.  A
    // block the walk has not met yet is never referenced again.
    for (std::size_t i = trace.size(); i-- > 0;) {
        const MemRef &ref = trace[i];
        const Addr first = alignDown(ref.addr, blockBytes);
        const Addr last =
            alignDown(ref.addr + ref.size - 1, blockBytes);

        Tick soonest = tickInfinity;
        for (Addr b = first; b <= last; b += blockBytes) {
            auto [it, fresh] =
                lastSeen.try_emplace(b, static_cast<Tick>(i));
            if (!fresh) {
                soonest = std::min(soonest, it->second);
                it->second = static_cast<Tick>(i);
            }
            if (b == last)
                break; // guard against address-space wrap
        }
        next[i] = soonest;
        if (deadKeys && soonest == tickInfinity)
            deadKeys[trace.size() - ++dead] = first;
    }
    return next;
}

/**
 * Ranks by ascending address of the @p dead distinct blocks at
 * @p keys, all (1 << shift)-aligned.  Real traces touch a dense range
 * (at most 14 blocks of span per distinct block over the SPEC92
 * kernels), so a bitmap over the span counts the blocks below each
 * one: two passes over the keys plus a prefix sum over the bitmap
 * words.  A span of more than 64 blocks per distinct block, past a
 * 4096-word floor, sorts indices instead.
 */
std::vector<std::uint32_t, PageAllocator<std::uint32_t>>
rankByAddress(const Addr *keys, std::size_t dead, unsigned shift)
{
    if (dead > std::numeric_limits<std::uint32_t>::max())
        fatal("next-use table: too many distinct blocks to rank");
    std::vector<std::uint32_t, PageAllocator<std::uint32_t>> rank(dead);
    if (dead == 0)
        return rank;

    const auto [lo, hi] = std::minmax_element(keys, keys + dead);
    const Addr base = *lo;
    const std::uint64_t words = (((*hi - base) >> shift) >> 6) + 1;
    if (words > dead + 4096) {
        PageArray<std::uint32_t> order(dead);
        std::uint32_t *first = order.data();
        std::iota(first, first + dead, std::uint32_t{0});
        std::sort(first, first + dead, [&](std::uint32_t a, std::uint32_t b) {
            return keys[a] < keys[b];
        });
        for (std::size_t r = 0; r < dead; ++r)
            rank[first[r]] = static_cast<std::uint32_t>(r);
        return rank;
    }

    PageArray<std::uint64_t> bits(words); // zero-filled pages
    PageArray<std::uint32_t> below(words);
    for (std::size_t j = 0; j < dead; ++j) {
        const std::uint64_t b = (keys[j] - base) >> shift;
        bits.data()[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
    std::uint32_t sum = 0;
    for (std::size_t w = 0; w < words; ++w) {
        below.data()[w] = sum;
        sum += static_cast<std::uint32_t>(std::popcount(bits.data()[w]));
    }
    for (std::size_t j = 0; j < dead; ++j) {
        const std::uint64_t b = (keys[j] - base) >> shift;
        const std::uint64_t lower =
            bits.data()[b >> 6] & ((std::uint64_t{1} << (b & 63)) - 1);
        rank[j] = below.data()[b >> 6] +
                  static_cast<std::uint32_t>(std::popcount(lower));
    }
    return rank;
}

} // namespace

std::vector<Tick>
buildNextUse(const Trace &trace, Bytes blockBytes)
{
    std::size_t dead = 0;
    return walkBackward(trace, blockBytes, nullptr, dead);
}

NextUseData
buildNextUseData(const Trace &trace, Bytes blockBytes)
{
    // The rank pass's buffers are mapped, not taken from the heap, so
    // building a table leaves the calling thread's heap as the walk
    // alone would (see PageAllocator and docs/performance.md).  The
    // walk fills the dead keys from the back.
    const std::size_t n = trace.size();
    PageArray<Addr> keys(n);
    std::size_t dead = 0;
    NextUseData data;
    data.ticks = walkBackward(trace, blockBytes, keys.data(), dead);
    data.deadRank = rankByAddress(
        keys.data() + (n - dead), dead,
        static_cast<unsigned>(std::countr_zero(blockBytes)));
    return data;
}

NextUseTable
makeNextUseTable(const Trace &trace, Bytes blockBytes)
{
    return std::make_shared<const NextUseData>(
        buildNextUseData(trace, blockBytes));
}

} // namespace membw
