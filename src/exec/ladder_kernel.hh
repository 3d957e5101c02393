/**
 * @file
 * Internal ladder-kernel machinery of ladder_sweep.cc.  Not installed
 * API — tools and tests go through ladder_sweep.hh.
 *
 * The kernel body lives here as a function template monomorphized on
 * three axes:
 *
 *  - W        — the way count baked in at compile time for the hot
 *               geometries (1, 2, 4, 8; 0 keeps it a runtime value),
 *  - ReadList — whether it replays a chunk's survivor list instead
 *               of the whole chunk (a filter-cascade config after
 *               the first; see ladder_sweep.hh),
 *  - Emit     — whether it writes the survivor list for the next
 *               config of its cascade.
 *
 * selectKernel() maps a point to one stamped-out instantiation,
 * chosen once per configuration so the per-chunk call is a single
 * indirect jump to straight-line code.
 * Every instantiation evicts the same blocks as Cache and keeps the
 * same counters, which is what lets the equivalence tests demand
 * byte-equal results across way specializations.
 */

#ifndef MEMBW_EXEC_LADDER_KERNEL_HH
#define MEMBW_EXEC_LADDER_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "trace/block_stream.hh"

namespace membw {
namespace ladder {

/** Empty tag sentinel: block numbers are addr >> log2(block) with
 * block >= 4B, so ~0 can never collide with a real block number. */
constexpr std::uint64_t tagInvalid = ~std::uint64_t{0};

/** Tag probe: the position w < n of block @p bn in a
 * recency-ordered row of (tag << 1) | dirty words, or n when absent.
 * tagInvalid >> 1 exceeds every block number, so empty slots never
 * match.  A plain scan suffices: the kernel's cost is the set row it
 * touches, not the compares. */
inline unsigned
findBlock(const std::uint64_t *row, unsigned n, std::uint64_t bn)
{
    for (unsigned w = 0; w < n; ++w)
        if ((row[w] >> 1) == bn)
            return w;
    return n;
}

/** Move-to-front: shift row[0..w) back one slot and store @p word at
 * row[0], the MRU position.  Overwrites row[w]. */
inline void
promote(std::uint64_t *row, unsigned w, std::uint64_t word)
{
    for (; w > 0; --w)
        row[w] = row[w - 1];
    row[0] = word;
}

struct ConfigSim;

/**
 * The references one kernel call replays: all of [begin, end), or,
 * for a ReadList kernel, only the listLen survivors whose offsets
 * from begin are in list.  An Emit kernel overwrites list in place
 * with the offsets of the references it did not skip and sets
 * listLen to their count, so one buffer carries a chunk down a whole
 * cascade.
 */
struct ChunkRefs
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint16_t *list = nullptr;
    std::size_t listLen = 0;
};

/** One monomorphized chunk kernel (selected by selectKernel). */
using ChunkKernel = void (*)(ConfigSim &, const BlockStream &,
                             ChunkRefs &);

/**
 * Flat-array replica of one Cache, specialized for the ladder
 * regime (LRU, no sector/stream/prefetch/write-validate).  Rows are
 * 64B-aligned.  A set is `ways` words of (tag << 1) | dirty in
 * recency order — row[0] is the MRU line, invalid slots (tagInvalid)
 * always sit at the tail.  A hit moves its line to row[0]; a miss
 * evicts row[n-1] and inserts at row[0].  This evicts exactly the
 * block Cache does: Cache picks the first invalid way, or else the
 * unique lowest lastUse, and in recency order both are row[n-1] (an
 * invalid tail slot exists iff the set is not full).  The counters
 * depend only on which block leaves, never on the way it sat in, so
 * they match Cache::access()/evict()/insert() bit for bit.  One bit
 * of dirty state suffices because without write-validate a write-back
 * is always blockBytes.  The shift is lossless — tags are
 * addr >> log2(block) with block >= 4B, so bit 63 is always clear —
 * and no encoded word equals tagInvalid.
 */
struct ConfigSim
{
    const CacheConfig *cfg = nullptr;
    unsigned ways = 1; ///< u64s per set row
    std::uint64_t setMask = 0;
    Bytes blockBytes = 0;
    bool writeBack = true;
    AllocPolicy alloc = AllocPolicy::WriteAllocate;
    /** An Emit kernel may drop a store that hits a dirty row[0]: no
     * later config of the cascade has fewer ways (see ladderSweep). */
    bool skipDirtyStores = false;
    ChunkKernel kernel = nullptr;

    std::vector<std::uint64_t> lineStore; ///< backing (over-allocated)
    std::uint64_t *line = nullptr;        ///< 64B-aligned row base
    CacheStats stats;

    explicit ConfigSim(const CacheConfig &config)
        : cfg(&config),
          ways(config.ways()),
          setMask(config.sets() - 1),
          blockBytes(config.blockBytes),
          writeBack(config.write == WritePolicy::WriteBack),
          alloc(config.alloc)
    {
        const std::size_t words =
            static_cast<std::size_t>(setMask + 1) * ways;
        lineStore.assign(words + 8, tagInvalid);
        line = lineStore.data();
        while (reinterpret_cast<std::uintptr_t>(line) % 64 != 0)
            ++line;
    }

    /** End-of-run flush, identical to Cache::flush(). */
    void
    flush()
    {
        for (std::uint64_t s = 0; s <= setMask; ++s) {
            std::uint64_t *const row = line + s * ways;
            for (unsigned w = 0; w < ways && row[w] != tagInvalid;
                 ++w) {
                stats.evictions++;
                if (row[w] & 1) {
                    stats.writebacks++;
                    stats.flushWritebackBytes += blockBytes;
                }
                row[w] = tagInvalid;
            }
        }
    }
};

/**
 * Replay the references @p refs names of @p s against the
 * recency-ordered rows (see ConfigSim); write-through and no-allocate
 * only change the byte accounting.
 *
 * In a filter cascade (see ladderSweep) a ReadList kernel counts
 * every reference of the chunk that is not on its list as one hit:
 * an earlier config dropped it as an MRU hit that changes no state
 * here.  An Emit kernel drops a reference that hits row[0] and is a
 * load, or, with skipDirtyStores, a store to a line already dirty;
 * every other reference goes on the list for the next config.
 *
 * The hot state lives in locals for the duration of the chunk: the
 * stats block would otherwise round-trip through memory on every
 * reference (the compiler cannot prove the line rows don't alias the
 * sim object).  The tag probe is a random access into an L2-resident
 * working set, but its address comes straight off the sequential
 * blockNum array, so the out-of-order window keeps several probes in
 * flight on its own — measured on the reference traces, explicit
 * software prefetch ahead of the loop only added overhead (a probe
 * already touches a single row).
 *
 * A miss evicts the block Cache's pickVictim() + evict() would: an
 * invalid way fills with no eviction counted, otherwise the LRU line
 * is displaced, with a write-back when dirty.
 */
template <unsigned W, bool ReadList, bool Emit>
void
runChunk(ConfigSim &c, const BlockStream &s, ChunkRefs &refs)
{
    const unsigned n = W ? W : c.ways;
    std::uint64_t *const line = c.line;
    const std::uint64_t setMask = c.setMask;
    const Bytes blockBytes = c.blockBytes;
    const bool writeBack = c.writeBack;
    const bool writeAllocate = c.alloc == AllocPolicy::WriteAllocate;
    const bool skipDirtyStores = c.skipDirtyStores;
    const std::uint64_t *const blockNum = s.blockNum.data();
    const std::uint8_t *const isStore = s.isStore.data();
    const std::uint16_t *const size = s.size.data();
    const std::size_t begin = refs.begin;
    const std::size_t count =
        ReadList ? refs.listLen : refs.end - refs.begin;
    std::uint16_t *const list = refs.list;
    std::size_t kept = 0;
    CacheStats st = c.stats;

    // Per-chunk deltas of the per-reference counters, folded into st
    // on exit.  CacheStats is too wide to register-allocate, so
    // incrementing its fields directly costs a stack round-trip on
    // EVERY reference; three plain locals get registers.  loadMisses
    // and demandFetchBytes are derived at fold time: every load miss
    // fetches a block, stores fetch only on write-allocate.
    std::uint64_t hits = ReadList ? refs.end - begin - count : 0;
    std::uint64_t misses = 0;
    std::uint64_t storeMisses = 0;

    for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = begin + (ReadList ? list[j] : j);
        const std::uint64_t bn = blockNum[i];
        std::uint64_t *const row =
            line + static_cast<std::size_t>(bn & setMask) * n;
        const bool store = isStore[i] != 0;
        const unsigned w = findBlock(row, n, bn);
        if constexpr (Emit) {
            // Decided before the store below dirties row[0].
            const bool skip =
                w == 0 &&
                (!store || (skipDirtyStores && (row[0] & 1) != 0));
            list[kept] = static_cast<std::uint16_t>(i - begin);
            kept += !skip;
        }
        if (w < n) {
            hits++;
            if (store) {
                if (writeBack)
                    row[w] |= 1;
                else
                    st.writeThroughBytes += size[i];
            }
            // An MRU hit is already in place.  Skipping its rewrite
            // keeps load hits store-free, which is worth up to a
            // fifth of a direct-mapped streaming pass.
            if (w > 0)
                promote(row, w, row[w]);
            continue;
        }
        misses++;
        if (store) {
            storeMisses++;
            if (!writeBack || !writeAllocate)
                st.writeThroughBytes += size[i];
            if (!writeAllocate)
                continue;
        }
        const std::uint64_t victim = row[n - 1];
        if (victim != tagInvalid) {
            st.evictions++;
            if (victim & 1) {
                st.writebacks++;
                st.writebackBytes += blockBytes;
            }
        }
        promote(row, n - 1,
                (bn << 1) | static_cast<std::uint64_t>(store && writeBack));
    }
    if constexpr (Emit)
        refs.listLen = kept;

    const std::uint64_t loadMisses = misses - storeMisses;
    st.hits += hits;
    st.misses += misses;
    st.loadMisses += loadMisses;
    st.storeMisses += storeMisses;
    st.demandFetchBytes +=
        blockBytes * (loadMisses + (writeAllocate ? storeMisses : 0));
    c.stats = st;
}

/**
 * The monomorphized kernel for one configuration point.  Way counts
 * without a baked specialization (3, 5, 6, 7, 9..16) get the
 * runtime-way variant.
 */
ChunkKernel selectKernel(unsigned ways, bool readList, bool emit);

/** Package final @p stats (with stream totals applied) as the
 * single-level TrafficResult the direct simulator would produce. */
TrafficResult ladderTraffic(const BlockStream &stream,
                            CacheStats stats);

} // namespace ladder
} // namespace membw

#endif // MEMBW_EXEC_LADDER_KERNEL_HH
