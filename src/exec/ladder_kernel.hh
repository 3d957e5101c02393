/**
 * @file
 * Internal ladder-kernel machinery shared by ladder_sweep.cc and
 * time_partition.cc.  Not installed API — tools and tests go through
 * ladder_sweep.hh / time_partition.hh.
 *
 * The kernel body lives here as a function template monomorphized on
 * two axes:
 *
 *  - W      — the way count baked in at compile time for the hot
 *             geometries (1, 2, 4, 8; 0 keeps it a runtime value),
 *  - Filtered — whether the kernel skips references outside its
 *             owned set range (time-partitioned workers).
 *
 * selectKernel() maps a (ways, filtered) point to one
 * stamped-out instantiation, chosen once per configuration so the
 * per-chunk call is a single indirect jump to straight-line code.
 * Every instantiation evicts the same blocks as Cache and keeps the
 * same counters, which is what lets the equivalence tests demand
 * byte-equal results across way specializations and partition
 * counts.
 */

#ifndef MEMBW_EXEC_LADDER_KERNEL_HH
#define MEMBW_EXEC_LADDER_KERNEL_HH

#include <bit>
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

/** One monomorphized chunk kernel (selected by selectKernel). */
using ChunkKernel = void (*)(ConfigSim &, const BlockStream &,
                             std::size_t, std::size_t);

/** Fused-decode variant: replays word-sized aligned references
 * straight from the MemRef array, skipping the BlockStream
 * materialization entirely (selected by selectWordKernel).  Returns
 * false the moment a reference violates the all-word invariant —
 * state and counters are then partial garbage and the caller must
 * restart on the decoded-stream path. */
using WordKernel = bool (*)(ConfigSim &, const MemRef *, std::size_t,
                            std::size_t);

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
 * they match Cache::access()/evict()/insert() bit for bit.  One bit of dirty state suffices because without
 * write-validate a write-back is always blockBytes.  The shift is
 * lossless — tags are addr >> log2(block) with block >= 4B, so bit 63
 * is always clear — and no encoded word equals tagInvalid.
 *
 * A partitioned replica owns sets [setLo, setLo + setSpan) only: its
 * rows cover just that span, and all references to one set funnel
 * through one replica in trace order, which is the only order LRU
 * decisions depend on.
 */
struct ConfigSim
{
    const CacheConfig *cfg = nullptr;
    unsigned ways = 1; ///< u64s per set row
    std::uint64_t setMask = 0;
    std::uint64_t setLo = 0;   ///< first owned set
    std::uint64_t setSpan = 0; ///< owned set count
    Bytes blockBytes = 0;
    bool writeBack = true;
    AllocPolicy alloc = AllocPolicy::WriteAllocate;
    ChunkKernel kernel = nullptr;

    std::vector<std::uint64_t> lineStore; ///< backing (over-allocated)
    std::uint64_t *line = nullptr;        ///< 64B-aligned row base
    CacheStats stats;

    /** Full replica (all sets) unless a [setLo, setLo+setSpan) range
     * is given; @p span == 0 means "every set". */
    explicit ConfigSim(const CacheConfig &config, std::uint64_t lo = 0,
                       std::uint64_t span = 0)
        : cfg(&config),
          ways(config.ways()),
          setMask(config.sets() - 1),
          setLo(lo),
          setSpan(span ? span : config.sets()),
          blockBytes(config.blockBytes),
          writeBack(config.write == WritePolicy::WriteBack),
          alloc(config.alloc)
    {
        const std::size_t words =
            static_cast<std::size_t>(setSpan) * ways;
        lineStore.assign(words + 8, tagInvalid);
        line = lineStore.data();
        while (reinterpret_cast<std::uintptr_t>(line) % 64 != 0)
            ++line;
    }

    /** End-of-run flush over the owned lines, identical to
     * Cache::flush() (a partitioned flush sums to the full one —
     * every counter here is additive). */
    void
    flush()
    {
        for (std::uint64_t s = 0; s < setSpan; ++s) {
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
 * Reference sources the chunk kernel is monomorphized over.  Both
 * yield the exact per-reference tuple (blockNum, isStore, size) the
 * accounting consumes, so every kernel instantiation stays
 * counter-identical regardless of where the bits come from.
 */

/** Decoded SoA arrays of a materialized BlockStream. */
struct StreamSource
{
    static constexpr bool validating = false;

    const std::uint64_t *blockNum;
    const std::uint8_t *isStore;
    const std::uint16_t *size;

    explicit StreamSource(const BlockStream &s)
        : blockNum(s.blockNum.data()),
          isStore(s.isStore.data()),
          size(s.size.data())
    {
    }

    std::uint64_t bn(std::size_t i, unsigned) const
    {
        return blockNum[i];
    }
    bool store(std::size_t i) const { return isStore[i] != 0; }
    Bytes bytes(std::size_t i) const { return size[i]; }
    bool word(std::size_t) const { return true; }
};

/**
 * Fused decode straight from the MemRef array.  Valid only when
 * every reference is one aligned word (the QPT recording invariant):
 * such a reference never spans a block and its size is wordBytes, so
 * its block number is one shift of the address, cheaper than
 * re-reading it from a decoded side array.  The invariant is not
 * pre-scanned; validating makes the kernel check word() per reference
 * (two predictable compares) and abort the chunk on the first
 * violation, so an eligible trace never pays a separate eligibility
 * pass.
 */
struct WordSource
{
    static constexpr bool validating = true;

    const MemRef *refs;

    explicit WordSource(const MemRef *r) : refs(r) {}

    std::uint64_t bn(std::size_t i, unsigned blockShift) const
    {
        return refs[i].addr >> blockShift;
    }
    bool store(std::size_t i) const { return refs[i].isStore(); }
    Bytes bytes(std::size_t) const { return wordBytes; }
    bool word(std::size_t i) const
    {
        return refs[i].size == wordBytes &&
               refs[i].addr % wordBytes == 0;
    }
};

/**
 * Replay source references [begin, end) against the recency-ordered
 * rows (see ConfigSim); write-through and no-allocate only change the
 * byte accounting.  Filtered skips references whose set is outside
 * [setLo, setLo + setSpan).
 *
 * The hot state lives in locals for the duration of the chunk: the
 * stats block would otherwise round-trip through memory on every
 * reference (the compiler cannot prove the line rows don't alias the
 * sim object).  The tag probe is a random access into an L2-resident
 * working set, but its address comes straight off the sequential
 * source array, so the out-of-order window keeps several probes in
 * flight on its own — measured on the reference traces, explicit
 * software prefetch ahead of the loop only added overhead (a probe
 * already touches a single row).
 *
 * A miss evicts the block Cache's pickVictim() + evict() would: an
 * invalid way fills with no eviction counted, otherwise the LRU line
 * is displaced, with a write-back when dirty.
 *
 * Returns false (for validating sources) on the first reference that
 * breaks the all-word invariant; the sim state is then partial and
 * must be discarded.  A validating chunk additionally counts stores
 * into stats.stores so the caller can reconstruct the trace totals
 * (loads/stores/requestBytes) without a separate scan: every owned
 * reference lands in hits+misses, so loads = hits + misses - stores
 * and requestBytes = wordBytes * (hits + misses).
 */
template <unsigned W, bool Filtered, class Source>
inline bool
runChunkBody(ConfigSim &c, Source src, std::size_t begin,
             std::size_t end)
{
    const unsigned n = W ? W : c.ways;
    std::uint64_t *const line = c.line;
    const std::uint64_t setMask = c.setMask;
    const std::uint64_t setLo = c.setLo;
    const std::uint64_t setSpan = c.setSpan;
    const Bytes blockBytes = c.blockBytes;
    const unsigned blockShift =
        static_cast<unsigned>(std::countr_zero(blockBytes));
    const bool writeBack = c.writeBack;
    const bool writeAllocate = c.alloc == AllocPolicy::WriteAllocate;
    CacheStats st = c.stats;

    // Per-chunk deltas of the per-reference counters, folded into st
    // on exit.  CacheStats is too wide to register-allocate, so
    // incrementing its fields directly costs a stack round-trip on
    // EVERY reference; four plain locals get registers.  loadMisses
    // and demandFetchBytes are derived at fold time: every load miss
    // fetches a block, stores fetch only on write-allocate.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t stores = 0;
    const auto fold = [&] {
        const std::uint64_t loadMisses = misses - storeMisses;
        st.hits += hits;
        st.misses += misses;
        st.loadMisses += loadMisses;
        st.storeMisses += storeMisses;
        st.stores += stores;
        st.demandFetchBytes +=
            blockBytes *
            (loadMisses + (writeAllocate ? storeMisses : 0));
        c.stats = st;
    };

    for (std::size_t i = begin; i < end; ++i) {
        // The word check runs before the set filter: a non-word
        // reference may span two blocks (two sets), so no single
        // worker could claim it — the whole partitioned run must
        // restart on the decoded-stream path.
        if constexpr (Source::validating) {
            if (!src.word(i)) {
                fold();
                return false;
            }
        }
        const std::uint64_t bn = src.bn(i, blockShift);
        const std::uint64_t set = bn & setMask;
        if (Filtered && set - setLo >= setSpan)
            continue;
        std::uint64_t *const row =
            line + static_cast<std::size_t>(Filtered ? set - setLo
                                                     : set) *
                       n;
        const bool store = src.store(i);
        if constexpr (Source::validating)
            stores += store;
        const unsigned w = findBlock(row, n, bn);
        if (w < n) {
            hits++;
            if (store) {
                if (writeBack)
                    row[w] |= 1;
                else
                    st.writeThroughBytes += src.bytes(i);
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
                st.writeThroughBytes += src.bytes(i);
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
    fold();
    return true;
}

template <unsigned W, bool Filtered>
void
runChunk(ConfigSim &c, const BlockStream &s, std::size_t begin,
         std::size_t end)
{
    runChunkBody<W, Filtered>(c, StreamSource(s), begin, end);
}

template <unsigned W, bool Filtered>
bool
runWordChunk(ConfigSim &c, const MemRef *refs, std::size_t begin,
             std::size_t end)
{
    return runChunkBody<W, Filtered>(c, WordSource(refs), begin, end);
}

/**
 * The monomorphized kernel for one configuration point.  Way counts
 * without a baked specialization (3, 5, 6, 7, 9..16) get the
 * runtime-way variant.
 */
ChunkKernel selectKernel(unsigned ways, bool filtered);

/** selectKernel's fused-decode twin: the same dispatch table over
 * runWordChunk instantiations (see WordSource for the validity
 * precondition). */
WordKernel selectWordKernel(unsigned ways, bool filtered);

/** Sum every additive counter of @p from into @p into.  The
 * stream-derived totals (accesses/loads/stores/requestBytes) are
 * additive too, but partition callers overwrite them from the
 * stream, so adding them here is still correct for partial chunks. */
void mergeStats(CacheStats &into, const CacheStats &from);

/** Package final @p stats (with stream totals applied) as the
 * single-level TrafficResult the direct simulator would produce. */
TrafficResult ladderTraffic(const BlockStream &stream,
                            CacheStats stats);

/** Same, with the stream-derived totals passed directly (the fused
 * word path has no BlockStream to read them from). */
TrafficResult ladderTraffic(std::size_t refs, std::uint64_t loads,
                            std::uint64_t stores,
                            std::uint64_t requestBytes,
                            CacheStats stats);

} // namespace ladder
} // namespace membw

#endif // MEMBW_EXEC_LADDER_KERNEL_HH
