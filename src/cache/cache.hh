/**
 * @file
 * Functional (timing-free) cache simulator with byte-exact traffic
 * accounting — the library's DineroIII equivalent (Section 4.1).
 *
 * Traffic convention (matches the paper):
 *  - traffic *above* the cache = sum of request sizes (loads+stores);
 *  - traffic *below* the cache = block fills + partial-word fills +
 *    write-backs + write-throughs + the end-of-run dirty flush;
 *  - request/address traffic is never counted.
 */

#ifndef MEMBW_CACHE_CACHE_HH
#define MEMBW_CACHE_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "obs/mem_probe.hh"
#include "trace/mem_ref.hh"

namespace membw {

class StatsGroup;
class ChkWriter;
class ChkReader;

/** Byte counters for one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t evictions = 0;      ///< valid lines displaced/flushed
    std::uint64_t writebacks = 0;     ///< evictions that moved data
    std::uint64_t partialFills = 0;   ///< word fills into WV lines
    std::uint64_t prefetches = 0;     ///< prefetch fills issued
    std::uint64_t streamHits = 0;     ///< misses served by a stream
    std::uint64_t streamAllocs = 0;   ///< stream (re)allocations

    Bytes requestBytes = 0;           ///< traffic above (D_{i-1})
    Bytes demandFetchBytes = 0;       ///< full-block demand fills
    Bytes partialFillBytes = 0;       ///< word-granularity fills (WV)
    Bytes prefetchFetchBytes = 0;     ///< tagged-prefetch fills
    Bytes streamFetchBytes = 0;       ///< stream-buffer fills
    Bytes writebackBytes = 0;         ///< dirty evictions
    Bytes writeThroughBytes = 0;      ///< stores propagated (WT/WNA)
    Bytes flushWritebackBytes = 0;    ///< final dirty flush

    /** Total data traffic below this cache (D_i). */
    Bytes
    trafficBelow() const
    {
        return demandFetchBytes + partialFillBytes +
               prefetchFetchBytes + streamFetchBytes +
               writebackBytes + writeThroughBytes +
               flushWritebackBytes;
    }

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** R = D_i / D_{i-1} (Equation 4). */
    double
    trafficRatio() const
    {
        return requestBytes
                   ? static_cast<double>(trafficBelow()) / requestBytes
                   : 0.0;
    }
};

/** Outcome of one access, for callers that need per-access detail. */
struct AccessResult
{
    bool hit = false;
    Bytes fetchedBytes = 0;     ///< demand bytes pulled from below
    Bytes writebackBytes = 0;   ///< eviction bytes pushed below
    Bytes writeThroughBytes = 0;
};

/**
 * One level of cache.
 *
 * Supports every knob the paper turns: direct-mapped through fully
 * associative, 4B-256B blocks, write-back/write-through,
 * write-allocate/no-allocate/write-validate, LRU/FIFO/Random
 * replacement, and Gindele tagged sequential prefetch.  Per-word
 * valid/dirty masks implement write-validate exactly (Jouppi [25]).
 */
class Cache
{
  public:
    /**
     * Downstream hook: plain function pointer plus an opaque context,
     * so forwarding a fill or write-back to the next level costs one
     * indirect call — no std::function dispatch (and no possible
     * allocation) on the per-reference hot path.
     */
    using DownstreamFn = void (*)(void *ctx, Addr addr, Bytes bytes);

    explicit Cache(const CacheConfig &config);

    /**
     * Wire this cache above another level (or a memory recorder).
     * @p ctx is passed through to both callbacks verbatim; either
     * may be null to drop that event class.
     */
    void setBelow(DownstreamFn fetch, DownstreamFn writeback,
                  void *ctx);

    /**
     * Simulate one reference.  @p ref must not span a block boundary
     * of this cache.
     */
    AccessResult access(const MemRef &ref);

    /**
     * Write back all dirty data and invalidate (program completion;
     * Section 4.1 includes these write-backs in traffic).
     * @return bytes written back.
     */
    Bytes flush();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /**
     * Attach @p probe (null to detach) reporting this cache's
     * evictions and below-traffic as hierarchy level @p level.  One
     * null check per miss-frequency event when unattached; stripped
     * entirely under -DMEMBW_PROFILING=OFF.
     */
    void
    setProbe(MemProbe *probe, unsigned level)
    {
        probe_ = probe;
        probeLevel_ = level;
    }

    /** Register this cache's counters under @p group (see docs/observability.md). */
    void publishStats(StatsGroup &group) const;

    /** True iff the block containing @p addr is resident. */
    bool contains(Addr addr) const;

    /**
     * Serialize tag array, dirty/valid masks, stream buffers, RNG,
     * and counters into one "CACH" checkpoint section.  Must not be
     * called mid-access.
     */
    void saveState(ChkWriter &w) const;

    /**
     * Restore state written by saveState() into a cache built from
     * the same config.  Geometry mismatches and malformed sections
     * latch a classified error on @p r instead of throwing.
     */
    void loadState(ChkReader &r);

  private:
    struct Line
    {
        Addr blockAddr = addrInvalid;
        std::uint64_t lastUse = 0;
        std::uint64_t insertSeq = 0;
        std::uint64_t validMask = 0;
        std::uint64_t dirtyMask = 0;
        bool valid = false;
        bool prefetchTag = false;
    };

    struct Set
    {
        std::vector<Line> ways;
        std::unordered_map<Addr, unsigned> index; ///< blockAddr -> way
    };

    Addr blockAddr(Addr addr) const { return addr & ~(blockBytes_ - 1); }

    /**
     * blockBytes is a power of two (validate() enforces it), so the
     * block number is a shift, not a 64-bit divide, and the set mask
     * folds the power-of-two set count.
     */
    unsigned
    setIndex(Addr block_addr) const
    {
        return static_cast<unsigned>((block_addr >> blockShift_) &
                                     setMask_);
    }
    std::uint64_t wordsMask(Addr addr, Bytes size) const;
    std::uint64_t fullMask() const;
    /** Words covered by the sectors containing @p words (or the
     * whole block when sectoring is off). */
    std::uint64_t sectorExpand(std::uint64_t words) const;

    Line *findLine(Addr block_addr);
    /** Recency-list edits of a useIndex_ set; both keep `filled`. */
    void linkHead(unsigned set, unsigned way);
    void unlink(unsigned set, unsigned way);
    /** LRU hit on @p line, which lives in @p block's set. */
    void moveToHead(Addr block, const Line &line);
    unsigned pickVictim(Set &set);
    /** Evict @p way of @p set; returns write-back bytes (counted). */
    Bytes evict(Set &set, unsigned way, bool to_flush);
    /** Insert @p block_addr; returns the line (victim evicted). */
    Line &insert(Addr block_addr);

    void maybePrefetch(Addr demand_block);
    Bytes writebackSize(const Line &line) const;

    /**
     * Consult the stream buffers for a demand-miss @p block.
     * @return true when the block was resident in a buffer head (its
     * fill traffic was already paid when the stream fetched it).
     */
    bool streamLookup(Addr block);

    void sendFetch(Addr addr, Bytes bytes);
    void sendWriteback(Addr addr, Bytes bytes);

    CacheConfig config_;
    Bytes blockBytes_;
    unsigned blockShift_;   ///< log2(blockBytes_)
    unsigned wordsPerBlock_;
    unsigned nsets_;
    Addr setMask_;          ///< nsets_ - 1
    /**
     * Lookup and victim strategy.  Sets with few ways are probed by
     * linear tag scan (fits in a cache line, no hashing) and pick
     * their victim by scanning the lastUse/insertSeq stamps.  Wide
     * and fully-associative sets keep the blockAddr -> way hash
     * index plus a recency list over their valid ways, so both the
     * lookup and the victim choice are O(1).
     */
    bool useIndex_;
    /** useIndex_ under LRU: a hit moves its line to the list head. */
    bool lruList_;
    std::vector<Set> sets_;
    std::uint64_t seq_ = 0;
    Rng rng_;
    CacheStats stats_;
    DownstreamFn fetchBelow_ = nullptr;
    DownstreamFn writebackBelow_ = nullptr;
    void *belowCtx_ = nullptr;
    MemProbe *probe_ = nullptr;
    unsigned probeLevel_ = 0;
    bool inPrefetch_ = false;

    /** One Jouppi stream buffer: FIFO of prefetched blocks. */
    struct Stream
    {
        std::vector<Addr> fifo; ///< front = index head_
        std::size_t head = 0;
        std::uint64_t lastUse = 0;
    };
    std::vector<Stream> streams_;

    /**
     * Recency list of one useIndex_ set: its valid ways, most recent
     * (LRU: last use; FIFO and Random: last insert) at head.  Valid
     * ways are always [0, filled): insert() takes the lowest invalid
     * way and only flush() invalidates.
     */
    static constexpr unsigned noWay = ~0u;
    struct Recency
    {
        unsigned head = noWay;
        unsigned tail = noWay;
        unsigned filled = 0;
    };
    /** Per set; empty unless useIndex_. */
    std::vector<Recency> recency_;
    /**
     * Links of way w in set s at [s * ways + w]: prev_ toward the
     * head, next_ toward the tail.  Empty unless useIndex_.
     */
    std::vector<unsigned> prev_;
    std::vector<unsigned> next_;
};

/**
 * Publish @p stats into @p group: event counters, per-class byte
 * counters under a "bytes" subtree, and derived miss_rate /
 * traffic_ratio ratios.
 */
void publishCacheStats(StatsGroup &group, const CacheStats &stats);

/** Append @p s's counters (fixed field order, no section framing). */
void saveCacheStats(ChkWriter &w, const CacheStats &s);

/** Read back what saveCacheStats() wrote. */
void loadCacheStats(ChkReader &r, CacheStats &s);

} // namespace membw

#endif // MEMBW_CACHE_CACHE_HH
