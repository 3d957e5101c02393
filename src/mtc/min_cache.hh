/**
 * @file
 * Fully-associative Belady-MIN cache — the paper's minimal-traffic
 * cache (MTC, Section 5.2) and the MIN-replacement comparison points
 * of Tables 9/10.
 *
 * The canonical MTC has all four properties: full associativity,
 * transfer size equal to the request size (4B words), MIN
 * replacement, and bypassing of lower-priority misses.  This class
 * generalizes the block size and the write-miss policy so the factor
 * isolation experiments (MIN/fa/32B/WA etc.) reuse the same engine.
 * Like the paper, write costs use MIN rather than the write-aware
 * Horwitz algorithm, so measured traffic is an aggressive bound, not
 * an exact minimum.
 */

#ifndef MEMBW_MTC_MIN_CACHE_HH
#define MEMBW_MTC_MIN_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/config.hh"
#include "common/types.hh"
#include "mtc/max_bitmap.hh"
#include "mtc/next_use.hh"
#include "obs/mem_probe.hh"
#include "trace/trace.hh"

namespace membw {

class StatsGroup;
class ChkWriter;
class ChkReader;

/** Configuration for a MIN-replacement fully-associative cache. */
struct MinCacheConfig
{
    Bytes size = 8_KiB;
    Bytes blockBytes = wordBytes; ///< MTC uses word-sized blocks
    /** WriteAllocate or WriteValidate (always write-back). */
    AllocPolicy alloc = AllocPolicy::WriteValidate;
    /** Allow misses whose next use is furthest to bypass the cache. */
    bool allowBypass = true;

    /**
     * Write-aware victim selection (a Horwitz-inspired heuristic,
     * not the exact optimum): among the furthest-referenced
     * candidates, prefer a clean block over a dirty one when their
     * next uses are equally hopeless, saving the write-back.  The
     * paper implemented plain MIN and asserted the disparity is
     * small (Section 5.2); the ablation bench measures it.
     */
    bool writeAware = false;

    unsigned blocks() const
    {
        return static_cast<unsigned>(size / blockBytes);
    }
    void validate() const;
    std::string describe() const;
};

/** Traffic summary of a MIN-cache run. */
struct MinCacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;  ///< subset of misses never cached
    std::uint64_t validates = 0; ///< write-validate allocs (no fetch)

    Bytes requestBytes = 0;
    Bytes fetchBytes = 0;        ///< fills (and bypass load transfers)
    Bytes writebackBytes = 0;    ///< dirty evictions + bypassed stores
    Bytes flushWritebackBytes = 0;

    Bytes
    trafficBelow() const
    {
        return fetchBytes + writebackBytes + flushWritebackBytes;
    }

    double
    trafficRatio() const
    {
        return requestBytes
                   ? static_cast<double>(trafficBelow()) / requestBytes
                   : 0.0;
    }
};

/**
 * Two-pass MIN simulation over a whole trace.
 *
 * The constructor runs pass one (next-use table); run() performs the
 * stack simulation.  Victim choice follows Belady's MIN [3]: evict
 * the resident block referenced furthest in the future.  With
 * bypassing enabled, a miss whose own next use lies beyond every
 * resident block's next use is never cached (Section 5.2, footnote 2).
 *
 * Neither victim ordering needs a heap or a hash table: resident
 * blocks sit in two bitmaps, one over next-use ticks and one over
 * the address ranks of blocks never used again, both precomputed by
 * pass one (see NextUseData).
 *
 * The simulation is resumable: step() advances by a bounded number of
 * references and saveState()/loadState() checkpoint the resident set
 * and counters.  The next-use side table is rebuilt deterministically
 * by the constructor, so checkpoints stay proportional to the cache,
 * not the trace.
 */
class MinCacheSim
{
  public:
    MinCacheSim(const Trace &trace, const MinCacheConfig &config);

    /**
     * Like the two-argument constructor, but reuses a next-use table
     * previously built by makeNextUseTable() for the same trace at
     * config.blockBytes granularity, skipping pass one.  A null or
     * mismatched table is fatal.
     */
    MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                NextUseTable nextUse);

    /** Simulate the full trace, including the final dirty flush. */
    MinCacheStats run();

    /** Advance by up to @p n references from the cursor. */
    void step(std::size_t n);

    /** References simulated so far. */
    std::size_t cursor() const { return cursor_; }

    /** True once every reference has been simulated. */
    bool done() const { return cursor_ == trace_.size(); }

    /**
     * Stats including the end-of-run dirty flush (Section 4.1).
     * Valid once done(); does not mutate, so mid-run heartbeats may
     * also call it for a conservative snapshot.
     */
    MinCacheStats finalize() const;

    /** Raw counters without the flush estimate — monotonic, so
     * interval samplers can diff successive snapshots safely. */
    const MinCacheStats &stats() const { return stats_; }

    /** Cumulative write-aware victim-scan candidates examined. */
    std::uint64_t victimScanPops() const { return victimScanPops_; }

    /** Attach @p probe (null to detach) reporting victim-scan work. */
    void setProbe(MemProbe *probe) { probe_ = probe; }

    /** Serialize cursor, counters, and resident set ("MTCS"). */
    void saveState(ChkWriter &w) const;

    /**
     * Restore state written by saveState() for the same trace and
     * config; mismatches latch a classified error on @p r.  A resident
     * block keyed tickInfinity must be one whose last reference lies
     * before the cursor (Errc::Corrupt otherwise).
     */
    void loadState(ChkReader &r);

  private:
    /** One resident block in the slot pool. */
    struct Slot
    {
        Addr addr = 0;
        Tick nextUse = tickInfinity;
        std::uint64_t validMask = 0;
        std::uint64_t dirtyMask = 0;
        bool used = false;
    };

    Bytes writebackSize(const Slot &slot) const;
    void accessOne(const MemRef &ref, Tick nu);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t i);
    void keyInsert(Tick nu, std::uint32_t rank, std::uint32_t slot);
    void resetResident();

    const Trace &trace_;
    MinCacheConfig config_;
    NextUseTable nextUse_;

    std::uint64_t fullMask_ = 0;
    unsigned capacity_ = 0;

    MinCacheStats stats_;

    /** Cumulative write-aware victim-scan candidates examined.
     * Telemetry: sampled as a trace counter and an epoch-profiler
     * metric, and checkpointed with the stats so a resumed profiled
     * run stays byte-identical; still excluded from MinCacheStats
     * itself. */
    std::uint64_t victimScanPops_ = 0;

    MemProbe *probe_ = nullptr;

    /** Dense pool of resident blocks; freed slots are recycled via
     * freeList_.  The pool is reached through the victim-order
     * structures below, never searched. */
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeList_;
    std::size_t resident_ = 0;

    /**
     * Victim order, split by the structure of next-use keys.  Trace
     * position t references exactly one block, so at most one
     * resident block has nextUse == t: the finite keys form a set of
     * distinct ticks (nuBits_) with the owning slot alongside
     * (nuOwner_).  This doubles as the residency index — the access
     * at position t hits if and only if the bit at t is set, because
     * only the block referenced at t can carry that key.  Blocks
     * keyed tickInfinity ("dead") are never referenced again, so they
     * can never be hit and leave only by eviction; each has one
     * address rank from the next-use table, and deadBits_ holds the
     * ranks of the resident ones with the owning slot alongside
     * (deadOwner_).  The global victim is the owner of the highest
     * dead rank (the ordered-set tie-break: highest address first)
     * when any block is dead, else the owner of the highest finite
     * tick.
     */
    MaxBitmap nuBits_;
    std::vector<std::uint32_t> nuOwner_;
    MaxBitmap deadBits_;
    std::vector<std::uint32_t> deadOwner_;

    /** Dead positions before the cursor: the cursor's index into
     * the table's deadRank. */
    std::size_t deadOrdinal_ = 0;

    std::size_t cursor_ = 0;
};

/** Convenience: run an MTC (or variant) and return its stats. */
MinCacheStats runMinCache(const Trace &trace,
                          const MinCacheConfig &config);

/** Like runMinCache(), reusing a shared next-use table. */
MinCacheStats runMinCache(const Trace &trace,
                          const MinCacheConfig &config,
                          NextUseTable nextUse);

/** Publish @p stats under @p group (typically "mtc"). */
void publishMinCacheStats(StatsGroup &group,
                          const MinCacheStats &stats);

/** The paper's canonical MTC configuration for a given size. */
MinCacheConfig canonicalMtc(Bytes size);

} // namespace membw

#endif // MEMBW_MTC_MIN_CACHE_HH
