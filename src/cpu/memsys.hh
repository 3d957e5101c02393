/**
 * @file
 * Timing memory hierarchy: two cache levels, two contended buses,
 * main memory — the Table 4 system, runnable in three modes.
 *
 *  - Perfect: every access completes in one cycle (measures T_P);
 *  - InfiniteWidth: intrinsic latencies only — infinitely wide,
 *    contention-free paths between levels (measures T_I);
 *  - Full: finite bus widths, clock ratios, and queueing (measures T).
 *
 * Perfect mode simulates no caches: every access hits, so it only
 * counts the reference and checks that it fits in one L1 block.  It
 * builds no caches, and its cache stats read zero.  In the other two
 * modes the functional cache state (hits, evictions, prefetches) is
 * identical, because the access sequence does not depend on timing;
 * only the timing differs, which is exactly what the paper's
 * decomposition requires.
 */

#ifndef MEMBW_CPU_MEMSYS_HH
#define MEMBW_CPU_MEMSYS_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"
#include "cpu/bus.hh"
#include "dram/dram.hh"

namespace membw {

/** Timing-mode selector for the decomposition runs. */
enum class MemMode : std::uint8_t
{
    Perfect,
    InfiniteWidth,
    Full,
};

/** Memory-system parameters (Table 4, plus Table 5's cache rows). */
struct MemSysConfig
{
    MemMode mode = MemMode::Full;

    Bytes l1Size = 128_KiB;
    Bytes l1Block = 32;
    unsigned l1Assoc = 1;     ///< direct-mapped L1 (Table 4)

    /**
     * SPEC95 runs split the L1 into 64KB I + 64KB D (Table 4);
     * SPEC92 runs use one unified 128KB L1, so instruction fetches
     * compete with data for the same lines.
     */
    bool splitL1 = false;
    Bytes iL1Size = 64_KiB;

    Bytes l2Size = 1_MiB;
    Bytes l2Block = 64;
    unsigned l2Assoc = 4;

    bool lockupFree = false;  ///< experiments C-F
    unsigned mshrs = 8;       ///< outstanding misses when lockup-free
    bool taggedPrefetch = false; ///< experiments E-F

    Cycle busRatio = 3;       ///< processor cycles per bus cycle
    Bytes l1l2BusBytes = 16;  ///< 128-bit L1/L2 bus
    Bytes memBusBytes = 8;    ///< 64-bit memory bus (multiplexed)

    Cycle l2AccessCycles = 9;  ///< 30ns at the processor clock
    Cycle memAccessCycles = 27;///< 90ns; infinite banks

    /**
     * Optional banked row-buffer DRAM backend (Section 2.3's FPM /
     * EDO / SDRAM / Rambus interfaces).  When unset, main memory is
     * the paper's flat-latency infinite-bank model.  Only the Full
     * mode uses the banked timing; InfiniteWidth keeps the intrinsic
     * flat latency (bank/beat effects are bandwidth, not latency).
     */
    std::optional<DramConfig> dram;
};

/** Counters exposed by the timing memory system. */
struct MemSysStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t iMisses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t wrongPathLoads = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    Cycle dramBusyCycles = 0; ///< banked-DRAM bank busy time
    Cycle l1l2BusBusy = 0;
    Cycle memBusBusy = 0;
    Cycle l1l2BusWait = 0;  ///< cycles queued behind a busy L1/L2 bus
    Cycle memBusWait = 0;   ///< cycles queued behind a busy mem bus
    std::uint64_t l1l2BusTransfers = 0;
    std::uint64_t memBusTransfers = 0;
};

class StatsGroup;

/**
 * Block address -> cycle map for prefetched blocks still in flight:
 * open addressing with linear probing and backward-shift deletion,
 * probed on every hit of a prefetching L1.  Keys are block-aligned,
 * so addrInvalid marks an empty slot.
 */
class InFlightTable
{
  public:
    std::size_t size() const { return size_; }

    /** Insert @p block, or overwrite its cycle. */
    void set(Addr block, Cycle ready);

    /** If @p block is present, remove it and put its cycle in
     * @p ready. */
    bool
    take(Addr block, Cycle &ready)
    {
        return size_ != 0 && takePresent(block, ready);
    }

    /** Remove every block whose cycle is at or before @p when. */
    void eraseUpTo(Cycle when);

  private:
    struct Slot
    {
        Addr block = addrInvalid;
        Cycle ready = 0;
    };

    std::size_t
    home(Addr block) const
    {
        return static_cast<std::size_t>(
            (block * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    bool takePresent(Addr block, Cycle &ready);
    void rehash(std::size_t slots);

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

/**
 * Publish @p stats under @p group (typically "mem"): access mix,
 * per-level miss counts, and the bus occupancy/queueing counters
 * under "bus.l1l2" / "bus.mem".
 */
void publishMemSysStats(StatsGroup &group, const MemSysStats &stats);

/**
 * The timing hierarchy.  Loads return the cycle at which the critical
 * word reaches the processor; stores retire through an infinitely
 * deep write buffer (Section 3.1) and only consume bandwidth.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSysConfig &config);
    ~MemorySystem();

    /** fatal() wherever building the caches of @p config would. */
    static void validate(const MemSysConfig &config);

    /** Issue a load at cycle @p when; returns data-ready cycle. */
    Cycle load(Addr addr, Bytes size, Cycle when);

    /**
     * Fetch an instruction group at @p addr (must not span an L1
     * block).  Hits cost nothing extra (the fetch pipeline covers
     * them); returns the cycle the group is available.  SPEC92's
     * unified L1 makes these compete with data lines.
     */
    Cycle ifetch(Addr addr, Bytes bytes, Cycle when);

    /** Retire a store at cycle @p when (never stalls the core). */
    void store(Addr addr, Bytes size, Cycle when);

    /**
     * Speculative wrong-path load issued after a mispredicted branch
     * (experiments D-F): pollutes the caches and consumes bandwidth,
     * but nothing waits for it.
     */
    void wrongPathLoad(Addr addr, Cycle when);

    MemSysStats stats() const;

    /** Cache stats; zero in Perfect mode, which builds no caches. */
    const CacheStats &
    l1Stats() const
    {
        return l1_ ? l1_->stats() : noCacheStats();
    }
    const CacheStats &
    l2Stats() const
    {
        return l2_ ? l2_->stats() : noCacheStats();
    }

    /** Split-L1 instruction cache stats; null when unified. */
    const CacheStats *
    il1Stats() const
    {
        if (!config_.splitL1)
            return nullptr;
        return il1_ ? &il1_->stats() : &noCacheStats();
    }

    /**
     * Attach @p probe (null to detach) across the hierarchy: the
     * data L1 reports as level 0, the L2 as level 1, the split
     * instruction L1 (when present) as level 2, and the banked DRAM
     * backend (when configured) reports row outcomes.
     */
    void
    attachProbe(MemProbe *probe)
    {
        if (l1_)
            l1_->setProbe(probe, 0);
        if (l2_)
            l2_->setProbe(probe, 1);
        if (il1_)
            il1_->setProbe(probe, 2);
        if (dram_)
            dram_->setProbe(probe);
    }

  private:
    struct FetchEvent
    {
        Addr addr = 0;
        Bytes bytes = 0;
        bool l2Hit = true;
        Bytes memFetch = 0;
        Bytes memWriteback = 0;
    };
    struct WritebackEvent
    {
        Bytes bytes = 0;
        Bytes memFetch = 0;
        Bytes memWriteback = 0;
    };

    struct Outstanding
    {
        Addr block = 0;
        Cycle dataReady = 0;
        Cycle freeAt = 0;
    };

    /** Stats of a cache Perfect mode does not build. */
    static const CacheStats &noCacheStats();

    /** Perfect mode's block-span check: the fatal() message
     * Cache::access gives for the L1, or the IL1 when @p ifetch and
     * the L1 is split. */
    void checkPerfectRef(Addr addr, Bytes size, bool ifetch) const;

    /** Run the functional access, capturing this access's events. */
    AccessResult functionalAccess(Cache &cache, const MemRef &ref);

    /** Wire @p cache's fills/write-backs into the functional L2. */
    void installBelow(Cache &cache);

    // Non-allocating downstream callbacks (ctx = this MemorySystem):
    // L2 -> memory byte accumulators, and L1/IL1 -> functional L2
    // event capture.
    static void memFetch(void *ctx, Addr addr, Bytes bytes);
    static void memWriteback(void *ctx, Addr addr, Bytes bytes);
    static void l1Fetch(void *ctx, Addr addr, Bytes bytes);
    static void l1Writeback(void *ctx, Addr addr, Bytes bytes);

    /** Demand-miss timing; returns critical-word arrival. */
    Cycle missTiming(Cycle reqStart, const FetchEvent &demand);

    /** Occupancy-only timing for non-demand events. */
    void backgroundTiming(Cycle when, bool skipFirstFetch);

    Cycle acquireMissPort(Addr block, Cycle when, bool &merged,
                          Cycle &mergedReady);
    void releaseMissPort(Addr block, Cycle dataReady, Cycle freeAt);

    /**
     * Chip-side main-memory timing for one transfer: flat latency by
     * default, banked row-buffer timing when a DRAM model is set.
     */
    DramAccess dramService(Addr addr, Bytes bytes, Cycle ready);

    MemSysConfig config_;
    std::unique_ptr<Cache> l1_;  ///< null in Perfect mode
    std::unique_ptr<Cache> il1_; ///< null when unified or Perfect
    std::unique_ptr<Cache> l2_;  ///< null in Perfect mode
    std::unique_ptr<DramModel> dram_; ///< null = flat-latency model
    Bus l1l2Bus_;
    Bus memBus_;

    // Per-access event capture (filled by the cache callbacks).
    std::vector<FetchEvent> fetchEvents_;
    std::vector<WritebackEvent> writebackEvents_;
    Bytes memFetchAcc_ = 0;
    Bytes memWritebackAcc_ = 0;

    // Miss-port state: blocking cache (1 slot) or MSHRs.
    std::vector<Outstanding> outstanding_;
    Cycle blockingFreeAt_ = 0;

    // Blocks brought in by the prefetcher that are still in flight:
    // a demand "hit" on one waits for its arrival rather than
    // completing in a cycle.
    InFlightTable prefetchInFlight_;

    MemSysStats stats_;
};

} // namespace membw

#endif // MEMBW_CPU_MEMSYS_HH
