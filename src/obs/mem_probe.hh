/**
 * @file
 * Probe accumulators for simulated-machine events.
 *
 * The model layers (Cache, MinCacheSim, DramModel) carry an optional
 * MemProbe pointer and report their miss-frequency events — line
 * evictions, downstream byte movement, DRAM row outcomes, MTC
 * victim-scan work — through the MEMBW_PROBE macro.  Each call site
 * is one null check until a profiler attaches (--profile-out).
 *
 * MemProbe is deliberately concrete, not a virtual interface: its
 * only consumer is the epoch profiler, and the hooks are small
 * enough that keeping them header-inline turns each attached-probe
 * event into a test and an array or counter bump instead of a
 * virtual dispatch.  Hooks fire only on events that already left
 * the hot hit path (evictions, fills, write-backs), never per
 * access, which together is what keeps an attached profiler inside
 * the CI overhead budget.
 */

#ifndef MEMBW_OBS_MEM_PROBE_HH
#define MEMBW_OBS_MEM_PROBE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace membw {

/** Region-heat accumulation grain (bytes). */
constexpr std::uint64_t probeRegionGrain = 4096;

/**
 * Accumulator for model-layer events.  @p level is the
 * wiring-assigned cache level (0 = closest to the processor).
 *
 * The conflict heatmap is dense per level (churn[level][set]) so the
 * per-eviction hook is an array increment, not a hash probe; the
 * region table stays a map (sparse address space) but the hook
 * caches the last bucket's slot, which below-traffic locality hits
 * almost every time.  unordered_map references are stable across
 * inserts, so the cached pointer only dies when the map itself is
 * replaced (EpochProfiler's abortRun/loadState invalidate it).
 */
class MemProbe
{
  public:
    /** A valid line left @p level's set @p set (tag churn). */
    void
    onEvict(unsigned level, std::size_t set)
    {
        if (level >= churn_.size())
            churn_.resize(level + 1);
        auto &sets = churn_[level];
        if (set >= sets.size())
            sets.resize(std::max(set + 1, sets.size() * 2));
        sets[set]++;
    }

    /** @p bytes moved between @p level and the level below. */
    void
    onBelowTraffic(unsigned level, Addr addr, Bytes bytes)
    {
        if (level != regionLevel_)
            return;
        const std::uint64_t page = addr / probeRegionGrain;
        if (page != regionLastPage_) {
            regionLastPage_ = page;
            regionLastCount_ = &region_[page];
        }
        *regionLastCount_ += bytes;
    }

    /** One DRAM access completed as a row hit or miss. */
    void
    onDramAccess(bool rowHit)
    {
        if (rowHit)
            dramRowHits_++;
        else
            dramRowMisses_++;
    }

    /** The MTC's write-aware victim scan popped @p pops candidates. */
    void onMtcScan(std::uint64_t pops) { mtcScanPops_ += pops; }

    /** Level whose below-traffic feeds the region heat table
     * (wiring sets this to the last level: pin traffic). */
    void setRegionLevel(unsigned level) { regionLevel_ = level; }

  protected:
    // Structural-profile state (process-cumulative); the deriving
    // profiler snapshots, persists, and exports it.
    unsigned regionLevel_ = ~0u;
    std::vector<std::vector<std::uint64_t>> churn_;
    std::unordered_map<std::uint64_t, std::uint64_t> region_;
    std::uint64_t regionLastPage_ = ~std::uint64_t{0};
    std::uint64_t *regionLastCount_ = nullptr;
    std::uint64_t dramRowHits_ = 0;
    std::uint64_t dramRowMisses_ = 0;
    std::uint64_t mtcScanPops_ = 0;
};

/** Dispatch @p call on @p probe when one is attached. */
#define MEMBW_PROBE(probe, call)                                     \
    do {                                                             \
        if (probe)                                                   \
            (probe)->call;                                           \
    } while (0)

} // namespace membw

#endif // MEMBW_OBS_MEM_PROBE_HH
