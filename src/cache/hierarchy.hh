/**
 * @file
 * Multi-level cache hierarchy for traffic simulation.
 *
 * Chains caches so that each level's miss fills and write-backs
 * become the next level's request stream, giving per-level traffic
 * D_0 (processor requests) through D_k (pin traffic).  Used to
 * compute multi-level traffic ratios and effective pin bandwidth
 * (Equations 4-5).
 */

#ifndef MEMBW_CACHE_HIERARCHY_HH
#define MEMBW_CACHE_HIERARCHY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "trace/trace.hh"

namespace membw {

class StatsRegistry;
class ChkWriter;
class ChkReader;
struct TrafficResult;

/**
 * An ordered stack of cache levels (index 0 is closest to the
 * processor).  Lower levels must have block sizes >= the level above
 * so fills/write-backs never span a lower-level block.
 */
class CacheHierarchy
{
  public:
    /** Build from level configs, processor-side first. */
    explicit CacheHierarchy(const std::vector<CacheConfig> &configs);

    /** Simulate one processor reference. */
    void access(const MemRef &ref);

    /** Flush every level (top-down), counting write-back traffic. */
    void flush();

    std::size_t levels() const { return caches_.size(); }
    const Cache &level(std::size_t i) const { return *caches_[i]; }

    /** Attach @p probe (null to detach) to every level; level i
     * reports its events as hierarchy level i. */
    void
    attachProbe(MemProbe *probe)
    {
        for (std::size_t i = 0; i < caches_.size(); ++i)
            caches_[i]->setProbe(probe,
                                 static_cast<unsigned>(i));
    }

    /** Traffic below level @p i in bytes (D_{i+1} in paper terms). */
    Bytes trafficBelow(std::size_t i) const;

    /** Traffic ratio of level @p i (Equation 4). */
    double trafficRatio(std::size_t i) const;

    /** Product of all per-level traffic ratios. */
    double totalTrafficRatio() const;

    /**
     * Register every level's counters under "l1", "l2", ... plus the
     * hierarchy aggregates under "hier" (pin bytes, total R).
     */
    void publishStats(StatsRegistry &registry) const;

    /**
     * Snapshot current traffic into a TrafficResult.  Call after
     * flush() for end-of-run semantics; mid-run snapshots are valid
     * but exclude the final dirty flush.
     */
    TrafficResult summarize() const;

    /**
     * Cap the downstream events (fills, write-backs, prefetch and
     * stream transfers between levels) one processor reference may
     * trigger.  A run-away chain — a livelock in cache-interaction
     * logic — trips a WatchdogError instead of hanging the run.
     * 0 disables the guard.
     */
    void setEventBudget(std::uint64_t budget) { eventBudget_ = budget; }

    std::uint64_t eventBudget() const { return eventBudget_; }

    /** Most downstream events any single reference has triggered. */
    std::uint64_t maxDownstreamEvents() const { return maxEvents_; }

    /**
     * Unused fraction of the event budget at the worst reference seen
     * so far (1.0 = nowhere near tripping) — the heartbeat's
     * "watchdog slack" figure.
     */
    double
    eventHeadroom() const
    {
        if (!eventBudget_)
            return 1.0;
        if (maxEvents_ >= eventBudget_)
            return 0.0;
        return 1.0 - static_cast<double>(maxEvents_) /
                         static_cast<double>(eventBudget_);
    }

    /** Serialize every level ("HIER" section + one per cache). */
    void saveState(ChkWriter &w) const;

    /** Restore state saved from an identically configured stack. */
    void loadState(ChkReader &r);

  private:
    void noteDownstreamEvent();

    /**
     * Context for the non-allocating downstream callbacks: which
     * hierarchy (for the event watchdog) and which cache the event
     * lands in.  Addresses must stay stable — the vector is sized
     * once during construction.
     */
    struct DownLink
    {
        CacheHierarchy *hier;
        Cache *below;
    };
    static void forwardFetch(void *ctx, Addr addr, Bytes bytes);
    static void forwardWriteback(void *ctx, Addr addr, Bytes bytes);

    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<DownLink> links_;
    std::uint64_t eventBudget_ = 1'000'000;
    std::uint64_t accessEvents_ = 0;
    std::uint64_t maxEvents_ = 0;
};

/** Per-run summary returned by runTrace(). */
struct TrafficResult
{
    Bytes requestBytes = 0;   ///< processor-side request traffic
    Bytes pinBytes = 0;       ///< traffic below the last level
    double trafficRatio = 0;  ///< pinBytes / requestBytes
    std::vector<double> levelRatios; ///< per-level R_i
    std::vector<Bytes> levelTraffic; ///< per-level D_i
    std::vector<CacheStats> levels;  ///< full per-level snapshots
    CacheStats l1;            ///< stats snapshot of level 0
};

/**
 * Per-reference progress hook: invoked as (refs done, total refs).
 * Callers decide their own reporting cadence (see ProgressMeter).
 */
using TraceProgressFn =
    std::function<void(std::size_t done, std::size_t total)>;

/**
 * Run @p trace through a fresh hierarchy built from @p configs,
 * flush at completion (Section 4.1), and summarize traffic.
 */
TrafficResult runTrace(const Trace &trace,
                       const std::vector<CacheConfig> &configs);

/** As above, with a per-reference progress callback. */
TrafficResult runTrace(const Trace &trace,
                       const std::vector<CacheConfig> &configs,
                       const TraceProgressFn &progress);

/** Single-level convenience overload. */
TrafficResult runTrace(const Trace &trace, const CacheConfig &config);

/** Each level's describe(), L1 first, joined by " > " (the span
 * detail of a direct run). */
std::string describeLevels(const std::vector<CacheConfig> &configs);

/**
 * Publish a summarized run under "l1".."lN" and "hier" — the same
 * layout CacheHierarchy::publishStats produces live.
 */
void publishStats(StatsRegistry &registry,
                  const TrafficResult &result);

/**
 * As above, but nested under @p group — used by sweep mode to give
 * each cell its own "sweep.<config>" subtree.
 */
void publishStats(StatsGroup &group, const TrafficResult &result);

/**
 * Serialize a completed traffic summary ("TRFR" section) so a later
 * phase of a checkpointed run can carry its predecessor's result.
 */
void saveTrafficResult(ChkWriter &w, const TrafficResult &result);

/** Read back what saveTrafficResult() wrote. */
void loadTrafficResult(ChkReader &r, TrafficResult &result);

} // namespace membw

#endif // MEMBW_CACHE_HIERARCHY_HH
