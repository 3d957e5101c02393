/**
 * @file
 * Sweep planner: route each cell of a multi-configuration sweep to
 * the cheapest exact engine.
 *
 * Given the full config list of a sweep, CollapsedSweep groups the
 * cells by block size and precomputes every group that an exact
 * one-pass engine covers:
 *
 *  - fully-associative LRU groups over load-only traces collapse
 *    into one Mattson stack-distance pass (exec/fa_sweep.*);
 *  - set-associative LRU groups collapse into one chunked
 *    BlockStream pass through the ladder kernel
 *    (exec/ladder_sweep.*), whatever their mix of sizes,
 *    associativities, and write policies.
 *
 * Everything else — Random/FIFO replacement, sectoring, stream
 * buffers, prefetch, multi-level hierarchies, MTC cells — is left
 * uncovered and the caller's per-cell fallback simulates it
 * directly, so results stay exact everywhere.
 *
 * traceCells() (serve/sweep_service.hh) constructs the planner
 * *before* its per-cell fan-out, then each cell either consumes its
 * precomputed TrafficResult or simulates directly.  The planner runs
 * one fan-out of its own over a single list of units: one pass per
 * group — a ladder group's pass is one fused filter cascade — plus
 * the side units the caller needs before its cells (traceCells'
 * next-use tables).  Precomputed results are
 * index-addressed, so cell accounting (ordering, --sigterm-after
 * truncation, stats publication) is unchanged.
 */

#ifndef MEMBW_EXEC_COLLAPSED_SWEEP_HH
#define MEMBW_EXEC_COLLAPSED_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "trace/trace.hh"

namespace membw {

struct BlockStream;
class StackDistanceProfile;
class ThreadPool;

/** Which engine actually produced a sweep cell's result. */
enum class CellRoute : std::uint8_t
{
    Direct = 0,  ///< per-cell fallback simulation
    Ladder = 1,  ///< collapsed set-associative ladder pass
    Mattson = 2, ///< collapsed FA stack-distance pass
};

/** Stable lowercase name for reports and trace span details. */
const char *cellRouteName(CellRoute route);

/** Knobs for the planner. */
struct CollapseOptions
{
    /** Worker threads for the unit fan-out (ignored when pool is
     * set). */
    unsigned jobs = 1;

    /**
     * Externally-owned worker pool for the unit fan-out (see
     * SweepOptions::pool — the same serialization contract applies).
     * With a pool the planner starts no thread of its own.
     */
    ThreadPool *pool = nullptr;

    /**
     * Artifact-cache hook: supply the decoded BlockStream for a block
     * size instead of decoding it fresh (the daemon memoizes streams
     * by trace key + block size).  Must return a stream equivalent to
     * buildBlockStream(trace, blockBytes).
     */
    std::function<std::shared_ptr<const BlockStream>(Bytes blockBytes)>
        streamProvider;

    /**
     * Artifact-cache hook: supply the Mattson stack-distance profile
     * for a block size, equivalent to
     * StackDistanceProfile(trace, blockBytes).  When unset each FA
     * group pass builds its own profile.
     */
    std::function<
        std::shared_ptr<const StackDistanceProfile>(Bytes blockBytes)>
        profileProvider;

    /**
     * More units for the fan-out, run beside the group passes and
     * finished when the constructor returns (traceCells builds its
     * next-use tables here).
     */
    std::vector<std::function<void()>> sideUnits;
};

class CollapsedSweep
{
  public:
    /** An empty planner covers nothing (every cell falls back). */
    CollapsedSweep() = default;

    /**
     * Plan and run every collapsible group of @p configs over
     * @p trace.  Every side unit and every group is one unit of the
     * fan-out: a Mattson group is one stack-distance pass, a ladder
     * group one fused ladderSweep() cascade.  Results are exact and
     * the same at any jobs.
     */
    CollapsedSweep(const Trace &trace,
                   const std::vector<CacheConfig> &configs,
                   const CollapseOptions &options);

    /** True iff config @p i was covered by a one-pass group. */
    bool
    has(std::size_t i) const
    {
        return i < results_.size() && results_[i].has_value();
    }

    /** The precomputed result for a covered config. */
    const TrafficResult &
    result(std::size_t i) const
    {
        return *results_[i];
    }

    /**
     * The engine that covered config @p i — Direct for cells the
     * caller must simulate itself (also for indices never planned,
     * so it is safe on a default-constructed planner).
     */
    CellRoute
    route(std::size_t i) const
    {
        return i < routes_.size() ? routes_[i] : CellRoute::Direct;
    }

    /** Configs covered by any one-pass engine. */
    std::size_t covered() const { return covered_; }

    /** Mattson stack-distance group passes run. */
    std::size_t mattsonPasses() const { return mattsonPasses_; }

    /** Ladder-kernel group passes run. */
    std::size_t ladderPasses() const { return ladderPasses_; }

  private:
    std::vector<std::optional<TrafficResult>> results_;
    std::vector<CellRoute> routes_;
    std::size_t covered_ = 0;
    std::size_t mattsonPasses_ = 0;
    std::size_t ladderPasses_ = 0;
};

} // namespace membw

#endif // MEMBW_EXEC_COLLAPSED_SWEEP_HH
