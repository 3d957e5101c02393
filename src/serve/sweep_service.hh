/**
 * @file
 * The sweep engine behind both `membw_sim` sweep mode and the
 * `membw_served` daemon.
 *
 * Byte-identical serving is a *structural* property here, not a
 * testing aspiration: the tool and the daemon call the same
 * executeSweep() + renderSweepStatsJson() pair, so a served `sweep`
 * response cannot drift from what a fresh `membw_sim --stats-json`
 * run writes (tests/served_test.sh still byte-diffs the two as the
 * regression tripwire).
 *
 * The split of responsibilities:
 *
 *  - traceCells() runs any list of cells over one trace: collapse
 *    passes and next-use tables in one fan-out, then every cell in
 *    another.  The sweep and the trace benches all call it.
 *  - executeSweep() owns what is specific to a request: cell
 *    geometry and validation, degraded-mode accounting, and
 *    --sigterm-after truncation.
 *  - renderSweepStatsJson() reproduces the stats-JSON document.
 *  - the caller owns process concerns: stdout narration, exit
 *    codes, and whether a latched SIGTERM interrupts the run.  The
 *    daemon deliberately passes no cancel hook — a drained in-flight
 *    request must produce the same bytes as an undisturbed run, with
 *    no "interrupted" flag leaking into the response.
 */

#ifndef MEMBW_SERVE_SWEEP_SERVICE_HH
#define MEMBW_SERVE_SWEEP_SERVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "exec/collapsed_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "mtc/min_cache.hh"
#include "mtc/next_use.hh"
#include "trace/trace.hh"

namespace membw {

class ThreadPool;

/** Everything that identifies a sweep computation (the result-cache
 * key hashes exactly these fields). */
struct SweepRequest
{
    std::string workload;   ///< generator name (daemon trace source)
    std::string label;      ///< manifest workload field; defaults to
                            ///< workload when empty
    double scale = 1.0;
    std::uint64_t seed = 42;
    CacheConfig l1;         ///< geometry template for every cell
    bool runMtc = false;
    std::vector<Bytes> sizes;
    std::vector<Bytes> blocks; ///< empty = {l1.blockBytes}
    bool stableJson = false;
    bool noCollapse = false;
    std::uint64_t eventBudget = 1'000'000;
    /** Manifest attribution (satellite of PR 9): how the trace
     * reached the simulator — "generated" or "binary".
     * Omitted from --stable-json output, so not part of the result
     * identity. */
    std::string traceFormat = "generated";

    SweepRequest() { l1.name = "L1"; l1.size = 64_KiB; }
};

/** Block-size list with the single-block default applied. */
std::vector<Bytes> resolveSweepBlocks(const SweepRequest &req);

/** Config of hierarchy cell @p cell (cell < sizes×blocks). */
CacheConfig sweepConfigFor(const SweepRequest &req,
                           const std::vector<Bytes> &blocks,
                           std::size_t cell);

/**
 * Canonical identity string for the result cache, built from every
 * request field that changes the (stable) response bytes.  Digest it
 * with fnv1a64() — the same hash the run manifests use for config
 * digests.
 */
std::string sweepRequestKey(const SweepRequest &req);

/** One sweep cell's output (exactly one member is meaningful). */
struct SweepCellOut
{
    TrafficResult traffic;
    MinCacheStats mtc;
};

/** Execution-context knobs — everything here is jobs/daemon policy
 * and must not change the computed bytes. */
struct SweepExecOptions
{
    unsigned jobs = 1;
    /** Shared pool (see SweepOptions::pool); jobs is ignored for the
     * fan-out when set. */
    ThreadPool *pool = nullptr;
    /** Poll to stop scheduling cells (membw_sim wires
     * shutdownRequested(); the daemon leaves it unset). */
    std::function<bool()> cancel;
    /** Serialized progress hook (contiguous completed prefix). */
    std::function<void(std::size_t donePrefix)> onPrefix;
    /** Truncate output to exactly N completed cells once the prefix
     * reaches N (--sigterm-after); 0 = off. */
    std::uint64_t sigtermAfter = 0;
    /** Fires after collapse planning, before the cell fan-out, so
     * the tool can print its collapse summary lines. */
    std::function<void(const CollapsedSweep &collapsed,
                       std::size_t nHier, std::size_t nCells)>
        onPlan;
    /** Artifact-cache hooks, forwarded into CollapseOptions. */
    std::function<std::shared_ptr<const BlockStream>(Bytes)>
        streamProvider;
    std::function<std::shared_ptr<const StackDistanceProfile>(Bytes)>
        profileProvider;
    /** Artifact-cache hook for the MTC cells' next-use table (see
     * TraceCellOptions::nextUseProvider). */
    std::function<NextUseTable(Bytes blockBytes)> nextUseProvider;
};

/** One traceCells() cell: a cache hierarchy (L1 first) or a MIN
 * cache. */
using TraceCell = std::variant<std::vector<CacheConfig>, MinCacheConfig>;

/** Knobs for traceCells(); none of them changes the computed bytes. */
struct TraceCellOptions
{
    /** Fan-out of the cells; jobs and pool also run the collapse
     * passes and next-use tables. */
    SweepOptions sweep;
    /** Simulate every hierarchy cell directly (--no-collapse). */
    bool noCollapse = false;
    /** Per-reference watchdog budget of a directly simulated
     * hierarchy cell. */
    std::uint64_t eventBudget = 1'000'000;
    /** Fires after the collapse passes, before the cell fan-out. */
    std::function<void(const CollapsedSweep &collapsed)> onPlan;
    /** Artifact-cache hooks, forwarded into CollapseOptions. */
    std::function<std::shared_ptr<const BlockStream>(Bytes)>
        streamProvider;
    std::function<std::shared_ptr<const StackDistanceProfile>(Bytes)>
        profileProvider;
    /** Next-use table at a MIN cell's block size, called once per
     * distinct size; unset builds them with makeNextUseTable(). */
    std::function<NextUseTable(Bytes blockBytes)> nextUseProvider;
};

/** traceCells() outcome: the sweep over the cells, each holding its
 * SweepCellOut member, and the collapse plan. */
struct TraceCellsOut : SweepResult<SweepCellOut>
{
    /** Indexed by a single-level hierarchy cell's position among
     * those cells (its cell index when they come first). */
    CollapsedSweep collapsed;
};

/**
 * Every cell of @p cells over @p trace.  The single-level hierarchy
 * cells go to one CollapsedSweep, which also builds one next-use
 * table per distinct MIN block size as side units of its fan-out;
 * then every cell runs in one parallelSweep() with @p opt.sweep.  A
 * covered cell is a lookup, any other hierarchy cell a direct run,
 * and a MIN cell a runMinCache() on its shared table.  Each cell
 * records a "cell" span and is the 'cell:at=N' fault site for N = its
 * index + 1.  Results are exact and the same at any jobs, pool and
 * noCollapse.
 */
TraceCellsOut traceCells(const Trace &trace,
                         const std::vector<TraceCell> &cells,
                         const TraceCellOptions &opt);

/** What a sweep computed, in renderable form. */
struct SweepOutcome
{
    std::vector<Bytes> blocks; ///< resolved block list
    std::size_t nHier = 0;
    std::size_t nCells = 0;
    std::vector<SweepCellOut> cells;
    std::vector<char> cellFailed; ///< within the usable prefix
    std::size_t nFailed = 0;
    std::vector<CellFailure> failedCells;
    std::size_t completed = 0; ///< raw contiguous prefix
    std::size_t usable = 0;    ///< after --sigterm-after truncation
    bool interrupted = false;  ///< cancel/sigterm fired (callers may
                               ///< OR in a late shutdown poll)
    bool degraded = false;
    CollapsedSweep collapsed;  ///< for route() accounting
    double wallSeconds = 0.0;
};

/**
 * Validate and run the sweep.  Throws FatalError on invalid cell
 * geometry (daemon callers catch it per request) and WatchdogError
 * if a cell trips its event budget.
 */
SweepOutcome executeSweep(const SweepRequest &req, const Trace &trace,
                          const SweepExecOptions &opts);

/**
 * The stats-JSON document for a completed sweep — byte-for-byte what
 * membw_sim --stats-json writes for the same request and outcome.
 */
std::string renderSweepStatsJson(const SweepRequest &req,
                                 std::size_t traceRefs,
                                 const SweepOutcome &outcome);

} // namespace membw

#endif // MEMBW_SERVE_SWEEP_SERVICE_HH
