/**
 * @file
 * Deterministic parallel sweep: fan cells 0..n-1 (independent cache
 * configurations over one shared read-only Trace) across a thread
 * pool and return their results *in submission order*, so callers
 * that render tables or publish stats registries serially afterwards
 * produce byte-identical output at any --jobs value.
 *
 * Determinism contract (see docs/performance.md):
 *  - results land in cells[i] for cell i regardless of completion
 *    order; callers consume them in index order;
 *  - cell functions must be pure with respect to shared state: they
 *    may read the shared Trace but must put every output in their
 *    return value (StatsRegistry is NOT thread-safe — publish after
 *    the sweep, never from inside a cell);
 *  - if cells throw, the exception from the lowest-index failing
 *    cell that ran is rethrown after all in-flight cells drain (with
 *    jobs == 1 that is exactly the first failure, and no later cell
 *    has started unless a cell waited on another thread's result);
 *  - a cancel() poll stops *scheduling* new cells; in-flight cells
 *    drain to completion and the result reports the contiguous
 *    completed prefix, so --sigterm-after N can truncate output to a
 *    deterministic N cells at any --jobs value.
 */

#ifndef MEMBW_EXEC_PARALLEL_SWEEP_HH
#define MEMBW_EXEC_PARALLEL_SWEEP_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/wait_help.hh"
#include "exec/thread_pool.hh"

namespace membw {

/** One tolerated cell failure (SweepOptions::tolerateCellFailures). */
struct CellFailure
{
    std::size_t cell = 0;
    std::string message;
};

/** Knobs for parallelSweep(). */
struct SweepOptions
{
    /** Worker count; 1 (or n == 1) runs on the calling thread with
     * no pool. */
    unsigned jobs = 1;

    /**
     * Externally-owned pool to run on instead of constructing a
     * fresh one per sweep (the daemon shares one pool across
     * requests to avoid per-request thread churn).  The sweep still
     * submits one drain-task per pool thread and calls wait(), so
     * the pool must be otherwise idle for the duration — callers
     * that share a pool must serialize sweeps on it.  jobs is
     * ignored when set (the pool's thread count wins), except for
     * the jobs <= 1 path, which never touches the pool.
     */
    ThreadPool *pool = nullptr;

    /**
     * Polled before each cell is started (under the sweep lock, so
     * it must be cheap).  Returning true stops scheduling further
     * cells; in-flight cells drain.  Wire shutdownRequested() here.
     */
    std::function<bool()> cancel;

    /**
     * Invoked — serialized, with monotonically increasing values —
     * whenever the contiguous completed prefix grows, with the new
     * prefix length.  Used for progress meters and the
     * --sigterm-after cell-count trigger.
     */
    std::function<void(std::size_t donePrefix)> onPrefix;

    /**
     * Degraded mode: a cell that throws a std::exception is recorded
     * in SweepResult::failedCells (default-constructed result, still
     * counts toward the completed prefix) and the sweep carries on
     * instead of rethrowing.  Exceptions that are not std::exception
     * (phase-interrupt sentinels) always propagate; so do those for
     * which abortAnyway() returns true.
     */
    bool tolerateCellFailures = false;

    /**
     * Escape hatch under tolerateCellFailures: return true to treat
     * this exception as fatal anyway (e.g. WatchdogError must still
     * abort with exit code 4, not degrade to exit code 5).
     */
    std::function<bool(const std::exception &)> abortAnyway;
};

/** Outcome of a sweep. */
template <typename R> struct SweepResult
{
    /**
     * cells[i] = result of cell i.  On interruption only the first
     * `completed` entries are meaningful; the rest are
     * default-constructed.  Failed cells (tolerateCellFailures) hold
     * default-constructed values too.
     */
    std::vector<R> cells;

    /** Length of the contiguous completed prefix (== cells.size()
     * when not interrupted). */
    std::size_t completed = 0;

    /** True iff cancel() fired before every cell was scheduled. */
    bool interrupted = false;

    /**
     * Tolerated failures in cell-index order (empty unless
     * SweepOptions::tolerateCellFailures was set).
     */
    std::vector<CellFailure> failedCells;

    bool degraded() const { return !failedCells.empty(); }
};

/**
 * Run @p fn(i) for i in [0, n) across opt.jobs workers.  R must be
 * default-constructible and movable; @p fn must be safe to invoke
 * concurrently from multiple threads on distinct indices.
 */
template <typename Fn,
          typename R = std::invoke_result_t<Fn &, std::size_t>>
SweepResult<R>
parallelSweep(std::size_t n, const SweepOptions &opt, Fn &&fn)
{
    SweepResult<R> result;
    result.cells.resize(n);

    struct Shared
    {
        std::mutex mutex;
        std::size_t next = 0;       ///< next cell to schedule
        std::size_t prefix = 0;     ///< contiguous completed prefix
        bool cancelled = false;
        bool aborted = false;       ///< a cell threw
        std::vector<char> done;
        std::vector<char> failed;   ///< tolerated failures
        std::vector<std::string> failMessage;
        std::vector<std::exception_ptr> errors;
    } shared;
    shared.done.assign(n, 0);
    shared.failed.assign(n, 0);
    shared.failMessage.resize(n);
    shared.errors.resize(n);

    // Claim and run one cell; false once none is left to start.
    auto runOne = [&shared, &result, &opt, &fn, n] {
        std::size_t i;
        {
            std::lock_guard<std::mutex> lock(shared.mutex);
            if (shared.aborted || shared.cancelled ||
                shared.next >= n)
                return false;
            if (opt.cancel && opt.cancel()) {
                shared.cancelled = true;
                return false;
            }
            i = shared.next++;
        }
        R value{};
        bool ok = true;
        bool tolerated = false;
        std::string why;
        try {
            value = fn(i);
        } catch (const std::exception &e) {
            if (opt.tolerateCellFailures &&
                !(opt.abortAnyway && opt.abortAnyway(e))) {
                tolerated = true;
                why = e.what();
            } else {
                ok = false;
                std::lock_guard<std::mutex> lock(shared.mutex);
                shared.errors[i] = std::current_exception();
                shared.aborted = true;
            }
        } catch (...) {
            // Non-std exceptions (phase-interrupt sentinels) are
            // never tolerated.
            ok = false;
            std::lock_guard<std::mutex> lock(shared.mutex);
            shared.errors[i] = std::current_exception();
            shared.aborted = true;
        }
        if (ok) {
            std::lock_guard<std::mutex> lock(shared.mutex);
            if (tolerated) {
                shared.failed[i] = 1;
                shared.failMessage[i] = std::move(why);
            } else {
                result.cells[i] = std::move(value);
            }
            shared.done[i] = 1;
            bool grew = false;
            while (shared.prefix < n && shared.done[shared.prefix]) {
                ++shared.prefix;
                grew = true;
            }
            if (grew && opt.onPrefix)
                opt.onPrefix(shared.prefix);
        }
        return true;
    };
    // Every worker, the calling thread included when there is no
    // pool, drains cells until none remain: one claim loop, with the
    // claim and the cancel poll in one critical section.  A cell that
    // has to wait for another thread's result runs further cells
    // meanwhile (WaitHelper).
    auto drain = [&runOne] {
        WaitHelper helper(runOne);
        while (runOne()) {
        }
    };
    const unsigned jobs = opt.pool ? opt.pool->threads() : opt.jobs;
    if (jobs <= 1 || n <= 1) {
        drain();
    } else {
        std::optional<ThreadPool> owned;
        ThreadPool *pool = opt.pool;
        if (!pool) {
            owned.emplace(opt.jobs);
            pool = &*owned;
        }
        // One task per worker: cheaper than n queue round-trips.
        for (unsigned w = 0; w < pool->threads(); ++w)
            pool->submit(drain);
        pool->wait();
    }

    for (std::size_t i = 0; i < n; ++i)
        if (shared.errors[i])
            std::rethrow_exception(shared.errors[i]);

    for (std::size_t i = 0; i < n; ++i)
        if (shared.failed[i])
            result.failedCells.push_back(
                CellFailure{i, std::move(shared.failMessage[i])});

    result.completed = shared.prefix;
    result.interrupted = shared.cancelled;
    return result;
}

/**
 * Convenience full-sweep overload: no cancellation, results in
 * submission order, exceptions propagate.
 */
template <typename Fn,
          typename R = std::invoke_result_t<Fn &, std::size_t>>
std::vector<R>
parallelSweep(std::size_t n, unsigned jobs, Fn &&fn)
{
    SweepOptions opt;
    opt.jobs = jobs;
    SweepResult<R> r = parallelSweep(n, opt, std::forward<Fn>(fn));
    return std::move(r.cells);
}

} // namespace membw

#endif // MEMBW_EXEC_PARALLEL_SWEEP_HH
