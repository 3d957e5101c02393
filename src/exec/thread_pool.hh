/**
 * @file
 * Fixed-size thread pool for fanning independent simulation cells
 * (one cache configuration over a shared read-only Trace) across
 * workers.
 *
 * The pool is deliberately minimal: tasks are type-erased thunks,
 * scheduling is FIFO, and completion is observed with wait() — the
 * determinism story (submission-order merging, lowest-index
 * exception) lives one layer up in parallelSweep(), which is what
 * tools and benches actually call.
 */

#ifndef MEMBW_EXEC_THREAD_POOL_HH
#define MEMBW_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parse.hh" // maxParallelJobs, tryParseJobs

namespace membw {

/**
 * The --jobs default: std::thread::hardware_concurrency(), clamped
 * to at least 1 (the standard allows 0 for "unknown").
 */
unsigned defaultJobs();

/** Fixed-size FIFO worker pool. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to [1, maxParallelJobs]). */
    explicit ThreadPool(unsigned threads);

    /** Drains: blocks until every submitted task has finished. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task.  Tasks must not throw — wrap fallible work
     * and stash the exception (parallelSweep does exactly this).
     */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void wait();

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop(unsigned index);

    std::mutex mutex_;
    std::condition_variable workCv_; ///< wakes workers
    std::condition_variable idleCv_; ///< wakes wait()
    std::deque<std::function<void()>> queue_;
    std::size_t running_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace membw

#endif // MEMBW_EXEC_THREAD_POOL_HH
