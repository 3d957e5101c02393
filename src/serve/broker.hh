/**
 * @file
 * Admission control + request coalescing for the daemon.
 *
 * Compute requests flow through a single dispatcher thread: a
 * bounded FIFO queue provides backpressure (a full queue yields an
 * immediate `busy` response instead of unbounded latency), and
 * identical in-flight requests — same canonical-key digest — are
 * coalesced onto one execution, so N concurrent clients asking for
 * the same fig4 cell trigger one simulation and N copies of its
 * bytes.
 *
 * Serial execution is a correctness choice, not a simplification:
 * each sweep, and each decomposition's three phases, already fan
 * across the shared ThreadPool internally (parallelSweep submits
 * drain-tasks and wait()s), so the pool must be otherwise idle per
 * request — the dispatcher is what serializes requests onto it.
 *
 * Shutdown contract: drainAndStop() stops admitting, finishes every
 * already-admitted job, and joins the dispatcher — so SIGTERM drains
 * in-flight requests and every waiting client still receives its
 * response before the daemon exits.
 */

#ifndef MEMBW_SERVE_BROKER_HH
#define MEMBW_SERVE_BROKER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace membw {

class RequestBroker
{
  public:
    /** @p queueCapacity bounds jobs admitted but not yet started;
     * joiners of an in-flight job never count against it. */
    explicit RequestBroker(std::size_t queueCapacity);
    ~RequestBroker();

    struct Submission
    {
        bool busy = false;        ///< rejected by admission control
        std::size_t queued = 0;   ///< queue depth at rejection
        bool coalesced = false;   ///< joined an in-flight execution
        std::shared_ptr<struct BrokerJob> job; ///< null when busy
    };

    /**
     * Admit (or coalesce) a job.  @p compute runs exactly once on
     * the dispatcher thread per admitted digest; call wait() on the
     * returned job for the result.  After drainAndStop() every
     * submission is rejected busy.
     */
    Submission submit(std::uint64_t digest,
                      std::function<std::string()> compute);

    /** Block until @p job completes and return its result. */
    static const std::string &wait(const std::shared_ptr<BrokerJob> &j);

    /** Stop admitting, run every admitted job to completion, join
     * the dispatcher.  Idempotent. */
    void drainAndStop();

    /** Hook fired on the dispatcher thread as the Nth job (1-based)
     * begins executing — the daemon's deterministic --sigterm-after
     * trigger. */
    void onJobStart(std::function<void(std::uint64_t nth)> hook);

    std::uint64_t executed() const;
    std::uint64_t coalesced() const;
    std::uint64_t busyRejected() const;
    std::size_t queueDepth() const;

  private:
    void dispatchLoop();

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<BrokerJob>> queue_;
    /** Digest → in-flight (queued or executing) job. */
    std::unordered_map<std::uint64_t, std::shared_ptr<BrokerJob>>
        inflight_;
    std::function<void(std::uint64_t)> onJobStart_;
    bool stopping_ = false;
    std::uint64_t executed_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t busyRejected_ = 0;
    std::thread dispatcher_;
};

} // namespace membw

#endif // MEMBW_SERVE_BROKER_HH
