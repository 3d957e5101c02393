#include "serve/broker.hh"

#include "obs/trace_span.hh"

namespace membw {

/** One admitted computation; waiters block on done. */
struct BrokerJob
{
    std::uint64_t digest = 0;
    std::function<std::string()> compute;
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string result;
};

RequestBroker::RequestBroker(std::size_t queueCapacity)
    : capacity_(queueCapacity ? queueCapacity : 1),
      dispatcher_([this] { dispatchLoop(); })
{
}

RequestBroker::~RequestBroker()
{
    drainAndStop();
}

RequestBroker::Submission
RequestBroker::submit(std::uint64_t digest,
                      std::function<std::string()> compute)
{
    Submission s;
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = inflight_.find(digest); it != inflight_.end()) {
        // Same request already admitted: ride its execution.
        ++coalesced_;
        s.coalesced = true;
        s.job = it->second;
        return s;
    }
    if (stopping_ || queue_.size() >= capacity_) {
        ++busyRejected_;
        s.busy = true;
        s.queued = queue_.size();
        return s;
    }
    auto job = std::make_shared<BrokerJob>();
    job->digest = digest;
    job->compute = std::move(compute);
    inflight_.emplace(digest, job);
    queue_.push_back(job);
    s.job = std::move(job);
    cv_.notify_all();
    return s;
}

const std::string &
RequestBroker::wait(const std::shared_ptr<BrokerJob> &j)
{
    std::unique_lock<std::mutex> lock(j->mutex);
    j->cv.wait(lock, [&] { return j->done; });
    return j->result;
}

void
RequestBroker::dispatchLoop()
{
    for (;;) {
        std::shared_ptr<BrokerJob> job;
        std::function<void(std::uint64_t)> startHook;
        std::uint64_t nth = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                return;
            job = queue_.front();
            queue_.pop_front();
            nth = ++executed_;
            startHook = onJobStart_;
        }
        if (startHook)
            startHook(nth);
        // Named per job, as pool workers are, so a dispatcher that
        // started before tracing was switched on still shows up by
        // name in a trace.
        tracingSetThreadName("broker");
        // Compute outside every lock: the job can take seconds, and
        // coalescing joiners must be able to attach meanwhile.
        std::string result = job->compute();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_.erase(job->digest);
        }
        {
            std::lock_guard<std::mutex> lock(job->mutex);
            job->result = std::move(result);
            job->done = true;
        }
        job->cv.notify_all();
    }
}

void
RequestBroker::drainAndStop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && !dispatcher_.joinable())
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (dispatcher_.joinable())
        dispatcher_.join();
}

void
RequestBroker::onJobStart(std::function<void(std::uint64_t)> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    onJobStart_ = std::move(hook);
}

std::uint64_t
RequestBroker::executed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

std::uint64_t
RequestBroker::coalesced() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return coalesced_;
}

std::uint64_t
RequestBroker::busyRejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return busyRejected_;
}

std::size_t
RequestBroker::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

} // namespace membw
