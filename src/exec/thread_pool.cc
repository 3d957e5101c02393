#include "exec/thread_pool.hh"

#include <algorithm>
#include <cstdio>

#include "obs/trace_span.hh"

namespace membw {

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? std::min(hw, maxParallelJobs) : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = std::clamp(threads, 1u, maxParallelJobs);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idleCv_.wait(lock,
                     [this] { return queue_.empty() && !running_; });
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        depth = queue_.size();
    }
    tracingCounter("pool.queue_depth", static_cast<double>(depth));
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return queue_.empty() && !running_; });
}

void
ThreadPool::workerLoop(unsigned index)
{
    char name[24];
    std::snprintf(name, sizeof(name), "worker-%u", index);
    bool named = false;
    for (;;) {
        std::function<void()> task;
        std::size_t depth, busy;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(
                lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
            depth = queue_.size();
            busy = running_;
        }
        if (!named && tracingActive()) {
            // Lazy so workers spawned before tracingInit() still
            // register under their pool name, not "thread-N".
            tracingSetThreadName(name);
            named = true;
        }
        tracingCounter("pool.queue_depth", static_cast<double>(depth));
        tracingCounter("pool.busy_workers", static_cast<double>(busy));
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            busy = running_;
            if (queue_.empty() && !running_)
                idleCv_.notify_all();
        }
        tracingCounter("pool.busy_workers", static_cast<double>(busy));
    }
}

} // namespace membw
