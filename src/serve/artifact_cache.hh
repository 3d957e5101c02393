/**
 * @file
 * Content-addressed LRU cache for immutable simulation artifacts.
 *
 * The daemon's warm path lives here: traces keyed by
 * (workload, scale, seed), and everything derived from a served
 * trace — BlockStreams, Mattson stack-distance profiles and MTC
 * next-use tables — by that same trace key plus the block size or
 * granularity (a served trace is always generated from exactly those
 * three values, so the key names its content); instruction streams
 * by (workload, scale, seed).  Everything stored is immutable and
 * handed out as shared_ptr<const T>, so an entry can be evicted
 * while a request still computes over it — the bytes stay alive
 * until the last reader drops its reference.
 *
 * Eviction is size-bounded LRU over the caller-estimated byte cost.
 * Counters (hits, misses, evictions, bytes resident) feed the
 * daemon's `stats` op and the stats-registry export.
 *
 * Thread safety: every public method locks, but getOrBuild() runs
 * the builder outside the lock, so builds of different keys run at
 * the same time (a sweep's fused group passes decode their block
 * streams beside its next-use table).  Each key has at most one build in flight: a
 * caller that finds one waits for it and counts as a hit, so two
 * threads never build the same artifact twice.
 */

#ifndef MEMBW_SERVE_ARTIFACT_CACHE_HH
#define MEMBW_SERVE_ARTIFACT_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace membw {

class ArtifactCache
{
  public:
    /** @p maxBytes bounds the estimated resident total; 0 disables
     * caching entirely (every lookup misses and nothing is kept). */
    explicit ArtifactCache(std::size_t maxBytes)
        : maxBytes_(maxBytes)
    {
    }

    /** A built artifact plus its estimated resident byte cost. */
    template <typename T>
    using Built = std::pair<std::shared_ptr<const T>, std::size_t>;

    /**
     * Return the cached artifact under @p key, or invoke @p build,
     * cache the result, and return it.  An artifact larger than the
     * whole cache is returned uncached.  While one caller builds a
     * key, other callers of that key wait for its result (a hit);
     * if the builder throws, every waiter rethrows that exception and
     * no entry is left behind, so a later call builds again.
     */
    template <typename T>
    std::shared_ptr<const T>
    getOrBuild(const std::string &key,
               const std::function<Built<T>()> &build)
    {
        std::promise<std::shared_ptr<const void>> promise;
        std::shared_future<std::shared_ptr<const void>> pending;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (auto it = entries_.find(key); it != entries_.end()) {
                ++hits_;
                touch(it->second);
                return std::static_pointer_cast<const T>(it->second.ptr);
            }
            if (auto it = building_.find(key); it != building_.end()) {
                ++hits_;
                pending = it->second;
            } else {
                ++misses_;
                building_.emplace(key, promise.get_future().share());
            }
        }
        // Another caller is building this key: wait for its result
        // (or its exception) outside the lock.
        if (pending.valid())
            return std::static_pointer_cast<const T>(pending.get());
        Built<T> built;
        try {
            built = build();
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                building_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            building_.erase(key);
            insert(key, built.first, built.second);
        }
        promise.set_value(built.first);
        return built.first;
    }

    std::uint64_t hits() const { return counter(hits_); }
    std::uint64_t misses() const { return counter(misses_); }
    std::uint64_t evictions() const { return counter(evictions_); }
    std::uint64_t
    bytesResident() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }
    std::size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    struct Entry
    {
        std::shared_ptr<const void> ptr;
        std::size_t bytes = 0;
        std::list<std::string>::iterator lru;
    };

    /** Move @p e to the most-recently-used end. */
    void touch(Entry &e) { lru_.splice(lru_.end(), lru_, e.lru); }

    void insert(const std::string &key, std::shared_ptr<const void> ptr,
                std::size_t bytes);

    std::uint64_t
    counter(const std::uint64_t &c) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return c;
    }

    const std::size_t maxBytes_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    /** Keys whose build is in flight, with the result to wait on. */
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<const void>>>
        building_;
    std::list<std::string> lru_; ///< front = least recently used
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace membw

#endif // MEMBW_SERVE_ARTIFACT_CACHE_HH
