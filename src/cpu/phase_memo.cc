#include "cpu/phase_memo.hh"

#include "common/wait_help.hh"

namespace membw {

PhaseMemo::Run
PhaseMemo::get(const std::string &key, Cycle budget,
               const std::function<Run()> &run)
{
    std::unique_lock lock(mutex_);
    bool helped = true;
    for (auto it = entries_.find(key); it != entries_.end();
         it = entries_.find(key)) {
        if (!it->second.ready) {
            // Run other pending work while the first caller builds;
            // block only once there is none.
            if (helped) {
                lock.unlock();
                helped = WaitHelper::help();
                lock.lock();
            } else {
                built_.wait(lock);
            }
            continue;
        }
        const Run &stored = it->second.run;
        if (budget == 0 || budget >= stored.maxGap)
            return stored;
        lock.unlock();
        return run();
    }

    entries_.emplace(key, Entry{});
    lock.unlock();
    Run done;
    try {
        done = run();
    } catch (...) {
        lock.lock();
        entries_.erase(key);
        built_.notify_all();
        throw;
    }
    lock.lock();
    Entry &entry = entries_.at(key);
    entry.run = done;
    entry.ready = true;
    built_.notify_all();
    return done;
}

std::size_t
PhaseMemo::size() const
{
    std::lock_guard lock(mutex_);
    return entries_.size();
}

std::size_t
PhaseMemo::bytes() const
{
    std::lock_guard lock(mutex_);
    std::size_t total = 0;
    for (const auto &[key, entry] : entries_)
        total += key.capacity() + sizeof(entry);
    return total;
}

} // namespace membw
