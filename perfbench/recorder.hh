/**
 * @file
 * Call timing for the benchmark driver.
 *
 * Every call the driver makes into a membw layer is wrapped in a
 * Timed scope.  An answer call (one that hands a researcher a sweep,
 * a cell or a phase) always leaves a latency sample.  When the
 * current pass is traced, every scope also leaves a span (name,
 * start, end, parent and thread), kept in memory and written out
 * with the run's results when the run ends.
 */

#ifndef PERFBENCH_RECORDER_HH
#define PERFBENCH_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace perfbench {

/** Steady-clock nanoseconds since the process started. */
std::uint64_t nowNs();

/** Small dense id of the calling thread. */
std::uint32_t threadIndex();

/** Peak resident set size (VmHWM) of process @p pid, "self" for this
 * one, in MiB; 0 if unreadable. */
double peakRssMb(const std::string &pid = "self");

/** Reset the peak resident set to the current one, where the kernel
 * allows it; peakRssMb() then reads the peak since this call. */
void resetPeakRss();

/**
 * Seconds a fixed reference loop takes when @p threads copies run at
 * once (the median copy).  The loop is integer work with table
 * lookups, like the simulators, and links nothing from membw, so no
 * change to the program moves it: it measures how fast the shared
 * host runs at the moment.  harness.py divides pass times by it.
 */
double referenceLoopS(unsigned threads);

struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = no parent
    std::uint32_t thread = 0;
    int pass = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** When a fanned call was handed to the pool (startNs if not). */
    std::uint64_t submitNs = 0;
};

/** Latency of one answer call. */
struct Sample
{
    const char *name = "";
    int pass = 0;
    double ms = 0.0;
    bool ok = true;
};

class Recorder
{
  public:
    /**
     * Start pass @p pass; negative numbers mark set-up rounds and
     * untimed work.  Called only while no call is in flight.
     */
    void beginPass(int pass, bool traced);

    int pass() const { return pass_.load(); }
    bool traced() const { return traced_.load(); }

    std::uint32_t newId() { return nextId_.fetch_add(1) + 1; }

    void add(const Span &span);
    void add(const Sample &sample);
    void fail(const std::string &what);

    /** Answer calls recorded in @p pass so far. */
    std::size_t answers(int pass) const;

    /** Emit "spans", "samples" and "failures" into the open object. */
    void write(membw::JsonWriter &w) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<Sample> samples_;
    std::vector<std::string> failures_;
    std::atomic<std::uint32_t> nextId_{0};
    std::atomic<int> pass_{0};
    std::atomic<bool> traced_{false};
};

/**
 * Times one call from construction to destruction.  An @p answer
 * call leaves a latency sample; every call leaves a span when the
 * pass is traced.  @p submitNs is when a fanned call was queued.
 */
class Timed
{
  public:
    Timed(Recorder &rec, const char *name, std::uint32_t parent = 0,
          bool answer = false, std::uint64_t submitNs = 0);
    ~Timed();

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Id for child spans to name as parent (0 when untraced). */
    std::uint32_t id() const { return span_.id; }

    void markFailed() { ok_ = false; }

  private:
    Recorder &rec_;
    Span span_;
    bool answer_;
    bool ok_ = true;
};

/** Simulated counts of one pass, added to from several threads. */
class Counts
{
  public:
    void add(const std::string &name, double value);
    std::map<std::string, double> values() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
};

/**
 * Run @p fn as the body of call @p t.  An exception marks the call
 * failed and is recorded instead of ending the run.
 */
template <typename Fn>
bool
guard(Recorder &rec, Timed &t, const char *what, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        t.markFailed();
        rec.fail(std::string(what) + ": " + e.what());
        return false;
    }
}

} // namespace perfbench

#endif // PERFBENCH_RECORDER_HH
