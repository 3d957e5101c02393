/**
 * @file
 * Exporters for the span tracing layer (trace_span.hh):
 *
 *  - tracingInit()/tracingWriteChromeTrace(): flush the per-thread
 *    ring buffers to a Chrome trace-event JSON file ("X" complete
 *    events, "C" counter tracks, "M" thread-name metadata) that
 *    Perfetto and chrome://tracing load directly;
 *  - SeriesWriter: an append-only JSONL time series ({"t": seconds,
 *    name: value, ...} per line) sampled from the run's live
 *    counters (refs retired, sweep cells done, pool queue depth,
 *    checkpoint age) on an interval.
 *
 * Both are no-ops when tracing is configured out or never
 * initialised, so call sites need no guards.
 */

#ifndef MEMBW_OBS_TRACE_EXPORT_HH
#define MEMBW_OBS_TRACE_EXPORT_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.hh"

namespace membw {

#ifdef MEMBW_TRACING_ENABLED

namespace tracedetail {

/** Ring snapshot record handed to the exporter. */
struct FlatEvent
{
    std::uint32_t tid = 0;
    std::uint64_t ts = 0;  ///< ns since epoch
    std::uint64_t dur = 0; ///< ns (spans)
    double value = 0.0;    ///< counters
    std::string name;
    std::string detail;
    std::uint8_t kind = 0; ///< Event::Kind
    bool open = false;     ///< span unclosed at flush
};

/** Copy every published event + open span out of the rings. */
void snapshot(std::vector<FlatEvent> &out, std::uint64_t &droppedTotal,
              std::vector<std::pair<std::uint32_t, std::string>> &threads);

} // namespace tracedetail

/**
 * Render the current buffers as a complete Chrome trace-event JSON
 * document.  Per-thread event lists are sorted by begin timestamp,
 * so `ts` is monotonic within each `tid`.  Does not clear buffers.
 */
std::string tracingChromeJson(const std::string &tool);

/** tracingChromeJson() to @p path; fatal() on I/O failure. */
void tracingWriteChromeTrace(const std::string &path,
                             const std::string &tool);

/**
 * Turn recording on and arrange for the trace to be written to
 * @p path when the process exits (std::exit included, so the
 * SIGTERM drain paths flush too).
 */
void tracingInit(const std::string &path, const std::string &tool);

#else // !MEMBW_TRACING_ENABLED

inline std::string
tracingChromeJson(const std::string &)
{
    return "{\n  \"traceEvents\": []\n}";
}
inline void tracingWriteChromeTrace(const std::string &,
                                    const std::string &) {}
inline void tracingInit(const std::string &, const std::string &) {}

#endif // MEMBW_TRACING_ENABLED

/**
 * Interval-sampled JSONL time series.  One writer per process (the
 * --series-out file); every sample() call is cheap when the file is
 * closed or the interval has not elapsed, so hot loops may call it
 * on a stride without further guards.  Thread-safe.
 */
class SeriesWriter
{
  public:
    using Fields =
        std::initializer_list<std::pair<const char *, double>>;

    /** The process-wide writer behind --series-out. */
    static SeriesWriter &global();

    SeriesWriter() = default;
    ~SeriesWriter();
    SeriesWriter(const SeriesWriter &) = delete;
    SeriesWriter &operator=(const SeriesWriter &) = delete;

    /**
     * Open @p path and start the clock.  @p intervalSec is the
     * minimum spacing between un-forced samples (default 250ms).
     * Samples stage into '<path>.tmp'; close() renames the finished
     * series into place, so readers never see a torn file.  A write
     * failure mid-run degrades (drops the series with a warning)
     * rather than killing the simulation.
     */
    void init(const std::string &path, double intervalSec = 0.25);

    bool enabled() const { return file_ != nullptr; }

    /**
     * Append one {"t": seconds, ...fields} line when the interval
     * has elapsed (or always, with @p force).  Returns true when a
     * line was written.
     */
    bool sample(Fields fields, bool force = false);

    /**
     * Flush, close, and rename the staged file into place; further
     * samples are dropped.  Idempotent.
     */
    void close();

    /** Samples written so far. */
    std::uint64_t lines() const { return lines_; }

  private:
    /** Drop the series after a write failure (mutex_ held). */
    void degradeLocked(const std::string &why);

    std::mutex mutex_;
    std::FILE *file_ = nullptr;
    std::string path_;
    std::string tmp_;
    double intervalSec_ = 0.25;
    std::chrono::steady_clock::time_point epoch_{};
    std::chrono::steady_clock::time_point lastSample_{};
    bool sampledOnce_ = false;
    std::uint64_t lines_ = 0;
};

} // namespace membw

#endif // MEMBW_OBS_TRACE_EXPORT_HH
