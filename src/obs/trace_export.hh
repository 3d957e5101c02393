/**
 * @file
 * Exporters for the span tracing layer (trace_span.hh):
 *
 *  - tracingInit()/tracingWriteChromeTrace(): flush the per-thread
 *    ring buffers to a Chrome trace-event JSON file ("X" complete
 *    events, "C" counter tracks, "M" thread-name metadata) that
 *    Perfetto and chrome://tracing load directly.
 *
 * Live run counters (refs retired, sweep cells done, pool occupancy)
 * are "C" counter tracks in the same file, recorded with
 * tracingCounter().  Everything is a no-op when tracing is
 * configured out or never initialised, so call sites need no guards.
 */

#ifndef MEMBW_OBS_TRACE_EXPORT_HH
#define MEMBW_OBS_TRACE_EXPORT_HH

#include <cstdint>
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

} // namespace membw

#endif // MEMBW_OBS_TRACE_EXPORT_HH
