#include "obs/trace_export.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"
#include "obs/export.hh"
#include "obs/json.hh"

namespace membw {

#ifdef MEMBW_TRACING_ENABLED

std::string
tracingChromeJson(const std::string &tool)
{
    using tracedetail::FlatEvent;

    std::vector<FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    tracedetail::snapshot(events, dropped, threads);

    // Chrome/Perfetto want ts monotonic per thread track; ring order
    // is span-*end* order, so re-sort by (tid, begin ts).
    std::stable_sort(events.begin(), events.end(),
                     [](const FlatEvent &a, const FlatEvent &b) {
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.ts < b.ts;
                     });

    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.field("tool", tool);
    w.field("dropped_events", dropped);
    w.endObject();
    w.key("traceEvents");
    w.beginArray();

    auto common = [&](const char *ph, const FlatEvent &e) {
        w.field("ph", ph);
        w.field("pid", std::int64_t{1});
        w.field("tid",
                static_cast<std::int64_t>(e.tid));
        w.field("ts", static_cast<double>(e.ts) / 1e3); // us
    };

    // Thread-name metadata first, then the data events.
    w.beginObject();
    w.field("ph", "M");
    w.field("name", "process_name");
    w.field("pid", std::int64_t{1});
    w.key("args");
    w.beginObject();
    w.field("name", tool);
    w.endObject();
    w.endObject();
    for (const auto &[tid, name] : threads) {
        w.beginObject();
        w.field("ph", "M");
        w.field("name", "thread_name");
        w.field("pid", std::int64_t{1});
        w.field("tid", static_cast<std::int64_t>(tid));
        w.key("args");
        w.beginObject();
        w.field("name", name);
        w.endObject();
        w.endObject();
    }

    for (const FlatEvent &e : events) {
        w.beginObject();
        switch (e.kind) {
        case 0: // span -> complete event
            w.field("name", e.name);
            common("X", e);
            w.field("dur", static_cast<double>(e.dur) / 1e3);
            if (!e.detail.empty() || e.open) {
                w.key("args");
                w.beginObject();
                if (!e.detail.empty())
                    w.field("detail", e.detail);
                if (e.open)
                    w.field("open", true);
                w.endObject();
            }
            break;
        case 1: // counter
            w.field("name", e.name);
            common("C", e);
            w.key("args");
            w.beginObject();
            w.field("value", e.value);
            w.endObject();
            break;
        default: // instant
            w.field("name", e.name);
            common("i", e);
            w.field("s", "t");
            if (!e.detail.empty()) {
                w.key("args");
                w.beginObject();
                w.field("detail", e.detail);
                w.endObject();
            }
            break;
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
tracingWriteChromeTrace(const std::string &path,
                        const std::string &tool)
{
    writeFileOrDie(path, tracingChromeJson(tool));
}

namespace {

/** Registered --trace-out destination (one per process). */
std::string g_tracePath;
std::string g_traceTool;
bool g_flushRegistered = false;
bool g_flushed = false;

void
flushAtExit()
{
    if (!g_flushed && !g_tracePath.empty()) {
        g_flushed = true;
        try {
            tracingWriteChromeTrace(g_tracePath, g_traceTool);
        } catch (const FatalError &e) {
            // Exit path: report, never unwind out of atexit.
            std::fprintf(stderr, "%s\n", e.what());
        }
    }
}

} // namespace

void
tracingInit(const std::string &path, const std::string &tool)
{
    // Construct everything flushAtExit() touches *before*
    // registering it: statics die in reverse construction order, so
    // the ring registry (behind tracingStart) must exist first or
    // the exit-time flush reads destroyed objects.
    tracingStart();
    g_tracePath = path;
    g_traceTool = tool;
    g_flushed = false;
    if (!g_flushRegistered) {
        g_flushRegistered = true;
        std::atexit(flushAtExit);
    }
}

#endif // MEMBW_TRACING_ENABLED

} // namespace membw
