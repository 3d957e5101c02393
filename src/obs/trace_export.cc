#include "obs/trace_export.hh"

#include <algorithm>
#include <cstdlib>

#include "common/log.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "resilience/fault_injection.hh"

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
    SeriesWriter::global().close();
}

} // namespace

void
tracingInit(const std::string &path, const std::string &tool)
{
    // Construct everything flushAtExit() touches *before*
    // registering it: statics die in reverse construction order, so
    // the ring registry (behind tracingStart) and the series writer
    // must exist first or the exit-time flush reads destroyed
    // objects.
    tracingStart();
    SeriesWriter::global();
    g_tracePath = path;
    g_traceTool = tool;
    g_flushed = false;
    if (!g_flushRegistered) {
        g_flushRegistered = true;
        std::atexit(flushAtExit);
    }
}

#endif // MEMBW_TRACING_ENABLED

// ---------------------------------------------------------------
// SeriesWriter
// ---------------------------------------------------------------

SeriesWriter &
SeriesWriter::global()
{
    static SeriesWriter w;
    return w;
}

SeriesWriter::~SeriesWriter()
{
    close();
}

void
SeriesWriter::init(const std::string &path, double intervalSec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_)
        std::fclose(file_);
    // Stage into '<path>.tmp'; close() renames the completed series
    // into place so a crash mid-run never leaves a half-written file
    // under the real name.
    path_ = path;
    tmp_ = path + ".tmp";
    file_ = std::fopen(tmp_.c_str(), "w");
    if (!file_)
        fatal("cannot open '" + tmp_ + "' for writing");
    intervalSec_ = intervalSec > 0 ? intervalSec : 0.25;
    epoch_ = std::chrono::steady_clock::now();
    sampledOnce_ = false;
    lines_ = 0;
}

bool
SeriesWriter::sample(Fields fields, bool force)
{
    if (!file_)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return false;
    const auto now = std::chrono::steady_clock::now();
    if (!force && sampledOnce_ &&
        std::chrono::duration<double>(now - lastSample_).count() <
            intervalSec_)
        return false;
    lastSample_ = now;
    sampledOnce_ = true;

    std::string line = "{\"t\": ";
    line += formatJsonNumber(
        std::chrono::duration<double>(now - epoch_).count());
    for (const auto &[name, value] : fields) {
        line += ", \"";
        line += name;
        line += "\": ";
        line += formatJsonNumber(value);
    }
    line += "}\n";
    if (MEMBW_FAULT_POINT("series-write")) {
        degradeLocked("injected series write failure");
        return false;
    }
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
            line.size() ||
        std::fflush(file_) != 0) {
        degradeLocked("write error");
        return false;
    }
    ++lines_;
    return true;
}

void
SeriesWriter::degradeLocked(const std::string &why)
{
    // The series is telemetry, not the result: dropping it must not
    // take the simulation down with it.
    warn("series output '" + path_ + "' dropped: " + why);
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_.c_str());
}

void
SeriesWriter::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_) {
        const bool flushed = std::fflush(file_) == 0;
        const bool closed = std::fclose(file_) == 0;
        file_ = nullptr;
        if (!flushed || !closed ||
            std::rename(tmp_.c_str(), path_.c_str()) != 0) {
            warn("series output '" + path_ + "' dropped: "
                 "cannot finalise");
            std::remove(tmp_.c_str());
        }
    }
}

} // namespace membw
