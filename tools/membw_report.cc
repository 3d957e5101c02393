/**
 * @file
 * membw_report — offline analyzer for --trace-out span traces and
 * --profile-out epoch profiles.
 *
 * The input is read and parsed once; what it holds picks the
 * analyses:
 *
 *   - a Chrome trace-event object (a traceEvents array) gets
 *     self-time per phase (wall time inside each span name minus its
 *     nested children), per-worker utilization (fraction of the trace
 *     window each thread spent inside top-level spans), and the
 *     critical-path cell (the longest sweep cell, with its
 *     config/route detail), and one line per counter track (samples,
 *     time span, last value).
 *   - a membw-profile-v1 object gets a run inventory (epochs,
 *     clamped/dropped, sources), a phase table per run clustering
 *     consecutive epochs into miss-rate regimes, the peak pin-demand
 *     epoch (max per-epoch r_total when the run carries a pin_mbs
 *     attribute, max below-traffic delta otherwise), and the hottest
 *     conflict sets from the churn heatmap.  --csv and --gnuplot dump
 *     the per-epoch columns.
 *
 * Either kind is validated on the way in, so a malformed input exits
 * 1 instead of printing a nonsense table.  A trace must hold complete
 * "X" events with timestamps monotonic per thread track.  A profile's
 * column lengths must agree with its epoch count, and for every ended
 * source the per-epoch columns must sum exactly to the end-of-run
 * aggregate — the delta-snapshot invariant the profiler promises.
 *
 *   membw_report trace.json --top 10
 *   membw_report profile.json --csv epochs.csv --gnuplot missrate.gp
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "obs/emit.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "resilience/exit_codes.hh"

using namespace membw;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "membw_report — analyze a --trace-out span trace or a "
        "--profile-out epoch profile\n\n"
        "  membw_report TRACE.json [--top N]\n"
        "  membw_report PROFILE.json [--csv FILE] [--gnuplot FILE]\n\n"
        "  TRACE.json      Chrome trace-event file from --trace-out\n"
        "  --top N         rows in the self-time table (default "
        "15)\n"
        "  PROFILE.json    membw-profile-v1 file from --profile-out\n"
        "  --csv FILE      long-format per-epoch dump "
        "(run,epoch,end_ref,source,metric,delta)\n"
        "  --gnuplot FILE  gnuplot script plotting per-epoch miss "
        "rates\n\n"
        "A trace prints self time per phase, per-worker utilization,\n"
        "the critical-path (longest) sweep cell, and one line per\n"
        "counter track.  A profile prints the run inventory, a\n"
        "miss-rate phase table per run, the peak pin-demand epoch,\n"
        "and the hottest conflict sets.\n"
        "Exits 1 on a malformed input (incomplete events, non-monotonic\n"
        "per-thread timestamps, ragged profile columns, or epoch sums\n"
        "that disagree with the run aggregate) and 2 on a flag that the\n"
        "input's kind does not take.\n");
    std::exit(code);
}

// ================================================================
// Span traces
// ================================================================

/** One complete ("X") span event, timestamps in microseconds. */
struct Span
{
    std::string name;
    std::string detail;
    std::int64_t tid = 0;
    double ts = 0.0;
    double dur = 0.0;
};

/** One counter track: every "C" event of one name, across threads. */
struct CounterTrack
{
    std::uint64_t samples = 0;
    double firstTs = 0.0; ///< µs
    double lastTs = 0.0;  ///< µs
    double last = 0.0;    ///< value of the latest sample
};

struct TraceDoc
{
    std::vector<Span> spans;
    std::map<std::string, CounterTrack> counterTracks;
    std::map<std::int64_t, std::string> threadNames;
    std::set<std::int64_t> tids; ///< every track with any event
    std::uint64_t counters = 0;
    std::uint64_t instants = 0;
    std::uint64_t dropped = 0;
    std::string tool;
};

double
numField(const JsonValue &ev, const char *key, std::size_t index)
{
    const JsonValue *v = ev.find(key);
    if (!v || !v->isNumber())
        fatal("malformed trace: event " + std::to_string(index) +
              " lacks numeric '" + key + "'");
    return v->number;
}

/** @p evs is the document's traceEvents array. */
TraceDoc
loadTrace(const JsonValue &doc, const JsonValue &evs)
{
    TraceDoc out;
    if (const JsonValue *other = doc.find("otherData")) {
        if (const JsonValue *t = other->find("tool"))
            out.tool = t->isString() ? t->string : "";
        if (const JsonValue *d = other->find("dropped_events"))
            out.dropped =
                d->isNumber() ? static_cast<std::uint64_t>(d->number)
                              : 0;
    }

    // File-order monotonicity per thread track: the exporters sort
    // by (tid, ts), and Perfetto relies on it.
    std::map<std::int64_t, double> lastTs;
    for (std::size_t i = 0; i < evs.array.size(); ++i) {
        const JsonValue &ev = evs.array[i];
        if (!ev.isObject())
            fatal("malformed trace: event " + std::to_string(i) +
                  " is not an object");
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString())
            fatal("malformed trace: event " + std::to_string(i) +
                  " lacks 'ph'");
        const std::string &kind = ph->string;
        if (kind == "M")
            continue; // metadata handled below
        if (kind == "B" || kind == "E")
            fatal("malformed trace: event " + std::to_string(i) +
                  " is an unmatched begin/end ('" + kind +
                  "'); the exporters only emit complete X events");

        const auto tid =
            static_cast<std::int64_t>(numField(ev, "tid", i));
        const double ts = numField(ev, "ts", i);
        auto [it, fresh] = lastTs.try_emplace(tid, ts);
        if (!fresh && ts < it->second)
            fatal("malformed trace: ts not monotonic on tid " +
                  std::to_string(tid) + " at event " +
                  std::to_string(i));
        it->second = ts;
        out.tids.insert(tid);

        if (kind == "C") {
            out.counters++;
            const JsonValue *name = ev.find("name");
            const JsonValue *args = ev.find("args");
            const JsonValue *value = args ? args->find("value") : nullptr;
            if (!name || !name->isString() || !value ||
                !value->isNumber())
                fatal("malformed trace: C event " + std::to_string(i) +
                      " lacks a name or numeric args.value");
            auto [c, first] = out.counterTracks.try_emplace(name->string);
            CounterTrack &track = c->second;
            if (first || ts < track.firstTs)
                track.firstTs = ts;
            if (first || ts >= track.lastTs) {
                track.lastTs = ts;
                track.last = value->number;
            }
            track.samples++;
            continue;
        }
        if (kind == "i") {
            out.instants++;
            continue;
        }
        if (kind != "X")
            fatal("malformed trace: event " + std::to_string(i) +
                  " has unsupported ph '" + kind + "'");

        Span s;
        const JsonValue *name = ev.find("name");
        if (!name || !name->isString())
            fatal("malformed trace: X event " + std::to_string(i) +
                  " lacks a name");
        s.name = name->string;
        s.tid = tid;
        s.ts = ts;
        s.dur = numField(ev, "dur", i);
        if (s.dur < 0)
            fatal("malformed trace: X event " + std::to_string(i) +
                  " has negative dur");
        if (const JsonValue *args = ev.find("args"))
            if (const JsonValue *d = args->find("detail"))
                if (d->isString())
                    s.detail = d->string;
        out.spans.push_back(std::move(s));
    }

    for (const JsonValue &ev : evs.array) {
        const JsonValue *ph = ev.find("ph");
        if (!ph || ph->string != "M")
            continue;
        const JsonValue *name = ev.find("name");
        const JsonValue *tid = ev.find("tid");
        const JsonValue *args = ev.find("args");
        if (name && name->string == "thread_name" && tid &&
            tid->isNumber() && args)
            if (const JsonValue *n = args->find("name"))
                out.threadNames[static_cast<std::int64_t>(
                    tid->number)] = n->string;
    }
    return out;
}

struct PhaseAgg
{
    double selfUs = 0.0;
    double totalUs = 0.0;
    std::uint64_t count = 0;
};

/**
 * Nesting pass over one thread's spans (sorted by begin ts, ties
 * broken longest-first so parents precede their children): a span is
 * a child of the nearest enclosing open span; self = dur − children.
 * Returns the thread's top-level busy time in µs.
 */
double
selfTimes(std::vector<const Span *> &track,
          std::map<std::string, PhaseAgg> &byPhase)
{
    std::stable_sort(track.begin(), track.end(),
                     [](const Span *a, const Span *b) {
                         if (a->ts != b->ts)
                             return a->ts < b->ts;
                         return a->dur > b->dur;
                     });
    struct Open
    {
        const Span *span;
        double childUs = 0.0;
    };
    std::vector<Open> stack;
    double busyUs = 0.0;
    auto close = [&](const Open &top) {
        PhaseAgg &agg = byPhase[top.span->name];
        agg.selfUs += top.span->dur - top.childUs;
        agg.totalUs += top.span->dur;
        agg.count++;
    };
    for (const Span *s : track) {
        while (!stack.empty() &&
               stack.back().span->ts + stack.back().span->dur <=
                   s->ts) {
            close(stack.back());
            stack.pop_back();
        }
        if (stack.empty())
            busyUs += s->dur;
        else
            stack.back().childUs += s->dur;
        stack.push_back(Open{s});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    return busyUs;
}

std::string
fmtMs(double us)
{
    return fixed(us / 1e3, 3);
}

int
reportTrace(const std::string &tracePath, const TraceDoc &doc,
            std::size_t topN)
{
    if (doc.spans.empty()) {
        std::printf("%s: no span events (%llu counters, %llu "
                    "instants, %llu dropped)\n",
                    tracePath.c_str(),
                    static_cast<unsigned long long>(doc.counters),
                    static_cast<unsigned long long>(doc.instants),
                    static_cast<unsigned long long>(doc.dropped));
        return exitOk;
    }

    double beginUs = doc.spans.front().ts, endUs = 0.0;
    for (const Span &s : doc.spans) {
        beginUs = std::min(beginUs, s.ts);
        endUs = std::max(endUs, s.ts + s.dur);
    }
    const double wallUs = endUs - beginUs;

    std::printf("trace: %s (%s)\n", tracePath.c_str(),
                doc.tool.empty() ? "unknown tool" : doc.tool.c_str());
    std::printf("spans %zu | counters %llu | instants %llu | "
                "dropped %llu | threads %zu\n",
                doc.spans.size(),
                static_cast<unsigned long long>(doc.counters),
                static_cast<unsigned long long>(doc.instants),
                static_cast<unsigned long long>(doc.dropped),
                doc.tids.size());
    // Stable machine-readable line for the telemetry golden test.
    std::printf("trace wall seconds: %.6f\n", wallUs / 1e6);

    // ---- self-time per phase ------------------------------------
    std::map<std::int64_t, std::vector<const Span *>> tracks;
    for (const Span &s : doc.spans)
        tracks[s.tid].push_back(&s);

    std::map<std::string, PhaseAgg> byPhase;
    std::map<std::int64_t, double> busyUs;
    for (auto &[tid, track] : tracks)
        busyUs[tid] = selfTimes(track, byPhase);

    std::vector<std::pair<std::string, PhaseAgg>> phases(
        byPhase.begin(), byPhase.end());
    std::sort(phases.begin(), phases.end(),
              [](const auto &a, const auto &b) {
                  return a.second.selfUs > b.second.selfUs;
              });

    TextTable pt;
    pt.header({"phase", "self ms", "total ms", "count", "self %"});
    std::size_t rows = 0;
    for (const auto &[name, agg] : phases) {
        if (rows++ >= topN)
            break;
        pt.row({name, fmtMs(agg.selfUs), fmtMs(agg.totalUs),
                std::to_string(agg.count),
                wallUs > 0 ? fixed(100.0 * agg.selfUs / wallUs, 1)
                           : "0.0"});
    }
    std::printf("\nself time per phase (top %zu of %zu):\n%s\n",
                std::min(topN, phases.size()), phases.size(),
                pt.render().c_str());

    // ---- per-worker utilization ---------------------------------
    TextTable ut;
    ut.header({"tid", "thread", "busy ms", "util %"});
    for (const auto &[tid, busy] : busyUs) {
        const auto nameIt = doc.threadNames.find(tid);
        ut.row({std::to_string(tid),
                nameIt != doc.threadNames.end() ? nameIt->second
                                                : "?",
                fmtMs(busy),
                wallUs > 0 ? fixed(100.0 * busy / wallUs, 1)
                           : "0.0"});
    }
    std::printf("per-worker utilization (window %.3f ms):\n%s\n",
                wallUs / 1e3, ut.render().c_str());

    // ---- critical-path cell -------------------------------------
    const Span *longest = nullptr;
    for (const Span &s : doc.spans)
        if (s.name == "cell" && (!longest || s.dur > longest->dur))
            longest = &s;
    if (longest)
        std::printf("critical-path cell: %.3f ms on tid %lld (%s)\n",
                    longest->dur / 1e3,
                    static_cast<long long>(longest->tid),
                    longest->detail.empty() ? "no detail"
                                            : longest->detail.c_str());
    else
        std::printf("critical-path cell: no sweep cells in trace\n");

    // ---- counter tracks -----------------------------------------
    // Several threads may feed one track, so "last" is the value of
    // the latest timestamp, not of the last event in file order.
    TextTable ct;
    ct.header({"counter", "samples", "span ms", "last"});
    for (const auto &[name, track] : doc.counterTracks)
        ct.row({name, std::to_string(track.samples),
                fmtMs(track.lastTs - track.firstTs),
                formatJsonNumber(track.last)});
    std::printf("\ncounter tracks (%zu):\n%s\n",
                doc.counterTracks.size(), ct.render().c_str());
    return exitOk;
}

// ================================================================
// Epoch profiles
// ================================================================

std::uint64_t
u64Field(const JsonValue &obj, const char *key, const std::string &ctx)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        fatal("malformed profile: " + ctx + " lacks numeric '" + key +
              "'");
    return static_cast<std::uint64_t>(v->number);
}

std::vector<std::uint64_t>
u64Array(const JsonValue &arr, const std::string &ctx)
{
    std::vector<std::uint64_t> out;
    out.reserve(arr.array.size());
    for (const JsonValue &v : arr.array) {
        if (!v.isNumber())
            fatal("malformed profile: non-numeric entry in " + ctx);
        out.push_back(static_cast<std::uint64_t>(v.number));
    }
    return out;
}

struct SourceData
{
    std::string component;
    std::vector<std::string> metrics;
    /** columns[m][e]: metric m's delta over epoch e. */
    std::vector<std::vector<std::uint64_t>> columns;
    std::vector<std::uint64_t> aggregate; ///< empty unless ended
};

struct RunData
{
    std::string name;
    bool ended = false;
    std::uint64_t clamped = 0;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> endRef;
    std::vector<SourceData> sources;
    std::vector<double> rTotal;  ///< derived, empty without pin_mbs
    std::vector<double> epinMbs; ///< derived, empty without pin_mbs
};

struct ProfileDoc
{
    std::string tool;
    std::uint64_t epochRefs = 0;
    std::uint64_t clamped = 0;
    std::uint64_t dropped = 0;
    std::vector<RunData> runs;
};

std::vector<double>
doubleArray(const JsonValue &arr)
{
    std::vector<double> out;
    out.reserve(arr.array.size());
    for (const JsonValue &v : arr.array)
        out.push_back(v.isNumber() ? v.number : 0.0);
    return out;
}

RunData
loadRun(const JsonValue &rv, std::size_t index)
{
    const std::string ctx = "run " + std::to_string(index);
    if (!rv.isObject())
        fatal("malformed profile: " + ctx + " is not an object");
    RunData run;
    const JsonValue *name = rv.find("name");
    if (!name || !name->isString())
        fatal("malformed profile: " + ctx + " lacks a name");
    run.name = name->string;
    if (const JsonValue *e = rv.find("ended"))
        run.ended = e->boolean;
    run.clamped = u64Field(rv, "clamped", ctx);
    run.dropped = u64Field(rv, "dropped", ctx);

    const std::uint64_t epochs = u64Field(rv, "epochs", ctx);
    const JsonValue *endRef = rv.find("end_ref");
    if (!endRef || !endRef->isArray())
        fatal("malformed profile: " + ctx + " lacks end_ref");
    run.endRef = u64Array(*endRef, ctx + " end_ref");
    if (run.endRef.size() != epochs)
        fatal("malformed profile: " + ctx + " declares " +
              std::to_string(epochs) + " epochs but end_ref has " +
              std::to_string(run.endRef.size()));

    const JsonValue *sources = rv.find("sources");
    if (!sources || !sources->isArray())
        fatal("malformed profile: " + ctx + " lacks sources");
    for (const JsonValue &sv : sources->array) {
        const JsonValue *comp = sv.find("component");
        if (!comp || !comp->isString())
            fatal("malformed profile: source in " + ctx +
                  " lacks a component");
        SourceData src;
        src.component = comp->string;
        const std::string sctx = ctx + " source " + src.component;

        const JsonValue *metrics = sv.find("metrics");
        if (!metrics || !metrics->isArray())
            fatal("malformed profile: " + sctx + " lacks metrics");
        for (const JsonValue &m : metrics->array)
            src.metrics.push_back(m.string);

        const JsonValue *cols = sv.find("columns");
        if (!cols || !cols->isArray() ||
            cols->array.size() != src.metrics.size())
            fatal("malformed profile: " + sctx +
                  " columns do not match its metrics");
        for (std::size_t m = 0; m < cols->array.size(); ++m) {
            std::vector<std::uint64_t> col = u64Array(
                cols->array[m], sctx + " column " + src.metrics[m]);
            if (col.size() != epochs)
                fatal("malformed profile: " + sctx + " column '" +
                      src.metrics[m] + "' has " +
                      std::to_string(col.size()) + " entries for " +
                      std::to_string(epochs) + " epochs");
            src.columns.push_back(std::move(col));
        }

        if (const JsonValue *agg = sv.find("aggregate")) {
            src.aggregate = u64Array(*agg, sctx + " aggregate");
            if (src.aggregate.size() != src.metrics.size())
                fatal("malformed profile: " + sctx +
                      " aggregate does not match its metrics");
            // The delta-snapshot invariant: per-epoch deltas sum
            // exactly to the end-of-run aggregate.  Anything else
            // means the writer and sampler disagree — fail loudly.
            for (std::size_t m = 0; m < src.metrics.size(); ++m) {
                std::uint64_t sum = 0;
                for (std::uint64_t d : src.columns[m])
                    sum += d;
                if (sum != src.aggregate[m])
                    fatal("malformed profile: " + sctx + " metric '" +
                          src.metrics[m] + "' epochs sum to " +
                          std::to_string(sum) + " but aggregate is " +
                          std::to_string(src.aggregate[m]));
            }
        } else if (run.ended) {
            fatal("malformed profile: " + sctx +
                  " is ended but has no aggregate");
        }
        run.sources.push_back(std::move(src));
    }

    if (const JsonValue *derived = rv.find("derived")) {
        if (const JsonValue *rt = derived->find("r_total"))
            run.rTotal = doubleArray(*rt);
        if (const JsonValue *ep = derived->find("epin_mbs"))
            run.epinMbs = doubleArray(*ep);
    }
    return run;
}

ProfileDoc
loadProfile(const JsonValue &root)
{
    ProfileDoc doc;
    if (const JsonValue *t = root.find("tool"))
        doc.tool = t->isString() ? t->string : "";
    doc.epochRefs = u64Field(root, "epoch_refs", "top level");
    doc.clamped = u64Field(root, "clamped_epochs", "top level");
    doc.dropped = u64Field(root, "dropped_epochs", "top level");

    const JsonValue *runs = root.find("runs");
    if (!runs || !runs->isArray())
        fatal("malformed profile: no runs array");
    for (std::size_t i = 0; i < runs->array.size(); ++i)
        doc.runs.push_back(loadRun(runs->array[i], i));
    return doc;
}

/** First source exposing both accesses and misses, or nullptr. */
const SourceData *
missRateSource(const RunData &run, std::size_t &accIdx,
               std::size_t &missIdx)
{
    for (const SourceData &s : run.sources) {
        const auto acc = std::find(s.metrics.begin(), s.metrics.end(),
                                   "accesses");
        const auto miss = std::find(s.metrics.begin(),
                                    s.metrics.end(), "misses");
        if (acc != s.metrics.end() && miss != s.metrics.end()) {
            accIdx = static_cast<std::size_t>(acc - s.metrics.begin());
            missIdx =
                static_cast<std::size_t>(miss - s.metrics.begin());
            return &s;
        }
    }
    return nullptr;
}

/** Consecutive epochs whose miss rate stays inside one band. */
struct Regime
{
    std::size_t first = 0; ///< epoch index, inclusive
    std::size_t last = 0;  ///< epoch index, inclusive
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Cluster epochs into miss-rate regimes: an epoch joins the open
 * regime while its rate stays within max(1 point, 25% relative) of
 * the regime's running mean, else it opens a new one.  Coarse by
 * design — the table should show "warm-up, steady state, phase
 * change", not one row per epoch.
 */
std::vector<Regime>
clusterRegimes(const SourceData &src, std::size_t accIdx,
               std::size_t missIdx)
{
    std::vector<Regime> out;
    const std::size_t epochs = src.columns[accIdx].size();
    for (std::size_t e = 0; e < epochs; ++e) {
        const std::uint64_t acc = src.columns[accIdx][e];
        const std::uint64_t miss = src.columns[missIdx][e];
        const double rate =
            acc ? static_cast<double>(miss) / static_cast<double>(acc)
                : 0.0;
        if (!out.empty()) {
            Regime &open = out.back();
            const double mean = open.rate();
            const double band = std::max(0.01, 0.25 * mean);
            if (std::abs(rate - mean) <= band) {
                open.last = e;
                open.accesses += acc;
                open.misses += miss;
                continue;
            }
        }
        Regime r;
        r.first = r.last = e;
        r.accesses = acc;
        r.misses = miss;
        out.push_back(r);
    }
    return out;
}

void
printRun(const RunData &run)
{
    std::string srcNames;
    for (const SourceData &s : run.sources)
        srcNames +=
            (srcNames.empty() ? "" : ", ") + s.component;
    std::printf("\nrun %s: %zu epochs%s, sources: %s\n",
                run.name.c_str(), run.endRef.size(),
                run.ended ? "" : " (not ended)",
                srcNames.empty() ? "none" : srcNames.c_str());
    if (run.clamped || run.dropped)
        std::printf("  %llu clamped epochs, %llu dropped\n",
                    static_cast<unsigned long long>(run.clamped),
                    static_cast<unsigned long long>(run.dropped));

    // ---- miss-rate phase table ----------------------------------
    std::size_t accIdx = 0, missIdx = 0;
    const SourceData *src = missRateSource(run, accIdx, missIdx);
    if (src && !run.endRef.empty()) {
        const auto regimes = clusterRegimes(*src, accIdx, missIdx);
        TextTable t;
        t.header({"phase", "epochs", "end ref", "accesses", "misses",
                  "miss rate"});
        for (std::size_t i = 0; i < regimes.size(); ++i) {
            const Regime &r = regimes[i];
            const std::string span =
                r.first == r.last
                    ? std::to_string(r.first)
                    : std::to_string(r.first) + "-" +
                          std::to_string(r.last);
            t.row({std::to_string(i), span,
                   std::to_string(run.endRef[r.last]),
                   std::to_string(r.accesses),
                   std::to_string(r.misses), fixed(r.rate(), 4)});
        }
        std::printf("  miss-rate phases (%s, %zu regimes):\n%s",
                    src->component.c_str(), regimes.size(),
                    t.render().c_str());
    }

    // ---- peak pin-demand epoch ----------------------------------
    // With a pin_mbs attribute the derived per-epoch r_total is the
    // direct demand signal (Equation 5: E_pin = B_pin / prod R_i);
    // otherwise fall back to the last source's below-traffic delta.
    if (!run.rTotal.empty()) {
        std::size_t peak = 0;
        for (std::size_t e = 1; e < run.rTotal.size(); ++e)
            if (run.rTotal[e] > run.rTotal[peak])
                peak = e;
        std::printf("  peak pin-demand epoch: %zu (end ref %llu, "
                    "r_total %.4f",
                    peak,
                    static_cast<unsigned long long>(run.endRef[peak]),
                    run.rTotal[peak]);
        if (peak < run.epinMbs.size())
            std::printf(", E_pin %.0f MB/s", run.epinMbs[peak]);
        std::printf(")\n");
    } else if (!run.sources.empty() && !run.endRef.empty()) {
        const SourceData &last = run.sources.back();
        const auto below = std::find(last.metrics.begin(),
                                     last.metrics.end(),
                                     "below_bytes");
        if (below != last.metrics.end()) {
            const auto &col = last.columns[static_cast<std::size_t>(
                below - last.metrics.begin())];
            std::size_t peak = 0;
            for (std::size_t e = 1; e < col.size(); ++e)
                if (col[e] > col[peak])
                    peak = e;
            std::printf("  peak pin-demand epoch: %zu (end ref "
                        "%llu, %llu bytes below %s)\n",
                        peak,
                        static_cast<unsigned long long>(
                            run.endRef[peak]),
                        static_cast<unsigned long long>(col[peak]),
                        last.component.c_str());
        }
    }
}

/** The set_churn / region_heat / probe_totals sections of @p root. */
void
printStructural(const JsonValue &root)
{
    const JsonValue *churn = root.find("set_churn");
    if (churn && churn->isArray() && !churn->array.empty()) {
        std::printf("\nhottest conflict sets:\n");
        for (const JsonValue &lv : churn->array) {
            const auto level = static_cast<unsigned long long>(
                lv.at("level").asNumber());
            const auto touched = static_cast<unsigned long long>(
                lv.at("sets_touched").asNumber());
            const auto evict = static_cast<unsigned long long>(
                lv.at("evictions").asNumber());
            std::string tops;
            const JsonValue *top = lv.find("top");
            std::size_t shown = 0;
            if (top && top->isArray())
                for (const JsonValue &t : top->array) {
                    if (shown++ >= 4)
                        break;
                    tops += (tops.empty() ? "" : ", ") + std::string(
                        "set ") +
                        std::to_string(static_cast<std::uint64_t>(
                            t.at("set").asNumber())) +
                        " (" +
                        std::to_string(static_cast<std::uint64_t>(
                            t.at("evictions").asNumber())) +
                        ")";
                }
            std::printf("  level %llu: %llu evictions over %llu "
                        "sets; top: %s\n",
                        level, evict, touched,
                        tops.empty() ? "none" : tops.c_str());
        }
    }

    const JsonValue *heat = root.find("region_heat");
    if (heat && heat->isObject()) {
        const JsonValue *buckets = heat->find("buckets");
        const std::size_t n =
            buckets && buckets->isArray() ? buckets->array.size() : 0;
        if (n) {
            std::size_t hot = 0;
            double total = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const double v = buckets->array[i].number;
                total += v;
                if (v > buckets->array[hot].number)
                    hot = i;
            }
            std::printf("address-region heat: %llu bytes touched in "
                        "%zu buckets; hottest bucket %zu carries "
                        "%.1f%% of traffic\n",
                        static_cast<unsigned long long>(
                            heat->at("touched_bytes").asNumber()),
                        n, hot,
                        total > 0 ? 100.0 *
                                        buckets->array[hot].number /
                                        total
                                  : 0.0);
        }
    }

    if (const JsonValue *totals = root.find("probe_totals")) {
        const auto hits = static_cast<unsigned long long>(
            totals->at("dram_row_hits").asNumber());
        const auto misses = static_cast<unsigned long long>(
            totals->at("dram_row_misses").asNumber());
        const auto pops = static_cast<unsigned long long>(
            totals->at("mtc_scan_pops").asNumber());
        if (hits || misses || pops)
            std::printf("probe totals: %llu DRAM row hits, %llu row "
                        "misses, %llu MTC victim-scan pops\n",
                        hits, misses, pops);
    }
}

/** Long-format CSV: one row per (run, epoch, source, metric). */
std::string
csvDump(const ProfileDoc &doc)
{
    std::string out = "run,epoch,end_ref,source,metric,delta\n";
    for (const RunData &run : doc.runs)
        for (const SourceData &src : run.sources)
            for (std::size_t m = 0; m < src.metrics.size(); ++m)
                for (std::size_t e = 0; e < run.endRef.size(); ++e)
                    out += run.name + "," + std::to_string(e) + "," +
                           std::to_string(run.endRef[e]) + "," +
                           src.component + "," + src.metrics[m] +
                           "," +
                           std::to_string(src.columns[m][e]) + "\n";
    return out;
}

/** Gnuplot script with inline data: per-epoch miss rate per run. */
std::string
gnuplotDump(const ProfileDoc &doc)
{
    std::string out =
        "# membw_report --gnuplot: per-epoch miss rate\n"
        "set xlabel 'references'\n"
        "set ylabel 'miss rate'\n"
        "set key outside\n"
        "set grid\n";
    std::vector<std::string> series;
    for (const RunData &run : doc.runs) {
        std::size_t accIdx = 0, missIdx = 0;
        const SourceData *src = missRateSource(run, accIdx, missIdx);
        if (!src || run.endRef.empty())
            continue;
        const std::string block = "$run" +
                                  std::to_string(series.size());
        out += block + " << EOD\n";
        for (std::size_t e = 0; e < run.endRef.size(); ++e) {
            const std::uint64_t acc = src->columns[accIdx][e];
            const double rate =
                acc ? static_cast<double>(src->columns[missIdx][e]) /
                          static_cast<double>(acc)
                    : 0.0;
            out += std::to_string(run.endRef[e]) + " " +
                   fixed(rate, 6) + "\n";
        }
        out += "EOD\n";
        series.push_back(block + " using 1:2 with linespoints title "
                         "'" + run.name + "'");
    }
    if (series.empty())
        return out + "# no runs with accesses/misses metrics\n";
    out += "plot ";
    for (std::size_t i = 0; i < series.size(); ++i)
        out += (i ? ", \\\n     " : "") + series[i];
    out += "\n";
    return out;
}

int
reportProfile(const std::string &profilePath, const JsonValue &root,
              const std::string &csvPath,
              const std::string &gnuplotPath)
{
    const ProfileDoc doc = loadProfile(root);

    std::size_t ended = 0;
    for (const RunData &r : doc.runs)
        ended += r.ended ? 1 : 0;
    std::printf("profile: %s (%s)\n", profilePath.c_str(),
                doc.tool.empty() ? "unknown tool" : doc.tool.c_str());
    std::printf("epoch %llu refs | runs %zu (%zu ended) | clamped "
                "%llu | dropped %llu\n",
                static_cast<unsigned long long>(doc.epochRefs),
                doc.runs.size(), ended,
                static_cast<unsigned long long>(doc.clamped),
                static_cast<unsigned long long>(doc.dropped));
    // Stable machine-readable line for the e2e cross-check test.
    std::uint64_t totalEpochs = 0;
    for (const RunData &r : doc.runs)
        totalEpochs += r.endRef.size();
    std::printf("profile epochs validated: %llu\n",
                static_cast<unsigned long long>(totalEpochs));

    for (const RunData &run : doc.runs)
        printRun(run);
    printStructural(root);

    if (!csvPath.empty()) {
        writeFileOrDie(csvPath, csvDump(doc));
        std::printf("csv: %s\n", csvPath.c_str());
    }
    if (!gnuplotPath.empty()) {
        writeFileOrDie(gnuplotPath, gnuplotDump(doc));
        std::printf("gnuplot: %s\n", gnuplotPath.c_str());
    }
    return exitOk;
}

/** A flag the input's kind does not take is a usage error. */
void
rejectFlag(const std::string &flag, const std::string &path,
           const char *kind)
{
    if (flag.empty())
        return;
    emitLine(flag + " does not apply to '" + path + "', which is " +
             kind);
    std::exit(exitUsage);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string path, csvPath, gnuplotPath;
        std::size_t topN = 15;
        // The last flag given that only one input kind takes.
        std::string traceFlag, profileFlag;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto need = [&]() -> std::string {
                if (i + 1 >= argc) {
                    emitLinef("missing value for %s", a.c_str());
                    std::exit(exitUsage);
                }
                return argv[++i];
            };
            if (a == "--help" || a == "-h") {
                usage(exitOk);
            } else if (a == "--top") {
                const std::string v = need();
                const auto r = tryParseInt(
                    v, 1, std::numeric_limits<int>::max());
                if (!r.ok()) {
                    emitLine("invalid value '" + v + "' for --top: " +
                             r.error().message +
                             " (example: --top 15)");
                    std::exit(exitUsage);
                }
                topN = static_cast<std::size_t>(r.value());
                traceFlag = a;
            } else if (a == "--csv") {
                csvPath = need();
                profileFlag = a;
            } else if (a == "--gnuplot") {
                gnuplotPath = need();
                profileFlag = a;
            } else if (!a.empty() && a[0] != '-' && path.empty()) {
                path = a;
            } else {
                usage(exitUsage);
            }
        }
        if (path.empty())
            usage(exitUsage);

        const JsonValue doc = parseJson(readFileOrDie(path));
        const JsonValue *schema = doc.find("schema");
        if (schema && schema->isString() &&
            schema->string == "membw-profile-v1") {
            rejectFlag(traceFlag, path, "a membw-profile-v1 profile");
            return reportProfile(path, doc, csvPath, gnuplotPath);
        }
        const JsonValue *evs = doc.find("traceEvents");
        if (evs && evs->isArray()) {
            rejectFlag(profileFlag, path, "a --trace-out trace");
            return reportTrace(path, loadTrace(doc, *evs), topN);
        }
        fatal("'" + path + "' is neither a --trace-out trace nor a "
              "membw-profile-v1 profile");
    } catch (const FatalError &e) {
        emitLine(e.what());
        return exitFatal;
    } catch (const std::exception &e) {
        // Safety net for hostile input: classify as a fatal error
        // instead of letting an exception escape main().
        emitLine(std::string("error: ") + e.what());
        return exitFatal;
    }
}
