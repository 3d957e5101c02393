/**
 * @file
 * Tests for the span tracing layer (obs/trace_span.hh) and its
 * exporters (obs/trace_export.hh): ring wrap-around accounting,
 * open-span clipping at flush, empty traces, per-thread timestamp
 * monotonicity in the Chrome JSON, the span on a direct cache run,
 * and the phase spans of a decomposition.
 *
 * Every test that records events resets the tracing runtime first;
 * gtest runs tests in one process, and the rings are process-global.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/experiment.hh"
#include "cpu/instr_stream.hh"
#include "obs/json.hh"
#include "obs/trace_export.hh"
#include "obs/trace_span.hh"
#include "workloads/workload.hh"

using namespace membw;

#ifdef MEMBW_TRACING_ENABLED

namespace {

/** Fresh runtime with @p capacity events per thread, recording on. */
void
restartTracing(std::size_t capacity)
{
    tracingStop();
    tracingReset();
    tracingSetCapacity(capacity);
    tracingStart();
}

/** Parse a Chrome trace document and return its traceEvents array. */
JsonValue
traceEventsOf(const std::string &json)
{
    JsonValue doc = parseJson(json);
    const JsonValue *evs = doc.find("traceEvents");
    EXPECT_NE(evs, nullptr);
    return evs ? *evs : JsonValue{};
}

} // namespace

TEST(TraceSpan, RingWrapsAndCountsOverwrites)
{
    restartTracing(8);
    for (int i = 0; i < 20; ++i) {
        MEMBW_SPAN("wrap_span");
    }

    std::vector<tracedetail::FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    tracedetail::snapshot(events, dropped, threads);

    // 20 recorded into an 8-slot ring: the newest 8 survive, the 12
    // oldest were overwritten and must be accounted for.
    EXPECT_EQ(events.size(), 8u);
    EXPECT_EQ(dropped, 12u);
    for (const auto &e : events)
        EXPECT_EQ(e.name, "wrap_span");
    tracingStop();
}

TEST(TraceSpan, OpenSpanClippedAtFlush)
{
    restartTracing(64);
    tracedetail::beginSpan("still_open", "why=sigterm");
    const std::string json = tracingChromeJson("test");
    tracedetail::endSpan(); // clean up before the next test

    const JsonValue evs = traceEventsOf(json);
    bool found = false;
    for (const JsonValue &ev : evs.array) {
        if (ev.at("ph").asString() != "X" ||
            ev.at("name").asString() != "still_open")
            continue;
        found = true;
        EXPECT_GE(ev.at("dur").asNumber(), 0.0);
        EXPECT_TRUE(ev.at("args").at("open").asBool());
        EXPECT_EQ(ev.at("args").at("detail").asString(),
                  "why=sigterm");
    }
    EXPECT_TRUE(found) << "open span missing from flush";
    tracingStop();
}

TEST(TraceSpan, SetSpanDetailRewritesTheInnermostOpenSpan)
{
    restartTracing(64);
    tracingSetSpanDetail("no span open"); // ignored
    {
        MEMBW_SPAN_D("outer", std::string("before"));
        {
            MEMBW_SPAN_D("inner", std::string("before"));
            tracingSetSpanDetail("visits=42%");
        }
    }
    tracingStop();

    std::vector<tracedetail::FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    tracedetail::snapshot(events, dropped, threads);
    std::map<std::string, std::string> detail;
    for (const auto &e : events)
        detail[e.name] = e.detail;
    EXPECT_EQ(detail.size(), 2u);
    EXPECT_EQ(detail["inner"], "visits=42%");
    EXPECT_EQ(detail["outer"], "before");
}

TEST(TraceSpan, EmptyTraceIsWellFormed)
{
    restartTracing(64);
    const std::string json = tracingChromeJson("test");
    const JsonValue evs = traceEventsOf(json);
    // Only metadata (process_name) may be present — no data events.
    for (const JsonValue &ev : evs.array)
        EXPECT_EQ(ev.at("ph").asString(), "M");
    tracingStop();
}

TEST(TraceSpan, CountersAndInstantsExport)
{
    restartTracing(64);
    tracingCounter("queue_depth", 3.0);
    tracingCounter("queue_depth", 5.0);
    tracingInstant("shutdown", "sig=SIGTERM");
    const std::string json = tracingChromeJson("test");
    tracingStop();

    const JsonValue evs = traceEventsOf(json);
    int counters = 0, instants = 0;
    for (const JsonValue &ev : evs.array) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "C") {
            ++counters;
            EXPECT_EQ(ev.at("name").asString(), "queue_depth");
            EXPECT_GE(ev.at("args").at("value").asNumber(), 3.0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(ev.at("args").at("detail").asString(),
                      "sig=SIGTERM");
        }
    }
    EXPECT_EQ(counters, 2);
    EXPECT_EQ(instants, 1);
}

TEST(TraceSpan, PerThreadTimestampsMonotonic)
{
    restartTracing(1 << 10);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < 50; ++i) {
                MEMBW_SPAN("worker_span");
            }
        });
    for (auto &t : threads)
        t.join();
    const std::string json = tracingChromeJson("test");
    tracingStop();

    const JsonValue evs = traceEventsOf(json);
    std::map<std::int64_t, double> lastTs;
    std::size_t spans = 0;
    for (const JsonValue &ev : evs.array) {
        if (ev.at("ph").asString() != "X")
            continue;
        ++spans;
        const auto tid =
            static_cast<std::int64_t>(ev.at("tid").asNumber());
        const double ts = ev.at("ts").asNumber();
        auto [it, fresh] = lastTs.try_emplace(tid, ts);
        EXPECT_TRUE(fresh || ts >= it->second)
            << "ts regressed on tid " << tid;
        it->second = ts;
    }
    EXPECT_EQ(spans, 200u);
}

TEST(TraceSpan, DetailExprNotEvaluatedWhenInactive)
{
    tracingStop();
    int evaluations = 0;
    auto expensive = [&] {
        ++evaluations;
        return std::string("detail");
    };
    {
        MEMBW_SPAN_D("gated", expensive());
    }
    EXPECT_EQ(evaluations, 0);
}

TEST(TraceSpan, DirectCacheRunIsAttributed)
{
    CacheConfig cfg;
    cfg.size = 1_KiB;
    cfg.assoc = 0;
    Trace trace;
    for (Addr a = 0; a < 4_KiB; a += 4)
        trace.append(a, 4, RefKind::Load);

    restartTracing(64);
    runTrace(trace, cfg);
    tracingStop();

    std::vector<tracedetail::FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    tracedetail::snapshot(events, dropped, threads);
    const auto span = std::find_if(
        events.begin(), events.end(),
        [](const auto &e) { return e.name == "cache.run_trace"; });
    ASSERT_NE(span, events.end());
    EXPECT_EQ(span->detail, cfg.describe());
    EXPECT_FALSE(span->open);
}

TEST(TraceSpan, DecompositionRecordsEveryPhase)
{
    WorkloadParams p;
    p.scale = 0.01;
    const InstrStream stream =
        InstrStream::fromRun(makeWorkload("Swm")->run(p));

    restartTracing(64);
    runDecomposition(stream, makeExperiment('A', false));
    tracingStop();

    std::vector<tracedetail::FlatEvent> events;
    std::uint64_t dropped = 0;
    std::vector<std::pair<std::uint32_t, std::string>> threads;
    tracedetail::snapshot(events, dropped, threads);
    std::vector<std::string> phases;
    for (const auto &e : events)
        if (e.name == "phase") {
            EXPECT_FALSE(e.open);
            phases.push_back(e.detail);
        }
    std::sort(phases.begin(), phases.end());
    EXPECT_EQ(phases, (std::vector<std::string>{"full", "infinite-width",
                                                "perfect"}));
}

#endif // MEMBW_TRACING_ENABLED
