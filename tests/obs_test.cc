/**
 * @file
 * Unit tests for src/obs: JSON writer/parser round-trips, the stats
 * registry, exporters, run manifests, and the properties the
 * telemetry design promises — registration-order determinism and
 * text-table/JSON numeric agreement.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

// ---------------------------------------------------------------
// JSON writer + parser
// ---------------------------------------------------------------

TEST(Json, NumberFormattingRoundTrips)
{
    EXPECT_EQ(formatJsonNumber(0.0), "0");
    EXPECT_EQ(formatJsonNumber(42.0), "42");
    EXPECT_EQ(formatJsonNumber(0.1), "0.1");
    EXPECT_EQ(formatJsonNumber(1.0 / 3.0),
              formatJsonNumber(1.0 / 3.0));
    // Non-finite values have no JSON representation.
    EXPECT_EQ(formatJsonNumber(1.0 / 0.0), "null");

    const double v = 0.123456789012345;
    EXPECT_DOUBLE_EQ(parseJson(formatJsonNumber(v)).asNumber(), v);
}

TEST(Json, WriterProducesParsableDocument)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "l1.miss_rate");
    w.field("value", 0.25);
    w.field("count", std::uint64_t{123});
    w.field("neg", std::int64_t{-7});
    w.field("flag", true);
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value("two");
    w.null();
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.complete());

    const JsonValue v = parseJson(w.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").asString(), "l1.miss_rate");
    EXPECT_DOUBLE_EQ(v.at("value").asNumber(), 0.25);
    EXPECT_DOUBLE_EQ(v.at("count").asNumber(), 123.0);
    EXPECT_DOUBLE_EQ(v.at("neg").asNumber(), -7.0);
    EXPECT_TRUE(v.at("flag").asBool());
    ASSERT_TRUE(v.at("list").isArray());
    EXPECT_EQ(v.at("list").array.size(), 3u);
    EXPECT_EQ(v.at("list").at(std::size_t{1}).asString(), "two");
    EXPECT_EQ(v.at("list").at(std::size_t{2}).kind,
              JsonValue::Kind::Null);
}

TEST(Json, StringEscapesRoundTrip)
{
    const std::string ugly = "a\"b\\c\n\td\x01e";
    JsonWriter w;
    w.beginObject();
    w.field("s", ugly);
    w.endObject();
    EXPECT_EQ(parseJson(w.str()).at("s").asString(), ugly);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\":1} trailing"), FatalError);
    EXPECT_THROW(parseJson("nul"), FatalError);
    EXPECT_THROW(parseJson(""), FatalError);
}

TEST(Json, ParserPreservesObjectOrder)
{
    const JsonValue v = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "z");
    EXPECT_EQ(v.object[1].first, "a");
    EXPECT_EQ(v.object[2].first, "m");
}

// ---------------------------------------------------------------
// Stats primitives
// ---------------------------------------------------------------

TEST(Stats, DistDataMoments)
{
    DistData d;
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.record(v);
    EXPECT_EQ(d.count, 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0); // classic population example
    EXPECT_DOUBLE_EQ(d.minv, 2.0);
    EXPECT_DOUBLE_EQ(d.maxv, 9.0);
}

TEST(Stats, RatioTracksOperands)
{
    StatsRegistry reg;
    auto &misses = reg.addCounter("misses", "misses");
    auto &accesses = reg.addCounter("accesses", "accesses");
    auto &rate =
        reg.addRatio("miss_rate", "misses / accesses", misses,
                     accesses);

    EXPECT_EQ(rate.numericValue(), 0.0); // 0/0 guarded
    accesses.set(200);
    misses.set(50);
    EXPECT_DOUBLE_EQ(rate.numericValue(), 0.25);
    misses.inc(50);
    EXPECT_DOUBLE_EQ(rate.numericValue(), 0.5); // lazily recomputed
}

TEST(Stats, RegistryLookupAndOrder)
{
    StatsRegistry reg;
    reg.addCounter("b", "second");
    reg.addScalar("a", "first");
    StatsGroup l1 = reg.group("l1");
    l1.addCounter("hits", "hits", "events");
    StatsGroup bytes = l1.group("bytes");
    bytes.addCounter("below", "bytes below", "bytes");

    ASSERT_EQ(reg.size(), 4u);
    // Registration order, not name order.
    EXPECT_EQ(reg.stats()[0]->name(), "b");
    EXPECT_EQ(reg.stats()[1]->name(), "a");
    EXPECT_EQ(reg.stats()[2]->name(), "l1.hits");
    EXPECT_EQ(reg.stats()[3]->name(), "l1.bytes.below");

    ASSERT_NE(reg.find("l1.bytes.below"), nullptr);
    EXPECT_EQ(reg.find("l1.bytes.below")->unit(), "bytes");
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Stats, RegistryRejectsDuplicatesAndEmptyNames)
{
    StatsRegistry reg;
    reg.addCounter("x", "x");
    EXPECT_THROW(reg.addCounter("x", "again"), FatalError);
    EXPECT_THROW(reg.addScalar("x", "other kind"), FatalError);
    EXPECT_THROW(reg.addCounter("", "anonymous"), FatalError);
}

// ---------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------

StatsRegistry &
populate(StatsRegistry &reg)
{
    auto &hits = reg.addCounter("l1.hits", "hit count", "events");
    hits.set(75);
    auto &acc = reg.addCounter("l1.accesses", "accesses", "events");
    acc.set(100);
    reg.addRatio("l1.hit_rate", "hits / accesses", hits, acc);
    reg.addScalar("f_b", "bandwidth-stall fraction").set(0.375);
    auto &occ = reg.addDistribution("core.window_occupancy",
                                    "RUU occupancy", "slots");
    occ.record(1);
    occ.record(3);
    return reg;
}

TEST(Export, JsonRoundTripsAllKinds)
{
    StatsRegistry reg;
    const JsonValue doc = parseJson(exportJson(populate(reg)));
    const JsonValue &stats = doc.at("stats");
    ASSERT_TRUE(stats.isArray());
    ASSERT_EQ(stats.array.size(), 5u);

    EXPECT_EQ(stats.at(std::size_t{0}).at("name").asString(),
              "l1.hits");
    EXPECT_EQ(stats.at(std::size_t{0}).at("kind").asString(),
              "counter");
    EXPECT_DOUBLE_EQ(stats.at(std::size_t{0}).at("value").asNumber(),
                     75.0);
    EXPECT_EQ(stats.at(std::size_t{0}).at("unit").asString(),
              "events");

    const JsonValue &ratio = stats.at(std::size_t{2});
    EXPECT_EQ(ratio.at("kind").asString(), "ratio");
    EXPECT_DOUBLE_EQ(ratio.at("value").asNumber(), 0.75);
    EXPECT_EQ(ratio.at("numerator").asString(), "l1.hits");
    EXPECT_EQ(ratio.at("denominator").asString(), "l1.accesses");

    const JsonValue &dist = stats.at(std::size_t{4});
    EXPECT_EQ(dist.at("kind").asString(), "distribution");
    EXPECT_DOUBLE_EQ(dist.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(dist.at("mean").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(dist.at("min").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(dist.at("max").asNumber(), 3.0);
}

TEST(Export, TextAndCsvContainEveryStat)
{
    StatsRegistry reg;
    populate(reg);
    const std::string text = exportText(reg);
    const std::string csv = exportCsv(reg);
    for (const auto &s : reg.stats()) {
        EXPECT_NE(text.find(s->name()), std::string::npos) << text;
        EXPECT_NE(csv.find(s->name()), std::string::npos) << csv;
    }
    // CSV quotes anything with commas; header plus one line per stat.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, reg.size() + 1);
}

// ---------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------

TEST(Manifest, DigestAndFieldsSurviveRoundTrip)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_NE(fnv1a64("config a"), fnv1a64("config b"));

    RunManifest m;
    m.tool = "membw_sim";
    m.experiment = "Table 7";
    m.workload = "Compress";
    m.config = "64KB/1way/32B";
    m.seed = 42;
    m.scale = 0.5;
    m.refs = 2'000'000;
    m.wallSeconds = 2.0;
    m.set("note", "unit test");

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    m.write(w);
    w.endObject();

    const JsonValue v = parseJson(w.str()).at("manifest");
    EXPECT_DOUBLE_EQ(v.at("schema_version").asNumber(),
                     telemetrySchemaVersion);
    EXPECT_EQ(v.at("tool").asString(), "membw_sim");
    EXPECT_EQ(v.at("workload").asString(), "Compress");
    EXPECT_DOUBLE_EQ(v.at("seed").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(v.at("refs").asNumber(), 2e6);
    EXPECT_DOUBLE_EQ(v.at("mrefs_per_sec").asNumber(), 1.0);
    EXPECT_EQ(v.at("note").asString(), "unit test");
    // The digest is the FNV-1a of the config string, hex-printed.
    char expect[20];
    std::snprintf(expect, sizeof expect, "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64("64KB/1way/32B")));
    EXPECT_EQ(v.at("config_digest").asString(), expect);
}

// ---------------------------------------------------------------
// Simulation-level properties
// ---------------------------------------------------------------

TrafficResult
smallRun(std::uint64_t seed)
{
    WorkloadParams p;
    p.scale = 0.05;
    p.seed = seed;
    const Trace trace = makeWorkload("Compress")->trace(p);
    CacheConfig cfg;
    cfg.size = 16_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    return runTrace(trace, cfg);
}

std::string
statsJsonFor(std::uint64_t seed)
{
    StatsRegistry reg;
    publishStats(reg, smallRun(seed));
    return exportJson(reg);
}

TEST(Determinism, SameSeedRunsEmitByteIdenticalJson)
{
    const std::string a = statsJsonFor(42);
    const std::string b = statsJsonFor(42);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, statsJsonFor(43));
}

TEST(Determinism, PublishedStatsMatchRawCounters)
{
    const TrafficResult r = smallRun(42);
    StatsRegistry reg;
    publishStats(reg, r);

    const JsonValue doc = parseJson(exportJson(reg));
    double accesses = -1, below = -1, ratio = -1;
    for (const auto &s : doc.at("stats").array) {
        const std::string &name = s.at("name").asString();
        if (name == "l1.accesses")
            accesses = s.at("value").asNumber();
        else if (name == "l1.bytes.below")
            below = s.at("value").asNumber();
        else if (name == "hier.traffic_ratio")
            ratio = s.at("value").asNumber();
    }
    EXPECT_DOUBLE_EQ(accesses,
                     static_cast<double>(r.l1.accesses));
    EXPECT_DOUBLE_EQ(below, static_cast<double>(r.l1.trafficBelow()));
    EXPECT_DOUBLE_EQ(ratio, r.trafficRatio);
}

// ---------------------------------------------------------------
// Bench telemetry: the text table and the JSON records must agree
// ---------------------------------------------------------------

TEST(BenchReport, TableCellsMatchJsonRecords)
{
    const TrafficResult r = smallRun(42);

    TextTable t;
    t.header({"Trace", "R", "note"});
    t.row({"Compress", fixed(r.trafficRatio, 4), "<<<"});

    bench::BenchOptions opt;
    opt.scale = 0.05;
    opt.jsonPath = std::string(::testing::TempDir()) +
                   "membw_obs_crosscheck.json";
    bench::JsonReport report("obs_test", "cross-check", opt);
    report.manifest().workload = "Compress";
    report.addRefs(r.l1.accesses);
    report.addTable("ratios", t);
    report.write();

    // Read the file back and compare against the rendered table.
    FILE *f = std::fopen(opt.jsonPath.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        contents.append(buf, n);
    std::fclose(f);
    std::remove(opt.jsonPath.c_str());

    const JsonValue doc = parseJson(contents);
    EXPECT_EQ(doc.at("manifest").at("tool").asString(), "obs_test");
    EXPECT_DOUBLE_EQ(doc.at("manifest").at("refs").asNumber(),
                     static_cast<double>(r.l1.accesses));

    const JsonValue &row =
        doc.at("tables").at("ratios").at(std::size_t{0});
    EXPECT_EQ(row.at("Trace").asString(), "Compress");
    // Numeric cells become JSON numbers with the table's rounding...
    ASSERT_TRUE(row.at("R").isNumber());
    EXPECT_DOUBLE_EQ(row.at("R").asNumber(),
                     std::stod(fixed(r.trafficRatio, 4)));
    // ...and non-numeric cells stay strings.
    EXPECT_TRUE(row.at("note").isString());
    EXPECT_EQ(row.at("note").asString(), "<<<");
}

// ---------------------------------------------------------------
// Bench options: the trace-length scale
// ---------------------------------------------------------------

/** parseOptions over @p args (argv[0] supplied). */
bench::BenchOptions
parseBenchArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseOptions(static_cast<int>(argv.size()),
                               argv.data(), 1.0);
}

TEST(BenchOptions, ParsesScaleFromEverySource)
{
    ::unsetenv("MEMBW_SCALE");
    EXPECT_DOUBLE_EQ(parseBenchArgs({}).scale, 1.0);
    EXPECT_DOUBLE_EQ(parseBenchArgs({"--scale", "0.5"}).scale, 0.5);
    EXPECT_DOUBLE_EQ(parseBenchArgs({"0.25"}).scale, 0.25);
    ::setenv("MEMBW_SCALE", "0.3", 1);
    EXPECT_DOUBLE_EQ(parseBenchArgs({}).scale, 0.3);
    EXPECT_DOUBLE_EQ(parseBenchArgs({"--scale", "2"}).scale, 2.0);
    ::setenv("MEMBW_SCALE", "", 1); // empty counts as unset
    EXPECT_DOUBLE_EQ(parseBenchArgs({}).scale, 1.0);
    ::unsetenv("MEMBW_SCALE");
}

TEST(BenchOptions, RejectsMalformedScale)
{
    ::unsetenv("MEMBW_SCALE");
    const auto exits = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parseBenchArgs({"--scale", "0.5x"}), exits,
                "bad --scale value '0.5x'");
    EXPECT_EXIT(parseBenchArgs({"--scale", "nan"}), exits,
                "bad --scale value 'nan'");
    EXPECT_EXIT(parseBenchArgs({"--scale", "0"}), exits,
                "bad --scale value '0'");
    EXPECT_EXIT(parseBenchArgs({"--scale"}), exits,
                "missing value for --scale");
    EXPECT_EXIT(parseBenchArgs({"1e400"}), exits,
                "bad positional scale value '1e400'");
    EXPECT_EXIT(parseBenchArgs({"0.5x"}), exits,
                "bad positional scale value '0.5x'");
    ::setenv("MEMBW_SCALE", "fast", 1);
    EXPECT_EXIT(parseBenchArgs({}), exits,
                "bad MEMBW_SCALE value 'fast'");
    ::unsetenv("MEMBW_SCALE");
}

} // namespace
} // namespace membw
