/**
 * @file
 * Shared helpers for the reproduction bench drivers.
 *
 * Every bench binary prints the paper table/figure it regenerates.
 * Pass a positive number as argv[1] (or set MEMBW_SCALE) to scale
 * trace lengths; the default keeps the full suite to a few minutes.
 */

#ifndef MEMBW_BENCH_BENCH_UTIL_HH
#define MEMBW_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "exec/thread_pool.hh"
#include "mtc/min_cache.hh"
#include "obs/epoch_profiler.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/profile_sources.hh"
#include "obs/progress.hh"
#include "obs/trace_export.hh"
#include "obs/trace_span.hh"
#include "serve/sweep_service.hh"
#include "workloads/workload.hh"

namespace membw::bench {

/** CLI error: print and exit instead of unwinding through main. */
[[noreturn]] inline void
cliFatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/** Parse a trace-length scale from @p source (a flag, the positional
 * argument, or $MEMBW_SCALE): a finite number > 0, else exit 1. */
inline double
parseScale(const std::string &text, const std::string &source)
{
    Result<double> v = tryParseScale(text);
    if (!v.ok())
        cliFatal("bad " + source + " value '" + text +
                 "': expected a finite number > 0");
    return v.value();
}

/** Options shared by every bench driver. */
struct BenchOptions
{
    double scale = 1.0;
    std::string jsonPath; ///< --json FILE; empty = no telemetry
    unsigned jobs = defaultJobs(); ///< sweep workers (--jobs N)
    bool stableJson = false; ///< --stable-json: omit wall-clock fields
    /** --no-collapse: force direct per-cell simulation instead of
     * the exact one-pass sweep engines (equivalence testing). */
    bool noCollapse = false;
    std::string traceOut;  ///< --trace-out FILE (Chrome trace JSON)
    std::string profileOut; ///< --profile-out FILE (epoch telemetry)
    std::uint64_t profileEpoch = 0; ///< --profile-epoch N (refs)
};

/**
 * Parse bench arguments: a bare positive number (legacy positional
 * scale), --scale S, --json FILE, --jobs N, --stable-json,
 * --no-collapse, --trace-out FILE, --profile-out FILE, and
 * --profile-epoch N.
 * $MEMBW_SCALE applies when no explicit scale is given; an empty
 * value counts as unset.  Tracing and the profiler are armed here,
 * so drivers need no extra setup.
 */
inline BenchOptions
parseOptions(int argc, char **argv, double dfltScale)
{
    BenchOptions o;
    o.scale = dfltScale;
    if (const char *env = std::getenv("MEMBW_SCALE"); env && *env)
        o.scale = parseScale(env, "MEMBW_SCALE");
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                cliFatal("missing value for " + a);
            return argv[++i];
        };
        if (a == "--scale") {
            o.scale = parseScale(need(), a);
        } else if (a == "--json") {
            o.jsonPath = need();
        } else if (a == "--jobs") {
            const std::string v = need();
            Result<unsigned> jobs = tryParseJobs(v);
            if (!jobs.ok())
                cliFatal("bad --jobs value: " +
                         jobs.error().message);
            o.jobs = jobs.value();
        } else if (a == "--stable-json") {
            o.stableJson = true;
        } else if (a == "--no-collapse") {
            o.noCollapse = true;
        } else if (a == "--trace-out") {
            o.traceOut = need();
        } else if (a == "--profile-out") {
            o.profileOut = need();
        } else if (a == "--profile-epoch") {
            Result<std::uint64_t> n = tryParseU64(need());
            if (!n.ok() || n.value() == 0)
                cliFatal("bad --profile-epoch value");
            o.profileEpoch = n.value();
        } else if (!a.empty() && a[0] != '-') {
            o.scale = parseScale(a, "positional scale");
        } else {
            cliFatal("unknown bench flag '" + a +
                     "' (expected SCALE, --scale S, --json FILE, "
                     "--jobs N, --stable-json, --no-collapse, "
                     "--trace-out FILE, --profile-out FILE, or "
                     "--profile-epoch N)");
        }
    }
    if (o.profileEpoch && o.profileOut.empty())
        cliFatal("--profile-epoch requires --profile-out");
    if (!o.traceOut.empty())
        tracingInit(o.traceOut, argc > 0 ? argv[0] : "bench");
    if (!o.profileOut.empty()) {
        if (o.profileEpoch == 0)
            o.profileEpoch = 65536;
        profilerInit(o.profileOut, o.profileEpoch)
            .setVerbose(logEnabled(LogLevel::Debug));
    }
    return o;
}

/**
 * When --profile-out is armed, replay @p trace through a fresh
 * hierarchy built from @p configs as profiler run @p runName — the
 * bench's *representative run*, simulated per-reference so epoch
 * boundaries land exactly (the sweep cells above it execute
 * concurrently and share no reference clock).  @p pinMBs > 0 records
 * the pin-bandwidth attribute the derived E_pin series needs.
 * No-op when profiling is off.
 */
inline void
profileTraceRun(const std::string &runName, const Trace &trace,
                const std::vector<CacheConfig> &configs,
                double pinMBs = 0.0)
{
    EpochProfiler *prof = profilerActive();
    if (!prof)
        return;
    MEMBW_SPAN_D("profile.representative", runName);
    CacheHierarchy hier(configs);
    prof->beginRun(runName);
    if (pinMBs > 0)
        prof->setRunAttr("pin_mbs", pinMBs);
    attachHierarchySources(*prof, hier);
    hier.attachProbe(prof);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        hier.access(trace[i]);
        prof->advanceTo(i + 1);
    }
    hier.flush();
    prof->endRun(trace.size());
    hier.attachProbe(nullptr);
}

/**
 * Companion representative run over the minimal-traffic cache:
 * steps a MinCacheSim in epoch-sized slices (boundaries land
 * exactly) with the victim-scan probe attached.  No-op when
 * profiling is off.
 */
inline void
profileMtcRun(const std::string &runName, const Trace &trace,
              const MinCacheConfig &config)
{
    EpochProfiler *prof = profilerActive();
    if (!prof)
        return;
    MEMBW_SPAN_D("profile.representative", runName);
    MinCacheSim sim(trace, config);
    prof->beginRun(runName);
    prof->addSource("mtc", minCacheMetricNames(), [&sim] {
        // finalize() folds in the (non-monotonic mid-run) dirty
        // flush only once the run is done; stats() stays monotonic.
        return snapshotMinCacheStats(
            sim.done() ? sim.finalize() : sim.stats(),
            sim.victimScanPops());
    });
    sim.setProbe(prof);
    while (!sim.done()) {
        sim.step(prof->refsToNextTarget(sim.cursor()));
        prof->advanceTo(sim.cursor());
    }
    prof->endRun(sim.cursor());
    sim.setProbe(nullptr);
}

/** Write the --profile-out document and name it on stdout.  No-op
 * when profiling is off. */
inline void
writeProfile(const char *tool, const BenchOptions &opt)
{
    if (!profilerActive())
        return;
    profilerWriteNow(tool);
    std::printf("profile: %s\n", opt.profileOut.c_str());
}

/**
 * Run @p cells over @p trace with one traceCells() call, on the
 * process's one worker pool at --jobs > 1 and with --no-collapse
 * applied.  Results come back in submission order and a failing cell
 * throws, so tables render byte-identically at any --jobs value.
 */
inline std::vector<SweepCellOut>
runCells(const BenchOptions &opt, const Trace &trace,
         const std::vector<TraceCell> &cells)
{
    static std::optional<ThreadPool> pool;
    TraceCellOptions topt;
    topt.sweep.jobs = opt.jobs;
    if (opt.jobs > 1) {
        if (!pool)
            pool.emplace(opt.jobs);
        topt.sweep.pool = &*pool;
    }
    topt.noCollapse = opt.noCollapse;
    return traceCells(trace, cells, topt).cells;
}

/**
 * Structured run report behind every bench binary's --json flag: a
 * RunManifest plus each printed TextTable re-emitted as an array of
 * {column: value} records.  Cells that parse fully as numbers become
 * JSON numbers, so downstream tooling reads the same values the text
 * table shows.  write() is a no-op when --json was not given.
 */
class JsonReport
{
  public:
    JsonReport(std::string tool, std::string experiment,
               const BenchOptions &opt)
        : path_(opt.jsonPath), jobs_(opt.jobs),
          noCollapse_(opt.noCollapse)
    {
        manifest_.tool = std::move(tool);
        manifest_.experiment = std::move(experiment);
        manifest_.scale = opt.scale;
        // --stable-json drops wall-clock fields so that runs at
        // different --jobs values can be diffed byte-for-byte.
        // jobs/collapse describe how the run executed, so they are
        // recorded under the same gate (see write()).
        manifest_.omitTiming = opt.stableJson;
    }

    bool enabled() const { return !path_.empty(); }

    /** Mutable manifest for workload/config/seed fields. */
    RunManifest &manifest() { return manifest_; }

    /** Accumulate simulated references for the Mrefs/s rate. */
    void addRefs(std::uint64_t n) { manifest_.refs += n; }

    /** Attach a free-form manifest field. */
    void
    setMeta(std::string key, std::string value)
    {
        manifest_.set(std::move(key), std::move(value));
    }

    /** Snapshot a rendered table under @p name. */
    void
    addTable(std::string name, const TextTable &table)
    {
        tables_.emplace_back(std::move(name), table);
    }

    /** Emit {"manifest": ..., "tables": {...}} to the --json path. */
    void
    write()
    {
        if (path_.empty())
            return;
        manifest_.wallSeconds = timer_.seconds();
        if (!manifest_.omitTiming) {
            manifest_.set("jobs", std::uint64_t{jobs_});
            manifest_.set("collapse", noCollapse_ ? "off" : "on");
            // Execution provenance, same gate as the simulator
            // manifests: bench traces are always generated in
            // process.
            manifest_.set("trace_format", "generated");
        }
        writeProfileManifest(manifest_, manifest_.omitTiming);
        JsonWriter w;
        w.beginObject();
        w.key("manifest");
        manifest_.write(w);
        w.key("tables");
        w.beginObject();
        for (const auto &[name, table] : tables_) {
            w.key(name);
            w.beginArray();
            for (const auto &row : table.dataRows()) {
                w.beginObject();
                const auto &cols = table.headerCells();
                for (std::size_t c = 0;
                     c < cols.size() && c < row.size(); ++c) {
                    w.key(cols[c]);
                    writeCell(w, row[c]);
                }
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
        w.endObject();
        try {
            writeFileOrDie(path_, w.str());
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what()); // already "fatal: ..."
            std::exit(1);
        }
    }

  private:
    static void
    writeCell(JsonWriter &w, const std::string &cell)
    {
        char *end = nullptr;
        const double v = std::strtod(cell.c_str(), &end);
        if (end != cell.c_str() && *end == '\0')
            w.value(v);
        else
            w.value(cell);
    }

    std::string path_;
    unsigned jobs_ = 1;
    bool noCollapse_ = false;
    RunManifest manifest_;
    WallTimer timer_;
    std::vector<std::pair<std::string, TextTable>> tables_;
};

/** The Table 7/8 cache-size sweep: 1KB..2MB. */
inline std::vector<Bytes>
table7Sizes()
{
    return {1_KiB,  2_KiB,   4_KiB,   8_KiB,   16_KiB, 32_KiB,
            64_KiB, 128_KiB, 256_KiB, 512_KiB, 1_MiB,  2_MiB};
}

/** The paper's Table 7/8 cache: direct-mapped, 32B blocks, WB/WA. */
inline CacheConfig
table7Cache(Bytes size)
{
    CacheConfig c;
    c.size = size;
    c.assoc = 1;
    c.blockBytes = 32;
    return c;
}

/** Banner naming the table/figure being reproduced. */
inline void
banner(const char *what, double scale)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s\n", what);
    std::printf("Burger, Goodman, Kagi: \"Memory Bandwidth "
                "Limitations of Future\nMicroprocessors\" "
                "(ISCA 1996) — membw reproduction, scale %.2f\n",
                scale);
    std::printf("==============================================="
                "=================\n\n");
}

} // namespace membw::bench

#endif // MEMBW_BENCH_BENCH_UTIL_HH
