/**
 * @file
 * Throughput harness for the simulators themselves: Mrefs/s of the
 * functional cache per workload, serial and with --jobs identical
 * cells fanned through parallelSweep, the single-config
 * set-partitioned ladder kernel, the one-pass sweep engine
 * against direct per-cell simulation, and the serial functional
 * cache on a 2048-way fully associative cell.  --json FILE writes
 * the BENCH_throughput.json document the CI throughput gate reads.
 */

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "exec/collapsed_sweep.hh"
#include "exec/ladder_sweep.hh"
#include "exec/time_partition.hh"
#include "trace/block_stream.hh"
#include "workloads/workload.hh"

namespace {

using namespace membw;

/** Optimization sink for the hand-rolled harness below. */
volatile std::uint64_t g_sink = 0;

/**
 * One serial pass of the functional cache over @p t; returns
 * wall-clock seconds.  With @p prof set, the pass runs with the
 * eviction probe attached and the per-reference epoch compare in the
 * loop — the profiler-attached cost the CI overhead gate compares
 * against a plain run.  Parallel passes always run unprofiled (the
 * profiler is single-threaded).
 */
double
cachePassSeconds(const Trace &t, const CacheConfig &cfg,
                 EpochProfiler *prof = nullptr)
{
    WallTimer timer;
    Cache cache(cfg);
    if (prof)
        cache.setProbe(prof, 0);
    std::size_t done = 0;
    for (const MemRef &r : t) {
        cache.access(r);
        if (prof)
            prof->advanceTo(++done);
    }
    g_sink = g_sink + cache.stats().trafficBelow();
    return timer.seconds();
}

/**
 * Repeat the serial cache pass until it has accumulated at least
 * @p minSeconds of wall-clock and return the aggregate Mrefs/s.
 * Short traces measured as a single pass mostly capture timer and
 * allocation noise; amortising over enough passes fixes that.
 */
double
serialMrefsOnce(const Trace &t, const CacheConfig &cfg,
                double minSeconds)
{
    double total = 0;
    std::size_t passes = 0;
    while (total < minSeconds && passes < 64) {
        total += cachePassSeconds(t, cfg, profilerActive());
        ++passes;
    }
    return total > 0 ? static_cast<double>(t.size()) * passes /
                           total / 1e6
                     : 0.0;
}

/**
 * One single-config pass through the set-partitioned ladder
 * kernel at @p jobs workers — the path membw_sim takes for a plain
 * run at --jobs N.  The decode side is timed too: a real run pays
 * it, so excluding it would inflate the speedup.  Like membw_sim,
 * the pass first attempts the fused-decode kernel (self-validating,
 * no eligibility pre-scan, no materialized BlockStream — every
 * generated workload qualifies); a trace with non-word references
 * aborts that attempt and decodes a stream instead.
 */
double
partitionedPassSeconds(const Trace &t, const CacheConfig &cfg,
                       unsigned jobs)
{
    WallTimer timer;
    PartitionOptions popt;
    popt.jobs = jobs;
    TrafficResult res;
    if (!ladderKernelSupported(cfg) ||
        partitionedLadderRunWord(t, cfg, popt, res) ==
            WordRunOutcome::NotAllWord) {
        const BlockStream stream = buildBlockStream(t, cfg.blockBytes);
        if (auto r = partitionedLadderRun(stream, cfg, popt))
            res = *r;
    }
    g_sink = g_sink + res.pinBytes;
    return timer.seconds();
}

/** Same repetition scheme for the partitioned single-config rate. */
double
partitionedMrefsOnce(const Trace &t, const CacheConfig &cfg,
                     unsigned jobs, double minSeconds)
{
    double total = 0;
    std::size_t passes = 0;
    while (total < minSeconds && passes < 64) {
        total += partitionedPassSeconds(t, cfg, jobs);
        ++passes;
    }
    return total > 0 ? static_cast<double>(t.size()) * passes /
                           total / 1e6
                     : 0.0;
}

/** Same repetition scheme for the parallelSweep aggregate rate. */
double
parallelMrefsOnce(const Trace &t, const CacheConfig &cfg,
                  unsigned jobs, double minSeconds)
{
    double total = 0;
    std::size_t passes = 0;
    while (total < minSeconds && passes < 64) {
        WallTimer w;
        parallelSweep(jobs, jobs, [&](std::size_t) {
            return cachePassSeconds(t, cfg);
        });
        total += w.seconds();
        ++passes;
    }
    return total > 0 ? static_cast<double>(t.size()) * jobs *
                           passes / total / 1e6
                     : 0.0;
}

/**
 * Measure every section, print one line each, and write the JSON
 * document to @p jsonPath when it is non-empty.
 */
int
runThroughputHarness(const std::string &jsonPath, unsigned jobs,
                     double scale, const std::string &profileOut)
{
    struct Row
    {
        std::string workload;
        std::size_t refs = 0;
        double serialMrefs = 0;
        double parallelMrefs = 0;
        double partitionedMrefs = 0;
    };

    CacheConfig cfg;
    // Alpha 21064-class L1: 8 KiB direct-mapped, 32B blocks — the
    // geometry of the paper's era.  In the compact kernel layout
    // (ladder_kernel.hh) a direct-mapped set is one word, so the
    // whole replica stays L1-resident while the per-reference
    // simulator walks its full Cache bookkeeping.
    cfg.size = 8_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;

    constexpr int reps = 5;
    // Each measurement amortises over enough passes to dominate
    // timer/pool start-up noise; without this, short traces report
    // parallel "speedups" below 1.0 that are pure cold-start.
    // Best-of-5 on top lets both the serial and the parallel side
    // sample a comparable host window on shared/noisy machines.
    constexpr double min_runtime = 0.1;
    WallTimer timer;
    std::vector<Row> rows;
    for (const char *name :
         {"Compress", "Swm", "Li", "Tomcatv", "Hydro2d"}) {
        WorkloadParams p;
        p.scale = scale;
        const Trace t = makeWorkload(name)->trace(p);
        Row row;
        row.workload = name;
        row.refs = t.size();

        // Warm-up: one untimed serial pass (faults in the trace) and
        // one untimed fan-out (spins up the worker pool).
        cachePassSeconds(t, cfg);
        parallelSweep(jobs, jobs, [&](std::size_t) {
            return cachePassSeconds(t, cfg);
        });

        for (int rep = 0; rep < reps; ++rep)
            row.serialMrefs =
                std::max(row.serialMrefs,
                         serialMrefsOnce(t, cfg, min_runtime));
        // Aggregate parallel throughput: `jobs` identical cells over
        // the shared trace.  On a single hardware thread this lands
        // near the serial figure (pool overhead only); the speedup
        // column is meaningful on multi-core hosts.
        for (int rep = 0; rep < reps; ++rep)
            row.parallelMrefs = std::max(
                row.parallelMrefs,
                parallelMrefsOnce(t, cfg, jobs, min_runtime));
        // Single-config parallel scaling: ONE configuration through
        // the set-partitioned ladder kernel at `jobs` workers,
        // against the serial per-reference simulator above.  This is
        // the headline the CI throughput gate watches (>= 3x on at
        // least two workloads).
        for (int rep = 0; rep < reps; ++rep)
            row.partitionedMrefs = std::max(
                row.partitionedMrefs,
                partitionedMrefsOnce(t, cfg, jobs, min_runtime));
        rows.push_back(row);
        const double pspeed = row.serialMrefs > 0
                                  ? row.partitionedMrefs /
                                        row.serialMrefs
                                  : 0.0;
        std::printf("%-10s %8zu refs | serial %7.2f Mrefs/s | "
                    "jobs %u %7.2f Mrefs/s | speedup %.2fx | "
                    "partitioned %7.2f Mrefs/s | speedup %.2fx | "
                    "eff %.2f\n",
                    name, row.refs, row.serialMrefs, jobs,
                    row.parallelMrefs,
                    row.serialMrefs > 0
                        ? row.parallelMrefs / row.serialMrefs
                        : 0.0,
                    row.partitionedMrefs, pspeed, pspeed / jobs);
    }

    // One-pass sweep engine vs direct per-cell simulation over the
    // Figure 4 cache-cell set (4-way, 4B-128B blocks, 64B-4MB):
    // the wall-clock ratio recorded here is the headline win of the
    // collapsed sweep and what the perf smoke gate watches.
    const std::vector<Bytes> sweep_sizes = {
        64,     256,     1_KiB, 4_KiB, 16_KiB,
        64_KiB, 256_KiB, 1_MiB, 4_MiB};
    const std::vector<Bytes> sweep_blocks = {4, 8, 16, 32, 64, 128};
    std::vector<CacheConfig> sweep_cfgs;
    for (Bytes size : sweep_sizes) {
        for (Bytes block : sweep_blocks) {
            if (size < block || size / block < 4)
                continue;
            CacheConfig c;
            c.size = size;
            c.assoc = 4;
            c.blockBytes = block;
            sweep_cfgs.push_back(c);
        }
    }
    WorkloadParams sweep_p;
    sweep_p.scale = scale;
    const Trace sweep_trace =
        makeWorkload("Compress")->trace(sweep_p);
    double direct_s = 0, onepass_s = 0;
    for (int rep = 0; rep < reps; ++rep) {
        WallTimer w;
        for (const CacheConfig &c : sweep_cfgs)
            g_sink = g_sink + runTrace(sweep_trace, c).pinBytes;
        direct_s = rep == 0 ? w.seconds()
                            : std::min(direct_s, w.seconds());
    }
    for (int rep = 0; rep < reps; ++rep) {
        WallTimer w;
        const CollapsedSweep collapsed(sweep_trace, sweep_cfgs, 1);
        for (std::size_t i = 0; i < sweep_cfgs.size(); ++i)
            g_sink = g_sink + collapsed.result(i).pinBytes;
        onepass_s = rep == 0 ? w.seconds()
                             : std::min(onepass_s, w.seconds());
    }
    const double sweep_speedup =
        onepass_s > 0 ? direct_s / onepass_s : 0.0;
    std::printf("fig4 cell set (%zu cells): direct %.3fs | one-pass "
                "%.3fs | speedup %.2fx\n",
                sweep_cfgs.size(), direct_s, onepass_s,
                sweep_speedup);

    // Wide sets: Table 9's factor-I cell, 64 KiB fully associative
    // LRU with 32B blocks (2048 ways, WB-WA, stores included), serial
    // through Cache::access.  Every miss picks a victim, so this is
    // the rate the per-set recency list sets.
    CacheConfig wide_cfg;
    wide_cfg.size = 64_KiB;
    wide_cfg.assoc = 0;
    wide_cfg.blockBytes = 32;
    struct WideRow
    {
        std::string workload;
        std::size_t refs = 0;
        double serialMrefs = 0;
    };
    std::vector<WideRow> wide_rows;
    for (const char *name : {"Compress", "Swm"}) {
        WorkloadParams p;
        p.scale = scale;
        const Trace t = makeWorkload(name)->trace(p);
        WideRow row{name, t.size(), 0};
        cachePassSeconds(t, wide_cfg); // warm-up
        for (int rep = 0; rep < reps; ++rep)
            row.serialMrefs =
                std::max(row.serialMrefs,
                         serialMrefsOnce(t, wide_cfg, min_runtime));
        std::printf("wide_lru %-10s %8zu refs | serial %7.2f Mrefs/s "
                    "| %s\n",
                    name, row.refs, row.serialMrefs,
                    wide_cfg.describe().c_str());
        wide_rows.push_back(row);
    }

    RunManifest manifest;
    manifest.tool = "micro_throughput";
    manifest.experiment = "simulator throughput";
    manifest.scale = scale;
    manifest.config = cfg.describe();
    // Aggregate refs across the per-workload rows so the manifest's
    // refs / mrefs_per_sec fields are populated (they used to stay
    // at their zero defaults, breaking downstream rate tooling).
    for (const Row &r : rows)
        manifest.refs += r.refs;
    manifest.wallSeconds = timer.seconds();
    // Numeric on purpose: this used to emit "jobs": "4" (a JSON
    // string), which broke tooling that compared it as a number.
    manifest.set("jobs", std::uint64_t{jobs});

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    manifest.write(w);
    w.key("throughput");
    w.beginArray();
    for (const Row &r : rows) {
        w.beginObject();
        w.field("workload", r.workload);
        w.field("refs", static_cast<std::uint64_t>(r.refs));
        w.field("serial_mrefs_per_s", r.serialMrefs);
        w.field("jobs", static_cast<std::uint64_t>(jobs));
        w.field("parallel_mrefs_per_s", r.parallelMrefs);
        w.field("speedup", r.serialMrefs > 0
                               ? r.parallelMrefs / r.serialMrefs
                               : 0.0);
        const double pspeed =
            r.serialMrefs > 0 ? r.partitionedMrefs / r.serialMrefs
                              : 0.0;
        w.field("partitioned_mrefs_per_s", r.partitionedMrefs);
        w.field("partitioned_speedup", pspeed);
        w.field("scaling_efficiency", pspeed / jobs);
        w.endObject();
    }
    w.endArray();
    w.key("onepass_sweep");
    w.beginObject();
    w.field("workload", std::string("Compress"));
    w.field("cells",
            static_cast<std::uint64_t>(sweep_cfgs.size()));
    w.field("refs",
            static_cast<std::uint64_t>(sweep_trace.size()));
    w.field("direct_s", direct_s);
    w.field("onepass_s", onepass_s);
    w.field("speedup", sweep_speedup);
    w.endObject();
    w.key("wide_lru");
    w.beginArray();
    for (const WideRow &r : wide_rows) {
        w.beginObject();
        w.field("workload", r.workload);
        w.field("config", wide_cfg.describe());
        w.field("refs", static_cast<std::uint64_t>(r.refs));
        w.field("serial_mrefs_per_s", r.serialMrefs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!jsonPath.empty()) {
        try {
            writeFileOrDie(jsonPath, w.str());
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what()); // "fatal: ..."
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (profilerActive()) {
        // No epoch runs (each pass rebuilds its cache), but the
        // probe-fed conflict heatmap from the serial passes is real.
        profilerWriteNow("micro_throughput");
        std::printf("profile: %s\n", profileOut.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const membw::bench::BenchOptions opt =
        membw::bench::parseOptions(argc, argv, 0.2);
    return runThroughputHarness(opt.jsonPath, opt.jobs, opt.scale,
                                opt.profileOut);
}
