/**
 * @file
 * Table 8 reproduction: traffic inefficiencies G = D_cache / D_MTC
 * for 32-byte-block direct-mapped caches against same-size
 * minimal-traffic caches (fully associative, 4B transfers, Belady
 * MIN with bypass, write-validate).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exec/collapsed_sweep.hh"
#include "metrics/traffic.hh"
#include "mtc/min_cache.hh"
#include "workloads/workload.hh"

using namespace membw;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 2.0);
    const double scale = opt.scale;
    bench::banner("Table 8: traffic inefficiencies (cache vs "
                  "minimal-traffic cache)",
                  scale);
    bench::JsonReport report("table8_traffic_inefficiency", "Table 8",
                             opt);

    const auto sizes = bench::table7Sizes();
    TextTable t;
    {
        std::vector<std::string> header{"Trace"};
        for (Bytes s : sizes)
            header.push_back(formatSize(s));
        t.header(header);
    }

    double max_gap = 0;
    for (const auto &name : spec92Names()) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        const Bytes data_set = w->nominalDataSetBytes();
        report.addRefs(trace.size());

        // The cache half of every cell is the same direct-mapped
        // ladder as Table 7, so one ladder pass covers it; the MTC
        // halves share one precomputed next-use side table.
        CollapsedSweep collapsed;
        if (!opt.noCollapse) {
            std::vector<CacheConfig> cfgs;
            for (Bytes s : sizes)
                cfgs.push_back(bench::table7Cache(s));
            collapsed = CollapsedSweep(trace, cfgs, opt.jobs);
        }
        const NextUseTable mtcNextUse =
            makeNextUseTable(trace, wordBytes);

        // One cell per size (the cache run and its same-size MTC
        // pair), fanned across --jobs workers; rows and the running
        // maximum are assembled serially in submission order.
        const auto gaps = bench::sweep(
            opt, sizes.size(), [&](std::size_t i) -> double {
                if (sizes[i] >= data_set)
                    return -1.0; // skipped: at/above the data set
                const TrafficResult cache =
                    collapsed.has(i)
                        ? collapsed.result(i)
                        : runTrace(trace,
                                   bench::table7Cache(sizes[i]));
                const MinCacheStats mtc = runMinCache(
                    trace, canonicalMtc(sizes[i]), mtcNextUse);
                return trafficInefficiency(cache.pinBytes,
                                           mtc.trafficBelow());
            });

        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (gaps[i] < 0) {
                row.push_back("<<<");
                continue;
            }
            max_gap = gaps[i] > max_gap ? gaps[i] : max_gap;
            row.push_back(fixed(gaps[i], 1));
        }
        t.row(row);

        // Representative pair for --profile-out: the 16KB cache and
        // its same-size MTC, each replayed under the profiler.
        bench::profileTraceRun(name, trace,
                               {bench::table7Cache(16_KiB)});
        bench::profileMtcRun(name + "-mtc", trace,
                             canonicalMtc(16_KiB));
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Largest measured gap: %.0fx — the paper reports "
                "gaps \"between one and two\norders of magnitude\", "
                "i.e. effective pin bandwidth could rise that much\n"
                "through better on-chip memory management "
                "(Equation 7).\n",
                max_gap);
    report.addTable("inefficiency", t);
    report.setMeta("max_inefficiency", fixed(max_gap, 1));
    report.write();
    bench::writeProfile("table8_traffic_inefficiency", opt);
    return 0;
}
