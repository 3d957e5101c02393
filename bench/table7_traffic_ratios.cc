/**
 * @file
 * Table 7 reproduction: traffic ratios for 32-byte-block,
 * direct-mapped caches, 1KB-2MB, over the seven SPEC92 traces —
 * plus the Section 4.2 mean-R calculation (~0.5 for caches >=64KB
 * and below the data-set size).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exec/collapsed_sweep.hh"
#include "workloads/workload.hh"

using namespace membw;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 2.0);
    const double scale = opt.scale;
    bench::banner("Table 7: traffic ratios (direct-mapped, 32B "
                  "blocks, write-back)",
                  scale);
    bench::JsonReport report("table7_traffic_ratios", "Table 7", opt);

    const auto sizes = bench::table7Sizes();
    TextTable t;
    {
        std::vector<std::string> header{"Trace"};
        for (Bytes s : sizes)
            header.push_back(formatSize(s));
        t.header(header);
    }

    std::vector<double> mean_pool;
    for (const auto &name : spec92Names()) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        const Bytes data_set = w->nominalDataSetBytes();
        report.addRefs(trace.size());

        // The whole direct-mapped ladder shares one block size, so
        // the one-pass kernel covers every non-skipped cell.
        CollapsedSweep collapsed;
        if (!opt.noCollapse) {
            std::vector<CacheConfig> cfgs;
            for (Bytes s : sizes)
                cfgs.push_back(bench::table7Cache(s));
            collapsed = CollapsedSweep(trace, cfgs, opt.jobs);
        }

        // One cell per cache size, fanned across --jobs workers;
        // the row and the mean pool are assembled serially so the
        // output (and the mean) is identical at any --jobs value.
        const auto ratios = bench::sweep(
            opt, sizes.size(), [&](std::size_t i) -> double {
                if (sizes[i] >= data_set)
                    return -1.0; // skipped: at/above the data set
                if (collapsed.has(i))
                    return collapsed.result(i).trafficRatio;
                return runTrace(trace, bench::table7Cache(sizes[i]))
                    .trafficRatio;
            });

        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (ratios[i] < 0) {
                row.push_back("<<<");
                continue;
            }
            row.push_back(fixed(ratios[i], 2));
            if (sizes[i] >= 64_KiB)
                mean_pool.push_back(ratios[i]);
        }
        t.row(row);

        // Representative run for --profile-out: the 16KB ladder
        // point, replayed per-reference under the profiler.
        bench::profileTraceRun(name, trace,
                               {bench::table7Cache(16_KiB)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Section 4.2: mean R over caches >=64KB and below "
                "the data-set size = %.2f\n(paper: 0.51 — "
                "\"reasonably-sized on-chip caches reduce the "
                "traffic from\nthe processor by about half\").\n",
                mean(mean_pool));
    report.addTable("traffic_ratios", t);
    report.setMeta("mean_r_64k_plus", fixed(mean(mean_pool), 2));
    report.write();
    bench::writeProfile("table7_traffic_ratios", opt);
    return 0;
}
