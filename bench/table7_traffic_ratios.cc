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

        // One cell per cache size below the data set, all in one
        // direct-mapped ladder; the row and the mean pool are
        // assembled serially so the output (and the mean) is
        // identical at any --jobs value.
        std::vector<TraceCell> cells;
        for (Bytes s : sizes) {
            if (s >= data_set)
                break;
            cells.push_back(std::vector{bench::table7Cache(s)});
        }
        const auto out = bench::runCells(opt, trace, cells);

        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (i >= out.size()) {
                row.push_back("<<<"); // skipped: at/above the data set
                continue;
            }
            const double ratio = out[i].traffic.trafficRatio;
            row.push_back(fixed(ratio, 2));
            if (sizes[i] >= 64_KiB)
                mean_pool.push_back(ratio);
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
