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

        // Per size below the data set, a cache cell and its
        // same-size MTC cell.  The cache cells are Table 7's
        // direct-mapped ladder; the MTC cells share one next-use
        // table.  Rows and the running maximum are assembled
        // serially in submission order.
        std::vector<TraceCell> cells;
        for (Bytes s : sizes) {
            if (s >= data_set)
                break;
            cells.push_back(std::vector{bench::table7Cache(s)});
            cells.push_back(canonicalMtc(s));
        }
        const auto out = bench::runCells(opt, trace, cells);

        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (2 * i >= out.size()) {
                row.push_back("<<<"); // skipped: at/above the data set
                continue;
            }
            const double gap =
                trafficInefficiency(out[2 * i].traffic.pinBytes,
                                    out[2 * i + 1].mtc.trafficBelow());
            max_gap = gap > max_gap ? gap : max_gap;
            row.push_back(fixed(gap, 1));
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
