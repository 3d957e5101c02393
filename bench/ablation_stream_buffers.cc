/**
 * @file
 * Ablation bench: prefetcher traffic overhead — none vs tagged
 * prefetch vs Jouppi stream buffers.
 *
 * Section 2.1 argues every prefetching scheme buys latency with
 * bandwidth: tagged prefetch over-fetches past the end of spatial
 * runs, and "stream buffers prefetch unnecessary data at the end of
 * a stream.  They also falsely identify streams."  This bench
 * measures exactly that overhead on one streaming and two irregular
 * benchmarks.
 */

#include <cstdio>

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
        bench::parseOptions(argc, argv, 1.0);
    const double scale = opt.scale;
    bench::banner("Ablation: prefetcher traffic overhead "
                  "(tagged vs stream buffers)",
                  scale);
    bench::JsonReport report("ablation_stream_buffers", "Section 2.1",
                             opt);

    TextTable t;
    t.header({"benchmark", "variant", "miss%", "traffic KB", "R",
              "overhead%"});

    for (const char *name : {"Swm", "Compress", "Li"}) {
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = makeWorkload(name)->trace(p);
        report.addRefs(trace.size());

        auto cell = [&](bool tagged, unsigned streams) {
            CacheConfig cfg;
            cfg.size = 16_KiB;
            cfg.assoc = 1;
            cfg.blockBytes = 32;
            cfg.taggedPrefetch = tagged;
            cfg.streamBuffers = streams;
            return std::vector{cfg};
        };

        // The three prefetch variants are independent cells.
        const auto out = bench::runCells(
            opt, trace, {cell(false, 0), cell(true, 0), cell(false, 4)});
        const TrafficResult &base = out[0].traffic;
        const TrafficResult &tagged = out[1].traffic;
        const TrafficResult &streams = out[2].traffic;

        auto add = [&](const char *variant,
                       const TrafficResult &r) {
            const double overhead =
                100.0 * (static_cast<double>(r.pinBytes) /
                             static_cast<double>(base.pinBytes) -
                         1.0);
            t.row({name, variant, fixed(r.l1.missRate() * 100, 2),
                   std::to_string(r.pinBytes / 1024),
                   fixed(r.trafficRatio, 3), fixed(overhead, 1)});
        };
        add("none", base);
        add("tagged", tagged);
        add("4 streams", streams);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Streaming code (Swm): prefetch waste is modest and "
                "buys latency.  Irregular\ncodes (Compress, Li): "
                "prefetchers fetch blocks nobody wants — pure "
                "bandwidth\nloss, the Table 1 'up arrow' for f_B.\n");
    report.addTable("prefetch_overhead", t);
    report.write();
    return 0;
}
