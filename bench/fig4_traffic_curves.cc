/**
 * @file
 * Figure 4 reproduction: total traffic (KB) versus cache size for
 * Compress, Eqntott, and Swm.
 *
 * Series: 4-way set-associative caches with 4B-128B blocks, plus
 * the MTC with write-allocate and with write-validate (the thick
 * lines of the paper's log-log plot).
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "mtc/min_cache.hh"
#include "workloads/workload.hh"

using namespace membw;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 1.0);
    const double scale = opt.scale;
    bench::banner("Figure 4: total traffic by cache and MTC size",
                  scale);
    bench::JsonReport report("fig4_traffic_curves", "Figure 4", opt);

    const std::vector<Bytes> sizes = {
        64,     256,    1_KiB,   4_KiB, 16_KiB,
        64_KiB, 256_KiB, 1_MiB, 4_MiB};
    const std::vector<Bytes> blocks = {4, 8, 16, 32, 64, 128};

    for (const char *name : {"Compress", "Eqntott", "Swm"}) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        report.addRefs(trace.size());

        TextTable t;
        {
            std::vector<std::string> header{"size"};
            for (Bytes b : blocks)
                header.push_back(formatSize(b) + " blk");
            header.push_back("MTC-WA");
            header.push_back("MTC-WV");
            t.header(header);
        }

        // One cell per table entry — cache points plus the two MTC
        // columns, which share one next-use table — and none for a
        // skipped entry; rows are rendered serially below, in
        // submission order.
        const std::size_t perRow = blocks.size() + 2;
        const std::size_t skipped = SIZE_MAX;
        std::vector<TraceCell> cells;
        std::vector<std::size_t> cellOf; // per table entry
        for (Bytes size : sizes) {
            for (std::size_t col = 0; col < perRow; ++col) {
                if (col < blocks.size()) {
                    const Bytes block = blocks[col];
                    if (size < block || size / block < 4) {
                        cellOf.push_back(skipped);
                        continue;
                    }
                    CacheConfig cfg;
                    cfg.size = size;
                    cfg.assoc = 4;
                    cfg.blockBytes = block;
                    cells.push_back(std::vector{cfg});
                } else {
                    // MTC lines: fully associative MIN, 4B transfers.
                    MinCacheConfig mtc = canonicalMtc(size);
                    if (col == blocks.size())
                        mtc.alloc = AllocPolicy::WriteAllocate;
                    cells.push_back(mtc);
                }
                cellOf.push_back(cells.size() - 1);
            }
        }
        const auto out = bench::runCells(opt, trace, cells);

        for (std::size_t si = 0; si < sizes.size(); ++si) {
            std::vector<std::string> row{formatSize(sizes[si])};
            for (std::size_t col = 0; col < perRow; ++col) {
                const std::size_t c = cellOf[si * perRow + col];
                if (c == skipped) {
                    row.push_back("-");
                    continue;
                }
                const Bytes traffic = col < blocks.size()
                                          ? out[c].traffic.pinBytes
                                          : out[c].mtc.trafficBelow();
                row.push_back(std::to_string(traffic / 1024) + "K");
            }
            t.row(row);
        }
        std::printf("%s (%zu refs)\n%s\n", name,
                    trace.size(), t.render().c_str());
        report.addTable(name, t);

        // Representative run for --profile-out: the 16KB 4-way 32B
        // sweep point, replayed per-reference under the profiler.
        CacheConfig rep;
        rep.size = 16_KiB;
        rep.assoc = 4;
        rep.blockBytes = 32;
        bench::profileTraceRun(name, trace, {rep});
    }
    std::printf("Expected shapes: Compress's traffic grows with "
                "every block-size doubling\n(no spatial locality); "
                "Swm converges for big caches; the MTC lines sit\n"
                "well below every cache line (the traffic-"
                "inefficiency gap).\n");
    report.write();
    bench::writeProfile("fig4_traffic_curves", opt);
    return 0;
}
