/**
 * @file
 * Figure 4 reproduction: total traffic (KB) versus cache size for
 * Compress, Eqntott, and Swm.
 *
 * Series: 4-way set-associative caches with 4B-128B blocks, plus
 * the MTC with write-allocate and with write-validate (the thick
 * lines of the paper's log-log plot).
 */

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exec/collapsed_sweep.hh"
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

        // One independent cell per table entry — cache points plus
        // the two MTC columns — fanned across --jobs workers; rows
        // are rendered serially below, in submission order.
        struct Cell
        {
            bool skipped = false;
            Bytes traffic = 0;
        };
        const std::size_t perRow = blocks.size() + 2;
        const std::size_t nCells = sizes.size() * perRow;

        auto cacheConfigFor =
            [&](std::size_t i) -> std::optional<CacheConfig> {
            const Bytes size = sizes[i / perRow];
            const std::size_t col = i % perRow;
            if (col >= blocks.size())
                return std::nullopt; // MTC column
            const Bytes block = blocks[col];
            if (size < block || size / block < 4)
                return std::nullopt; // skipped cell
            CacheConfig cfg;
            cfg.size = size;
            cfg.assoc = 4;
            cfg.blockBytes = block;
            return cfg;
        };

        // Precompute every ladder-coverable cache cell in one pass
        // per block size; MTC cells share one next-use side table.
        CollapsedSweep collapsed;
        std::vector<std::size_t> slotOf(nCells, nCells);
        if (!opt.noCollapse) {
            std::vector<CacheConfig> cfgs;
            for (std::size_t i = 0; i < nCells; ++i) {
                if (const auto cfg = cacheConfigFor(i)) {
                    slotOf[i] = cfgs.size();
                    cfgs.push_back(*cfg);
                }
            }
            collapsed = CollapsedSweep(trace, cfgs, opt.jobs);
        }
        const NextUseTable mtcNextUse =
            makeNextUseTable(trace, wordBytes);

        const auto cells = bench::sweep(
            opt, nCells, [&](std::size_t i) -> Cell {
                const Bytes size = sizes[i / perRow];
                const std::size_t col = i % perRow;
                if (col < blocks.size()) {
                    const auto cfg = cacheConfigFor(i);
                    if (!cfg)
                        return {true, 0};
                    if (slotOf[i] < nCells &&
                        collapsed.has(slotOf[i]))
                        return {false, collapsed.result(slotOf[i])
                                           .pinBytes};
                    return {false, runTrace(trace, *cfg).pinBytes};
                }
                // MTC lines: fully associative MIN, 4B transfers.
                MinCacheConfig mtc = canonicalMtc(size);
                if (col == blocks.size())
                    mtc.alloc = AllocPolicy::WriteAllocate;
                return {false, runMinCache(trace, mtc, mtcNextUse)
                                   .trafficBelow()};
            });

        for (std::size_t si = 0; si < sizes.size(); ++si) {
            std::vector<std::string> row{formatSize(sizes[si])};
            for (std::size_t col = 0; col < perRow; ++col) {
                const Cell &c = cells[si * perRow + col];
                row.push_back(c.skipped
                                  ? "-"
                                  : std::to_string(c.traffic / 1024) +
                                        "K");
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
