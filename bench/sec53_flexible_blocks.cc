/**
 * @file
 * Section 5.3 reproduction: the case for software-controlled
 * (per-application) transfer sizes.
 *
 * "The wide variance in performance based on block size ... indicates
 * that machines of the future will likely have programmable
 * mechanisms to support variable block sizes ... large transfers to
 * minimize request overhead if there is sufficient spatial locality,
 * and small transfers in the absence of spatial locality."
 *
 * For every SPEC92 benchmark this bench finds the traffic-minimizing
 * block size at a fixed cache size and reports the traffic penalty
 * of being forced to the one-size-fits-all 32B (and 128B) designs.
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
    bench::banner("Section 5.3: per-application block-size tuning "
                  "(64KB direct-mapped cache)",
                  scale);
    bench::JsonReport report("sec53_flexible_blocks", "Section 5.3",
                             opt);

    const std::vector<Bytes> blocks = {4, 8, 16, 32, 64, 128};

    // The paper excludes request/address traffic and notes that this
    // "may be biased in favor of smaller blocks".  We report both
    // conventions: data-only (the paper's), and with an 8B
    // request/command overhead per transaction.
    constexpr double request_overhead = 8.0;

    TextTable t;
    t.header({"benchmark", "best blk (data)", "best blk (+req)",
              "R @best", "R @32B", "32B penalty"});

    std::vector<Bytes> winners;
    for (const auto &name : spec92Names()) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        report.addRefs(trace.size());
        const Bytes size =
            name == "Espresso" ? 16_KiB : 64_KiB;

        // One cell per candidate block size; the winner scan below
        // stays serial and ordered.
        std::vector<TraceCell> cells;
        for (Bytes block : blocks) {
            CacheConfig cfg;
            cfg.size = size;
            cfg.assoc = 1;
            cfg.blockBytes = block;
            cells.push_back(std::vector{cfg});
        }
        const auto out = bench::runCells(opt, trace, cells);

        double best_r = 0, best_adj = 0, r32 = 0, best_adj_r = 0;
        Bytes best_block = 0, best_block_adj = 0;
        for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
            const Bytes block = blocks[bi];
            const TrafficResult &res = out[bi].traffic;
            const double r = res.trafficRatio;

            // Transactions below the cache, for request overhead.
            const CacheStats &cs = res.l1;
            const double txns =
                static_cast<double>(cs.demandFetchBytes +
                                    cs.writebackBytes +
                                    cs.flushWritebackBytes) /
                    static_cast<double>(block) +
                static_cast<double>(cs.partialFills);
            const double adj =
                (static_cast<double>(res.pinBytes) +
                 request_overhead * txns) /
                static_cast<double>(res.requestBytes);

            if (best_block == 0 || r < best_r) {
                best_r = r;
                best_block = block;
            }
            if (best_block_adj == 0 || adj < best_adj) {
                best_adj = adj;
                best_block_adj = block;
                best_adj_r = r;
            }
            if (block == 32)
                r32 = r;
        }
        (void)best_adj_r;
        winners.push_back(best_block_adj);
        t.row({name, formatSize(best_block),
               formatSize(best_block_adj), fixed(best_r, 3),
               fixed(r32, 3), fixed(r32 / best_r, 2) + "x"});
    }
    std::printf("%s\n", t.render().c_str());

    bool varied = false;
    for (Bytes b : winners)
        varied = varied || b != winners.front();
    std::printf("Data-only optima sit at the smallest transfer (the "
                "bias the paper concedes);\nwith request overhead "
                "the optima %s per benchmark — \"most benchmarks "
                "can\ngreatly reduce their total traffic ... but "
                "require different sets of cache\nparameters per "
                "benchmark to do so\" (Section 5.3).  The 32B "
                "penalty column is\nthe cost of today's "
                "one-size-fits-all choice: negligible for the "
                "streaming\ncodes, an order of magnitude for "
                "Compress.\n",
                varied ? "diverge" : "agree");
    report.addTable("block_tuning", t);
    report.write();
    return 0;
}
