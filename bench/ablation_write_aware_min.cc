/**
 * @file
 * Ablation bench: write-aware MIN vs plain MIN.
 *
 * Section 5.2: "We implemented only the min algorithm, and not the
 * optimal write-conscious Horwitz algorithm.  We believe that the
 * disparity between the two is small."  This bench measures the
 * traffic saved by a Horwitz-inspired clean-victim-preference
 * heuristic, checking that claim.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hh"
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
    bench::banner("Ablation: plain MIN vs write-aware MIN "
                  "(the Horwitz disparity, Section 5.2)",
                  scale);
    bench::JsonReport report("ablation_write_aware_min",
                             "Section 5.2", opt);

    TextTable t;
    t.header({"benchmark", "size", "MIN bytes", "aware saved%",
              "MIN(nobyp) bytes", "aware(nobyp) saved%"});
    double worst = 0;
    for (const auto &name : spec92Names()) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        report.addRefs(trace.size());
        const Bytes size = name == "Espresso" ? 16_KiB : 64_KiB;

        // All four variants use word blocks: one next-use table.
        const NextUseTable nextUse = makeNextUseTable(trace, wordBytes);
        auto bytes = [&](bool aware, bool bypass) {
            MinCacheConfig cfg = canonicalMtc(size);
            cfg.writeAware = aware;
            cfg.allowBypass = bypass;
            return runMinCache(trace, cfg, nextUse).trafficBelow();
        };
        auto saved_pct = [](Bytes plain, Bytes aware) {
            return 100.0 * (1.0 - static_cast<double>(aware) /
                                      static_cast<double>(plain));
        };

        // The four MIN variants are independent cells.
        const auto traffic =
            bench::sweep(opt, 4, [&](std::size_t i) -> Bytes {
                return bytes(/*aware=*/i == 1 || i == 3,
                             /*bypass=*/i < 2);
            });
        const Bytes plain = traffic[0];
        const double saved = saved_pct(plain, traffic[1]);
        const Bytes plain_nb = traffic[2];
        const double saved_nb = saved_pct(plain_nb, traffic[3]);
        worst = std::max({worst, saved, saved_nb});

        t.row({name, formatSize(size), std::to_string(plain),
               fixed(saved, 2), std::to_string(plain_nb),
               fixed(saved_nb, 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("With bypass (the canonical MTC), dead blocks "
                "rarely enter the cache, so the\nclean-victim "
                "preference has almost nothing to do.  Without "
                "bypass it can act;\nthe largest saving anywhere is "
                "%.2f%% — %s the paper's claim that the\nMIN/"
                "Horwitz disparity is small enough to ignore.\n",
                worst,
                worst < 5.0 ? "supporting" : "challenging");
    report.addTable("write_aware_min", t);
    report.setMeta("largest_saving_pct", fixed(worst, 2));
    report.write();
    return 0;
}
