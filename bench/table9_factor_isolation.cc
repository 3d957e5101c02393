/**
 * @file
 * Tables 9 & 10 reproduction: isolating the factors behind the
 * cache/MTC traffic gap — associativity, replacement policy, block
 * size (for the cache and for the MTC), and write-validate.
 *
 * Each factor is the Table 10 pair of experiments; we report the
 * multiplicative traffic change D(Exp1)/D(Exp2) (>1 means the
 * optimization reduces traffic; <1 means it hurts, the paper's
 * negative Dnasa7 associativity entry).
 */

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
        bench::parseOptions(argc, argv, 2.0);
    const double scale = opt.scale;
    bench::banner("Tables 9/10: inefficiency-gap factor isolation",
                  scale);
    bench::JsonReport report("table9_factor_isolation", "Tables 9/10",
                             opt);

    std::printf("Factor            Exp1                  Exp2\n"
                "I   Associativity LRU, 1-way, 32B, WA   LRU, full, 32B, WA\n"
                "II  Replacement   LRU, full, 32B, WA    MIN, full, 32B, WA\n"
                "III Blk (cache)   LRU, 1-way, 32B, WA   LRU, 1-way, 4B, WA\n"
                "IV  Blk (MTC)     MIN, full, 32B, WA    MIN, full, 4B, WA\n"
                "V   Write valid.  MIN, full, 4B, WA     MIN, full, 4B, WV\n\n");

    TextTable t;
    t.header({"Benchmark", "cache", "I assoc", "II repl",
              "III blk(cache)", "IV blk(MTC)", "V write-val"});

    for (const auto &name : spec92Names()) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = w->trace(p);
        report.addRefs(trace.size());
        // 64KB everywhere except Espresso's 16KB (small data set).
        const Bytes size = name == "Espresso" ? 16_KiB : 64_KiB;

        // Six distinct simulations feed the five ratios, as one
        // cell each.
        auto cache = [&](unsigned assoc, Bytes block) {
            CacheConfig cfg;
            cfg.size = size;
            cfg.assoc = assoc;
            cfg.blockBytes = block;
            return std::vector{cfg};
        };
        auto min = [&](Bytes block, AllocPolicy alloc) {
            MinCacheConfig cfg;
            cfg.size = size;
            cfg.blockBytes = block;
            cfg.alloc = alloc;
            // Pure replacement-policy isolation: bypassing is not
            // isolated as a factor (Section 5.3), so it is disabled.
            cfg.allowBypass = false;
            return cfg;
        };
        const auto out = bench::runCells(
            opt, trace,
            {cache(1, 32), cache(0, 32), cache(1, 4),
             min(32, AllocPolicy::WriteAllocate),
             min(4, AllocPolicy::WriteAllocate),
             min(4, AllocPolicy::WriteValidate)});
        const Bytes dm32 = out[0].traffic.pinBytes;
        const Bytes fa32 = out[1].traffic.pinBytes;
        const Bytes dm4 = out[2].traffic.pinBytes;
        const Bytes min32wa = out[3].mtc.trafficBelow();
        const Bytes min4wa = out[4].mtc.trafficBelow();
        const Bytes min4wv = out[5].mtc.trafficBelow();

        const double assoc = static_cast<double>(dm32) / fa32;
        const double repl = static_cast<double>(fa32) / min32wa;
        const double blk_cache = static_cast<double>(dm32) / dm4;
        const double blk_mtc =
            static_cast<double>(min32wa) / min4wa;
        const double wval = static_cast<double>(min4wa) / min4wv;

        t.row({name, formatSize(size), fixed(assoc, 2),
               fixed(repl, 2), fixed(blk_cache, 2),
               fixed(blk_mtc, 2), fixed(wval, 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Paper's conclusions to check: no single factor "
                "dominates across all\nbenchmarks; block-size "
                "reduction is the largest consistent contributor;\n"
                "MIN replacement helps only codes with intermediate "
                "locality (e.g. it is\nworth ~1x for Swm/Tomcatv); "
                "write-validate is huge for Eqntott.\n");
    report.addTable("factors", t);
    report.write();
    return 0;
}
