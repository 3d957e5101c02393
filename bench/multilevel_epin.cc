/**
 * @file
 * Extension bench: multi-level effective pin bandwidth (Equation 5
 * with k > 1).
 *
 * Section 4 defines E_pin over a *product* of per-level traffic
 * ratios; the paper only measures single-level caches.  This bench
 * exercises the general form: one-, two-, and three-level on-chip
 * hierarchies over the same workloads, reporting each level's R_i,
 * the product, and the resulting effective pin bandwidth.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "metrics/traffic.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

CacheConfig
level(const char *name, Bytes size, unsigned assoc, Bytes block)
{
    CacheConfig c;
    c.name = name;
    c.size = size;
    c.assoc = assoc;
    c.blockBytes = block;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 1.0);
    const double scale = opt.scale;
    bench::banner("Extension: multi-level effective pin bandwidth "
                  "(Equation 5, k = 1..3)",
                  scale);
    bench::JsonReport report("multilevel_epin", "Equation 5", opt);

    const double pin_mb = 800.0;

    for (const char *name : {"Tomcatv", "Compress", "Eqntott"}) {
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = makeWorkload(name)->trace(p);
        report.addRefs(trace.size());

        TextTable t;
        t.header({"hierarchy", "R1", "R2", "R3", "prod R",
                  "E_pin MB/s"});

        const std::vector<std::vector<CacheConfig>> hierarchies = {
            {level("L1", 16_KiB, 1, 32)},
            {level("L1", 16_KiB, 1, 32),
             level("L2", 256_KiB, 4, 64)},
            {level("L1", 16_KiB, 1, 32),
             level("L2", 256_KiB, 4, 64),
             level("L3", 2_MiB, 8, 128)},
        };
        // One cell per hierarchy depth; rows render serially in
        // submission order.  Only the single-level hierarchy fits
        // the one-pass kernel: multi-level cells are simulated
        // directly (inclusion between levels is inherently stateful
        // across the stack).
        const auto out = bench::runCells(
            opt, trace,
            std::vector<TraceCell>(hierarchies.begin(),
                                   hierarchies.end()));
        for (std::size_t h = 0; h < hierarchies.size(); ++h) {
            const auto &configs = hierarchies[h];
            const TrafficResult &r = out[h].traffic;
            std::vector<std::string> row;
            std::string label;
            for (const auto &c : configs)
                label += (label.empty() ? "" : "+") +
                         formatSize(c.size);
            row.push_back(label);
            for (std::size_t i = 0; i < 3; ++i)
                row.push_back(i < r.levelRatios.size()
                                  ? fixed(r.levelRatios[i], 3)
                                  : "-");
            row.push_back(fixed(r.trafficRatio, 4));
            row.push_back(fixed(
                effectivePinBandwidth(pin_mb, r.levelRatios), 0));
            t.row(row);
        }
        std::printf("%s\n%s\n", name, t.render().c_str());
        report.addTable(name, t);

        // Representative run for --profile-out: the deepest (k = 3)
        // hierarchy, whose per-epoch R_i product and E_pin are the
        // time-resolved view of the table above.
        bench::profileTraceRun(name, trace, hierarchies.back(),
                               pin_mb);
    }
    std::printf("Each added level multiplies the traffic filter "
                "(Equation 5) — until the\ndata set is resident and "
                "the marginal R_i stops paying for its area.\n");
    report.write();
    bench::writeProfile("multilevel_epin", opt);
    return 0;
}
