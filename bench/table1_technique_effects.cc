/**
 * @file
 * Table 1 reproduction: estimated effects of latency-tolerance
 * techniques and processor trends on the execution-time division.
 *
 * Table 1 is qualitative (up/down arrows for f_P, f_L, f_B); this
 * bench derives the arrows *empirically* by toggling each mechanism
 * in the timing model and comparing the decompositions.  Rows:
 *
 *  A. latency reduction: lockup-free caches, tagged prefetching,
 *     larger cache blocks (hardware/software prefetch variants and
 *     speculative loads are folded into the prefetch/OOO rows);
 *  B. processor trends: faster clock, wider issue, speculative OOO;
 *  C. physical trends: better packaging (wider buses), larger
 *     on-chip memory.
 *
 * The multithreading row is evaluated on the traffic axis (two
 * interleaved contexts sharing the L1 increase total traffic).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/experiment.hh"
#include "serve/decompose_service.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

std::string
arrow(double before, double after, double eps = 0.005)
{
    if (after > before + eps)
        return "up";
    if (after < before - eps)
        return "down";
    return "~";
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 0.4);
    const double scale = opt.scale;
    bench::banner("Table 1: estimated effects on execution "
                  "divisions (derived empirically, Su2cor)",
                  scale);
    bench::JsonReport report("table1_technique_effects", "Table 1",
                             opt);
    report.manifest().workload = "Su2cor";

    // Every distinct machine runs once; each row compares two of them.
    enum Machine { A, B, C, D, E, FastClock, WideIssue, Packaging, OnChip };
    std::vector<ExperimentConfig> machines;
    for (char letter = 'A'; letter <= 'E'; ++letter)
        machines.push_back(makeExperiment(letter, false));

    ExperimentConfig fast = machines[D]; // 2x clock: memory and bus
    fast.mem.l2AccessCycles *= 2;        // latencies double in cycles
    fast.mem.memAccessCycles *= 2;
    fast.mem.busRatio *= 2;
    machines.push_back(fast);

    ExperimentConfig wide = machines[D];
    wide.core.issueWidth = 8;
    wide.core.memPorts = 4;
    machines.push_back(wide);

    ExperimentConfig pkg = machines[E]; // better packaging: wider buses
    pkg.mem.l1l2BusBytes *= 4;
    pkg.mem.memBusBytes *= 4;
    machines.push_back(pkg);

    ExperimentConfig mem = machines[E]; // larger on-chip memory
    mem.mem.l1Size *= 4;
    mem.mem.l2Size *= 4;
    machines.push_back(mem);

    const JobDecompositions done = decomposeEach(
        {decomposeJob("Su2cor", scale, WorkloadParams{}.seed, machines)},
        opt.jobs)[0];
    report.addRefs(done.streamOps);
    const std::vector<DecompositionResult> &results = done.results;

    TextTable t;
    t.header({"technique", "f_P", "f_L", "f_B", "paper f_B"});
    auto row = [&](const std::string &label, Machine before,
                   Machine after, const char *paper_fb) {
        const Decomposition &b = results[before].split;
        const Decomposition &a = results[after].split;
        t.row({label, arrow(b.fP(), a.fP()), arrow(b.fL(), a.fL()),
               arrow(b.fB(), a.fB()), paper_fb});
    };

    // ---- A. latency reduction ----
    row("lockup-free caches", A, C, "up");
    row("larger cache blocks", A, B, "up");
    row("tagged prefetching", D, E, "up");
    row("speculative OOO core", C, D, "up");

    // ---- B. processor trends ----
    row("faster clock speed", D, FastClock, "up");
    row("wider issue", D, WideIssue, "up");

    // ---- C. physical trends ----
    row("better packaging", E, Packaging, "down");
    row("larger on-chip memory", E, OnChip, "down");
    std::printf("%s\n", t.render().c_str());
    report.addTable("technique_arrows", t);

    // ---- multithreading: traffic-axis evidence ----
    {
        WorkloadParams p;
        p.scale = scale;
        WorkloadParams p2 = p;
        p2.seed = 99;
        const Trace t1 = makeWorkload("Su2cor")->trace(p);
        const Trace t2 = makeWorkload("Compress")->trace(p2);

        CacheConfig cfg;
        cfg.size = 64_KiB;
        cfg.assoc = 1;
        cfg.blockBytes = 32;

        // Baseline: each context with a private cache, bytes/ref.
        const double solo_per_ref =
            static_cast<double>(runTrace(t1, cfg).pinBytes +
                                runTrace(t2, cfg).pinBytes) /
            static_cast<double>(t1.size() + t2.size());

        // Interleaved: both contexts share one cache.
        Cache shared(cfg);
        const std::size_t n = std::min(t1.size(), t2.size());
        for (std::size_t i = 0; i < n; ++i) {
            shared.access(t1[i]);
            shared.access(t2[i]);
        }
        shared.flush();
        const double shared_per_ref =
            static_cast<double>(shared.stats().trafficBelow()) /
            static_cast<double>(2 * n);

        std::printf("multithreading: sharing one L1 between two "
                    "contexts raises traffic per\nreference %.0f%% "
                    "(paper: cache interference increases misses "
                    "and total traffic\n— f_B up).\n",
                    100.0 * (shared_per_ref / solo_per_ref - 1.0));
        report.setMeta(
            "multithread_traffic_increase_pct",
            fixed(100.0 * (shared_per_ref / solo_per_ref - 1.0), 1));
    }
    report.write();
    return 0;
}
