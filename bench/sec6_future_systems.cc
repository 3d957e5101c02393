/**
 * @file
 * Section 6 reproduction: the proposed future solutions, measured.
 *
 *  1. Compression ([9]/[12]/[10]): effective pin bandwidth scales
 *     with the compression ratio — quantified against the Table 7
 *     traffic ratios.
 *  2. The unified processor/DRAM system of Figure 5: all system
 *     memory on the processor die (on-chip DRAM banks behind wide,
 *     CPU-clocked paths).  Off-chip accesses disappear; we compare
 *     a conventional experiment-F machine against the "IRAM"-style
 *     configuration on the big-footprint SPEC95 codes.
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

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 0.5);
    const double scale = opt.scale;
    bench::banner("Section 6: future solutions — compression and "
                  "on-chip DRAM",
                  scale);
    bench::JsonReport report("sec6_future_systems", "Section 6", opt);

    // ---- 1. compression as an effective-bandwidth multiplier ----
    {
        WorkloadParams p;
        p.scale = scale;
        const Trace trace = makeWorkload("Swm")->trace(p);
        report.addRefs(trace.size());
        const TrafficResult r =
            runTrace(trace, bench::table7Cache(64_KiB));
        const double pin = 800.0; // MB/s

        TextTable t;
        t.header({"scheme", "ratio", "E_pin MB/s"});
        t.row({"none", "1.0x", fixed(pin / r.trafficRatio, 0)});
        for (double ratio : {1.5, 2.0, 3.0}) {
            t.row({"bus compression", fixed(ratio, 1) + "x",
                   fixed(pin * ratio / r.trafficRatio, 0)});
        }
        std::printf("Compression (Swm, 64KB L1, R=%.2f):\n%s\n",
                    r.trafficRatio, t.render().c_str());
        report.addTable("compression", t);
    }

    // ---- 2. the Figure 5 unified processor/DRAM system ----
    std::printf("Unified processor/DRAM (Figure 5) vs conventional "
                "experiment F:\n\n");
    const ExperimentConfig conv = makeExperiment('F', true);
    // All memory on the die: the "L2" becomes on-chip DRAM banks
    // large enough for the whole data set, reached over a wide,
    // CPU-clocked on-chip path.  There is no off-chip memory; the old
    // memory path never triggers (L2 never misses after cold start).
    ExperimentConfig iram = conv;
    iram.mem.l2Size = 64_MiB;
    iram.mem.l2Assoc = 8;
    iram.mem.l2AccessCycles = 18;  // on-chip DRAM bank access
    iram.mem.l1l2BusBytes = 32;    // wide on-die wiring
    iram.mem.busRatio = 1;         // CPU-clocked
    // Data is resident in the on-die DRAM from the start: the
    // "memory" path behind the L2 is just another on-die bank group,
    // not a pin crossing.
    iram.mem.memAccessCycles = 18;
    iram.mem.memBusBytes = 32;

    const char *const names[] = {"Swim", "Applu", "Vortex"};
    std::vector<DecomposeJob> jobs;
    for (const char *name : names)
        jobs.push_back(decomposeJob(name, scale, WorkloadParams{}.seed,
                                    {conv, iram}));
    const auto done = decomposeEach(jobs, opt.jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const char *const name = names[j];
        report.addRefs(done[j].streamOps);
        const std::vector<DecompositionResult> &results =
            done[j].results;
        const DecompositionResult &rc = results[0];

        TextTable t;
        t.header({"system", "cycles", "f_P", "f_L", "f_B",
                  "speedup"});

        auto row = [&](const char *label,
                       const DecompositionResult &r) {
            t.row({label, std::to_string(r.split.fullCycles),
                   fixed(r.split.fP(), 2), fixed(r.split.fL(), 2),
                   fixed(r.split.fB(), 2),
                   fixed(static_cast<double>(rc.split.fullCycles) /
                             r.split.fullCycles,
                         2)});
        };
        row("conventional F", rc);
        row("on-chip DRAM", results[1]);
        std::printf("%s\n%s\n", name, t.render().c_str());
        report.addTable(std::string("iram/") + name, t);
    }
    std::printf("The paper's long-term bet: once off-chip accesses "
                "are page-fault-rare,\nbandwidth stalls collapse — "
                "\"enabling levels of performance far beyond what\n"
                "we can achieve today\".\n");
    report.write();
    return 0;
}
