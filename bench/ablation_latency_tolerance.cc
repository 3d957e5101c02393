/**
 * @file
 * Ablation bench (extension beyond the paper's tables): sensitivity
 * of the execution-time decomposition to the individual mechanism
 * knobs — MSHR count, RUU window, prefetching, and bus width.
 *
 * DESIGN.md calls these out as the design choices behind experiments
 * C-F; this bench varies them one at a time around experiment E.
 */

#include <cstdio>

#include "bench/bench_util.hh"
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
    bench::banner("Ablation: latency-tolerance mechanism knobs "
                  "(around experiment E, Swm)",
                  scale);
    bench::JsonReport jreport("ablation_latency_tolerance",
                              "Experiment E knobs", opt);
    jreport.manifest().workload = "Swm";

    const ExperimentConfig base = makeExperiment('E', false);
    std::vector<std::string> labels = {"E (baseline)"};
    std::vector<ExperimentConfig> configs = {base};
    auto variant = [&](const std::string &label) -> ExperimentConfig & {
        labels.push_back(label);
        configs.push_back(base);
        return configs.back();
    };
    for (unsigned mshrs : {1u, 2u, 4u, 16u})
        variant("mshrs=" + std::to_string(mshrs)).mem.mshrs = mshrs;
    for (unsigned window : {4u, 8u, 32u, 64u})
        variant("ruu=" + std::to_string(window)).core.windowSlots =
            window;
    variant("no prefetch").mem.taggedPrefetch = false;
    for (Bytes width : {Bytes{8}, Bytes{32}, Bytes{64}})
        variant("L1/L2 bus " + formatSize(width)).mem.l1l2BusBytes =
            width;
    for (Bytes width : {Bytes{4}, Bytes{16}, Bytes{32}})
        variant("mem bus " + formatSize(width)).mem.memBusBytes = width;

    TextTable t;
    t.header({"variant", "cycles", "f_P", "f_L", "f_B"});
    const JobDecompositions done = decomposeEach(
        {decomposeJob("Swm", scale, WorkloadParams{}.seed, configs)},
        opt.jobs)[0];
    jreport.addRefs(done.streamOps);
    const std::vector<DecompositionResult> &results = done.results;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const DecompositionResult &r = results[i];
        t.row({labels[i], std::to_string(r.split.fullCycles),
               fixed(r.split.fP(), 2), fixed(r.split.fL(), 2),
               fixed(r.split.fB(), 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Expectations: more MSHRs/window shrink f_L but "
                "expose f_B; wider buses\nconvert f_B back into "
                "compute; disabling prefetch re-exposes f_L.\n");
    jreport.addTable("knobs", t);
    jreport.write();
    return 0;
}
