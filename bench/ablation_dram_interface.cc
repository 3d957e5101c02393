/**
 * @file
 * Ablation bench: DRAM interface generations vs the pin bottleneck.
 *
 * Section 2.3: "Although bandwidth out of commodity DRAMs is
 * presently a concern, high-bandwidth DRAM chips have already
 * appeared on the market (extended data-out, enhanced, synchronous,
 * and Rambus DRAMs).  DRAM banks are thus unlikely to become a
 * long-term performance bottleneck."  This bench swaps the paper's
 * flat 90ns/infinite-bank memory for banked FPM/EDO/SDRAM/RDRAM
 * models and shows the bottleneck staying at the pins.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/experiment.hh"
#include "dram/dram.hh"
#include "serve/decompose_service.hh"
#include "workloads/workload.hh"

using namespace membw;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 0.5);
    const double scale = opt.scale;
    bench::banner("Ablation: DRAM interface generations "
                  "(experiment F)",
                  scale);
    bench::JsonReport jreport("ablation_dram_interface",
                              "Section 2.3", opt);

    const ExperimentConfig base = makeExperiment('F', false);
    std::vector<std::string> labels = {"flat 90ns (paper)"};
    std::vector<ExperimentConfig> configs = {base};
    for (DramKind kind : {DramKind::FastPageMode, DramKind::EDO,
                          DramKind::Synchronous, DramKind::Rambus}) {
        ExperimentConfig cfg = base;
        cfg.mem.dram = DramConfig::preset(kind, cfg.cpuMHz);
        labels.push_back(cfg.mem.dram->describe());
        configs.push_back(cfg);
    }
    // The counter-experiment: even with the best DRAM, halving the
    // pin (memory-bus) width hurts more than the DRAM generation
    // helps.
    ExperimentConfig narrow = base;
    narrow.mem.dram = DramConfig::preset(DramKind::Rambus, narrow.cpuMHz);
    narrow.mem.memBusBytes /= 2;
    labels.push_back("RDRAM + half pins");
    configs.push_back(narrow);

    const char *const names[] = {"Swm", "Compress"};
    std::vector<DecomposeJob> jobs;
    for (const char *name : names)
        jobs.push_back(
            decomposeJob(name, scale, WorkloadParams{}.seed, configs));
    const auto done = decomposeEach(jobs, opt.jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const char *const name = names[j];
        jreport.addRefs(done[j].streamOps);
        const std::vector<DecompositionResult> &results =
            done[j].results;

        TextTable t;
        t.header({"memory", "cycles", "f_P", "f_L", "f_B",
                  "row hit%"});
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const DecompositionResult &r = results[i];
            const auto &m = r.full.mem;
            const std::uint64_t rows =
                m.dramRowHits + m.dramRowMisses;
            t.row({labels[i], std::to_string(r.split.fullCycles),
                   fixed(r.split.fP(), 2), fixed(r.split.fL(), 2),
                   fixed(r.split.fB(), 2),
                   rows ? fixed(100.0 * m.dramRowHits / rows, 1)
                        : "-"});
        }

        std::printf("%s\n%s\n", name, t.render().c_str());
        jreport.addTable(name, t);
    }
    std::printf("Expected: FPM/EDO slow things down slightly; SDRAM/"
                "RDRAM match the flat\nmodel — while halving pin "
                "width hurts regardless of the DRAM.  The pins,\n"
                "not the DRAM banks, are the long-term "
                "bottleneck.\n");
    jreport.write();
    return 0;
}
