/**
 * @file
 * Section 2.2 reproduction: the single-chip multiprocessor argument.
 *
 * "The primary barrier to the implementation of single-chip
 * multiprocessors will not be transistor availability but off-chip
 * memory bandwidth.  If one processor loses performance due to
 * limited pin bandwidth, then multiple processors on a chip will
 * lose far more performance for the same reason."
 *
 * Model: N symmetric cores share the fixed package bandwidth, so
 * each core sees 1/N of the bus bandwidth (beat time scaled by N).
 * We run one core at each share and report per-core slowdown,
 * aggregate chip speedup, and the f_B explosion.
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
    bench::banner("Section 2.2: single-chip multiprocessors vs "
                  "fixed pin bandwidth",
                  scale);
    bench::JsonReport report("sec22_chip_multiprocessor",
                             "Section 2.2", opt);

    const unsigned cores[] = {1, 2, 4, 8};
    std::vector<ExperimentConfig> configs;
    for (unsigned n : cores) {
        ExperimentConfig cfg = makeExperiment('F', false);
        // Fixed package: each of the n cores gets 1/n of the
        // off-chip bus bandwidth (and of the shared L2 bus).
        cfg.mem.busRatio *= n;
        configs.push_back(cfg);
    }

    const char *const names[] = {"Swm", "Compress"};
    std::vector<DecomposeJob> jobs;
    for (const char *name : names)
        jobs.push_back(
            decomposeJob(name, scale, WorkloadParams{}.seed, configs));
    const auto done = decomposeEach(jobs, opt.jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const char *const name = names[j];
        report.addRefs(done[j].streamOps);
        const std::vector<DecompositionResult> &results =
            done[j].results;

        TextTable t;
        t.header({"cores", "per-core T", "slowdown", "chip speedup",
                  "f_P", "f_L", "f_B"});

        const Cycle t1 = results.front().split.fullCycles;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const DecompositionResult &r = results[i];
            const double slowdown =
                static_cast<double>(r.split.fullCycles) /
                static_cast<double>(t1);
            const double chip_speedup = cores[i] / slowdown;
            t.row({std::to_string(cores[i]),
                   std::to_string(r.split.fullCycles),
                   fixed(slowdown, 2), fixed(chip_speedup, 2),
                   fixed(r.split.fP(), 2), fixed(r.split.fL(), 2),
                   fixed(r.split.fB(), 2)});
        }
        std::printf("%s (experiment F core)\n%s\n", name,
                    t.render().c_str());
        report.addTable(name, t);
    }
    std::printf("The paper's point: chip speedup saturates well "
                "below N because every added\ncore dilutes the "
                "per-core pin bandwidth — f_B absorbs the loss.\n");
    report.write();
    return 0;
}
