/**
 * @file
 * Figure 3 reproduction: execution-time decomposition under the six
 * latency-tolerance experiments A-F, for the SPEC92 and SPEC95
 * benchmark sets.
 *
 * Bars are printed as normalized execution time (relative to
 * experiment A's processing time T_P, exactly as in the paper) split
 * into f_P / f_L / f_B.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/experiment.hh"
#include "serve/decompose_service.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

std::vector<ExperimentConfig>
machines(bool spec95)
{
    std::vector<ExperimentConfig> configs;
    for (char e = 'A'; e <= 'F'; ++e)
        configs.push_back(makeExperiment(e, spec95));
    return configs;
}

void
printWorkload(const std::string &name, bool spec95,
              const std::vector<ExperimentConfig> &configs,
              const JobDecompositions &job, bench::JsonReport &report)
{
    report.addRefs(job.streamOps);
    const std::vector<DecompositionResult> &results = job.results;
    TextTable t;
    t.header({"exp", "norm T", "f_P", "f_L", "f_B", "IPC", "L1 miss%",
              "mispred"});
    const double base_tp =
        static_cast<double>(results.front().split.perfectCycles);
    for (std::size_t e = 0; e < configs.size(); ++e) {
        const DecompositionResult &r = results[e];
        const double norm =
            static_cast<double>(r.split.fullCycles) / base_tp;
        const double miss_pct =
            r.full.mem.loads
                ? 100.0 * r.full.mem.l1Misses / r.full.mem.loads
                : 0.0;
        t.row({std::string(1, configs[e].letter), fixed(norm, 2),
               fixed(r.split.fP(), 2), fixed(r.split.fL(), 2),
               fixed(r.split.fB(), 2), fixed(r.full.ipc, 2),
               fixed(miss_pct, 1), std::to_string(r.full.mispredicts)});
    }
    std::printf("%s (%zu ops)\n%s\n", name.c_str(), job.streamOps,
                t.render().c_str());
    report.addTable((spec95 ? std::string("spec95/")
                            : std::string("spec92/")) +
                        name,
                    t);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opt =
        bench::parseOptions(argc, argv, 0.5);
    bench::banner(
        "Figure 3: effect of latency-reduction techniques", opt.scale);
    bench::JsonReport report("fig3_decomposition", "Figure 3", opt);
    // Both sets in one call: every stream builds on the pool, and no
    // workload waits for the one before it.
    const std::vector<std::string> sets[] = {spec92Names(),
                                             spec95Names()};
    std::vector<DecomposeJob> jobs;
    for (bool spec95 : {false, true})
        for (const auto &name : sets[spec95])
            jobs.push_back(decomposeJob(name, opt.scale,
                                        WorkloadParams{}.seed,
                                        machines(spec95)));
    const auto done = decomposeEach(jobs, opt.jobs);
    std::size_t j = 0;
    for (bool spec95 : {false, true}) {
        std::printf("---- %s benchmarks ----\n",
                    spec95 ? "SPEC95" : "SPEC92");
        for (const auto &name : sets[spec95]) {
            printWorkload(name, spec95, jobs[j].configs, done[j],
                          report);
            ++j;
        }
    }
    std::printf("Paper's headline: applying latency tolerance "
                "(A->F) grows f_B until it\ngenerally exceeds f_L "
                "— compare the f_L and f_B columns of A vs F.\n");
    report.write();
    return 0;
}
