/**
 * @file
 * Table 6 reproduction: latency vs bandwidth stall percentages for
 * experiments A and F, for the non-cache-bound benchmarks.
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
    bench::banner("Table 6: latency vs bandwidth stalls, A vs F",
                  scale);
    bench::JsonReport report("table6_stall_comparison", "Table 6",
                             opt);

    // The paper's Table 6 set: everything not cache-bound
    // (Espresso, Eqntott, and Li are excluded).
    struct Row
    {
        const char *name;
        bool spec95;
    };
    const Row rows[] = {
        {"Compress", false}, {"Su2cor", false}, {"Tomcatv", false},
        {"Applu", true},     {"Hydro2d", true}, {"Perl", true},
        {"Swim", true},      {"Vortex", true},
    };

    TextTable t;
    t.header({"benchmark", "A: f_L%", "A: f_B%", "F: f_L%",
              "F: f_B%", "F: f_B>f_L"});
    std::vector<DecomposeJob> jobs;
    for (const Row &row : rows)
        jobs.push_back(decomposeJob(row.name, scale,
                                    WorkloadParams{}.seed,
                                    {makeExperiment('A', row.spec95),
                                     makeExperiment('F', row.spec95)}));
    const auto done = decomposeEach(jobs, opt.jobs);

    unsigned bw_dominant = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Row &row = rows[j];
        report.addRefs(done[j].streamOps);
        const DecompositionResult &a = done[j].results[0];
        const DecompositionResult &f = done[j].results[1];
        const bool dominated = f.split.fB() > f.split.fL();
        bw_dominant += dominated;
        t.row({row.name, fixed(a.split.fL() * 100, 1),
               fixed(a.split.fB() * 100, 1),
               fixed(f.split.fL() * 100, 1),
               fixed(f.split.fB() * 100, 1),
               dominated ? "yes" : "no"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Bandwidth stalls exceed latency stalls under "
                "experiment F for %u/8 benchmarks\n(paper: all but "
                "Vortex and Perl).\n",
                bw_dominant);
    report.addTable("stalls", t);
    report.setMeta("bandwidth_dominant_benchmarks",
                   std::to_string(bw_dominant));
    report.write();
    return 0;
}
