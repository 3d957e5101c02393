/**
 * @file
 * perfbench_driver: runs one workload of the repository benchmark and
 * writes its raw results (pass times, answer latencies, spans and
 * output checks) as one JSON object.  run.py builds it, runs it and
 * turns the raw results into the metrics of BENCHMARK.json.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --jobs N --out FILE [--socket PATH]
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "driver.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    try {
        RunOptions opt;
        std::string out;
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = value == "1";
            else if (flag == "--jobs")
                opt.jobs = static_cast<unsigned>(std::stoul(value));
            else if (flag == "--out")
                out = value;
            else if (flag == "--socket")
                opt.socket = value;
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
        if (argc % 2 == 0 || opt.workload.empty() || out.empty() ||
            opt.jobs == 0)
            throw std::invalid_argument(
                "usage: perfbench_driver --workload NAME --seed N "
                "--seconds S --trace 0|1 --jobs N --out FILE "
                "[--socket PATH]");

        membw::JsonWriter w;
        if (opt.workload == "served_mix")
            runServedMix(opt, w);
        else
            runBatch(opt, w);
        std::ofstream file(out);
        file << w.str() << '\n';
        if (!file)
            throw std::runtime_error("cannot write " + out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    return 0;
}
