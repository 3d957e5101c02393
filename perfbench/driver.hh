/**
 * @file
 * The workloads of the repository benchmark, as run by
 * perfbench_driver.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    /** Alternate plain and traced passes instead of plain only. */
    bool trace = false;
    /** Worker threads, and client connections for served_mix. */
    unsigned jobs = 1;
    /** Unix socket of the daemon that served_mix forks. */
    std::string socket = "perfbench.sock";
};

/** Pass numbers of untimed work; set-up rounds are -1, -2, ... */
constexpr int warmupPass = -1'000'000;
constexpr int verifyPass = -2'000'000;

/**
 * Run a batch workload (traffic_sweep, factor_isolation, decompose)
 * and write its raw results into @p w as one JSON object.
 */
void runBatch(const RunOptions &opt, membw::JsonWriter &w);

/** Run served_mix against forked daemons; raw results into @p w. */
void runServedMix(const RunOptions &opt, membw::JsonWriter &w);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
