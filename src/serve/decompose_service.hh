/**
 * @file
 * Shared execution-time-decomposition engine for `membw_decompose`,
 * the timing-model benches and the `membw_served` daemon.
 *
 * A decompose request is three deterministic phase runs (perfect
 * memory, infinite width, full system) over one InstrStream.  The
 * daemon memoizes the stream by (workload, scale, seed) and renders
 * the stats document through the same renderDecomposeStatsJson()
 * the tool uses, so served responses byte-match fresh
 * `membw_decompose --stats-json` output under `--stable-json`.
 */

#ifndef MEMBW_SERVE_DECOMPOSE_SERVICE_HH
#define MEMBW_SERVE_DECOMPOSE_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/experiment.hh"
#include "exec/parallel_sweep.hh"
#include "workloads/workload.hh"

namespace membw {

/** Machine-parameter overrides (the tool's --mshrs/--window/... ). */
struct DecomposeOverrides
{
    int mshrs = -1, window = -1, width = -1;
    int l1l2 = -1, membus = -1;
    bool noPrefetch = false;
    std::string dram; ///< "", fpm, edo, sdram, rdram
};

/** Apply @p ov to @p cfg; fatal() on an unknown --dram kind. */
void applyDecomposeOverrides(ExperimentConfig &cfg,
                             const DecomposeOverrides &ov);

/** Everything that identifies a decompose computation. */
struct DecomposeRequest
{
    std::string workload;
    char letter = 'F';
    bool spec95 = false;
    double scale = 0.5;
    std::uint64_t seed = 42;
    DecomposeOverrides overrides;
    bool stableJson = false;
    std::uint64_t watchdogCycles = 1'000'000;
};

/** The machine for @p req with overrides applied. */
ExperimentConfig decomposeConfig(const DecomposeRequest &req);

/** The instruction stream for @p req — the expensive memoizable
 * artifact (workload, scale, seed determine it completely). */
InstrStream buildDecomposeStream(const std::string &workload,
                                 double scale, std::uint64_t seed);

/** Canonical identity string for the result cache (see
 * sweepRequestKey). */
std::string decomposeRequestKey(const DecomposeRequest &req);

/**
 * The Section 3.1 decomposition of every machine in @p configs over
 * @p stream, as 3·N independent phase cells fanned out by
 * parallelSweep(): cell i is phase i % 3 of configs[i / 3], and the
 * cells come back in that order at any opt.jobs.  Each cell records
 * a "cell" span and is the 'cell:at=N' fault site for N = i + 1.
 * The watchdog budget and progress hook travel in each config's
 * core; cancellation and degraded mode in @p opt.
 */
SweepResult<CoreResult>
decomposeCells(const InstrStream &stream,
               const std::vector<ExperimentConfig> &configs,
               const SweepOptions &opt);

/** Label of decomposeCells() cell @p cell ("exp=F phase=full"). */
std::string decomposeCellLabel(const std::vector<ExperimentConfig> &configs,
                               std::size_t cell);

/**
 * decomposeCells() across @p jobs workers, failures propagating,
 * assembled into one DecompositionResult per config.
 */
std::vector<DecompositionResult>
decomposeEach(const InstrStream &stream,
              const std::vector<ExperimentConfig> &configs,
              unsigned jobs);

/**
 * The decomposition for @p req: its one machine at jobs 1, inline on
 * the calling thread, with req.watchdogCycles as each phase's
 * watchdog budget.
 */
DecompositionResult executeDecompose(const DecomposeRequest &req,
                                     const InstrStream &stream);

/**
 * The stats-JSON document for a completed decomposition —
 * byte-for-byte what membw_decompose --stats-json writes for the
 * same request (single-experiment clean-completion path).
 */
std::string renderDecomposeStatsJson(const DecomposeRequest &req,
                                     std::size_t streamRefs,
                                     const DecompositionResult &r,
                                     double wallSeconds);

} // namespace membw

#endif // MEMBW_SERVE_DECOMPOSE_SERVICE_HH
