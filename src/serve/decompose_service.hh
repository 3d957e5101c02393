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
#include <functional>
#include <memory>
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
 * One workload's share of a decomposeCells() call: the machines to
 * decompose and the builder of the stream they run on.  The builder
 * runs once, on whichever worker first needs the stream (or builds
 * it ahead); it must not wait on the call's other cells.
 */
struct DecomposeJob
{
    std::function<std::shared_ptr<const InstrStream>()> stream;
    std::vector<ExperimentConfig> configs;
};

/** A job whose stream buildDecomposeStream() builds. */
DecomposeJob decomposeJob(const std::string &workload, double scale,
                          std::uint64_t seed,
                          std::vector<ExperimentConfig> configs);

/** A job over @p stream, which the caller keeps alive for the
 * call. */
DecomposeJob decomposeJob(const InstrStream &stream,
                          std::vector<ExperimentConfig> configs);

/** decomposeCells() outcome: the sweep over every job's cells, and
 * the length of each job's stream (0 if it was never built). */
struct DecomposeSweep : SweepResult<CoreResult>
{
    std::vector<std::size_t> streamOps;
};

/**
 * The Section 3.1 decomposition of every machine of every job, as
 * independent phase cells fanned out by one parallelSweep() (on
 * opt.pool when set).  Job j's cells follow job j-1's; within a job,
 * cell i is phase i % 3 of configs[i / 3].  Cells come back in that
 * order at any opt.jobs.  Each cell records a "cell" span and is the
 * 'cell:at=N' fault site for N = its index + 1.  The watchdog budget
 * and progress hook travel in each config's core; cancellation and
 * degraded mode in @p opt.
 *
 * There is no barrier between jobs.  The first cell of a job builds
 * its stream on its worker; a cell whose stream another worker is
 * building builds a later job's stream meanwhile, while fewer than
 * workers + 1 streams are alive, and otherwise blocks.  A stream is
 * freed after its job's last cell.
 */
DecomposeSweep decomposeCells(const std::vector<DecomposeJob> &jobs,
                              const SweepOptions &opt);

/** Label of cell @p cell of a job over @p configs
 * ("exp=F phase=full"). */
std::string decomposeCellLabel(const std::vector<ExperimentConfig> &configs,
                               std::size_t cell);

/** One job's decompositions, one per config. */
struct JobDecompositions
{
    std::size_t streamOps = 0;
    std::vector<DecompositionResult> results;
};

/**
 * decomposeCells() across @p workers, failures propagating,
 * assembled per job in request order.
 */
std::vector<JobDecompositions>
decomposeEach(const std::vector<DecomposeJob> &jobs, unsigned workers);

/**
 * The decomposition for @p req: its one machine, with
 * req.watchdogCycles as each phase's watchdog budget.  The three
 * phases run on @p pool, which must be otherwise idle for the call;
 * without one they run inline on the calling thread.
 */
DecompositionResult executeDecompose(const DecomposeRequest &req,
                                     const InstrStream &stream,
                                     ThreadPool *pool = nullptr);

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
