/**
 * @file
 * The six machine configurations of Table 5 (experiments A-F) over
 * the Table 4 memory system, and the three-run decomposition driver
 * of Section 3.1.
 */

#ifndef MEMBW_CPU_EXPERIMENT_HH
#define MEMBW_CPU_EXPERIMENT_HH

#include <functional>
#include <string>

#include "cpu/core.hh"
#include "cpu/memsys.hh"
#include "metrics/decomposition.hh"

namespace membw {

/** One experiment: core + memory + clock. */
struct ExperimentConfig
{
    char letter = 'A';
    bool spec95 = false;
    double cpuMHz = 300.0;
    CoreConfig core;
    MemSysConfig mem;

    std::string describe() const;
};

/**
 * Build experiment @p letter ('A'-'F') with the SPEC92 or SPEC95
 * parameter set:
 *
 *  A  in-order, blocking caches, 32B/64B blocks, 8K bpred
 *  B  A with 64B/128B blocks
 *  C  A with lockup-free caches
 *  D  out-of-order (RUU) + speculative loads, lockup-free, 16K bpred
 *  E  D + tagged prefetch
 *  F  E with a 4x larger RUU/LSQ (and a faster SPEC95 clock)
 */
ExperimentConfig makeExperiment(char letter, bool spec95);

/** Results of the three decomposition runs plus full-system detail. */
struct DecompositionResult
{
    Decomposition split;
    CoreResult perfect;
    CoreResult infinite;
    CoreResult full;
};

/**
 * Run @p stream under @p config three times (perfect, infinite-width,
 * full memory), one after another, and decompose execution time
 * (Equations 1-3).  The serial reference the parallel cell runner
 * (serve/decompose_service.hh) is tested against.
 */
DecompositionResult runDecomposition(const InstrStream &stream,
                                     const ExperimentConfig &config);

/** The three decomposition runs, in execution order. */
constexpr unsigned decompositionPhases = 3;

/**
 * Run one decomposition phase (0 = perfect memory, 1 =
 * infinite-width, 2 = full system).  Each phase is deterministic and
 * independent, which is what makes phase-granularity checkpointing
 * sound: an interrupted phase is simply re-run from its start.  Each
 * call records one "phase" span (detail: phaseName()) when tracing.
 */
CoreResult runPhase(const InstrStream &stream,
                    const ExperimentConfig &config, unsigned phase);

/** Observer over the phase's MemorySystem (attach/detach probes,
 * register profiler sources) — the system lives only for the phase. */
using MemSysHook = std::function<void(MemorySystem &)>;

/**
 * runPhase() with observation hooks: @p preRun fires after the
 * MemorySystem is built (before the first reference), @p postRun
 * after the run completes, while the system is still alive.  Either
 * may be empty.
 */
CoreResult runPhase(const InstrStream &stream,
                    const ExperimentConfig &config, unsigned phase,
                    const MemSysHook &preRun,
                    const MemSysHook &postRun);

/** Human-readable name of decomposition phase @p phase. */
const char *phaseName(unsigned phase);

/** Assemble the Equations 1-3 split from three completed phases. */
DecompositionResult
assembleDecomposition(const CoreResult &perfect,
                      const CoreResult &infinite,
                      const CoreResult &full);

class StatsRegistry;

/**
 * Publish a decomposition run: the T_P/T_I/T split and f_P/f_L/f_B
 * under "decomp", plus the full-system run's core counters under
 * "core" and memory-system counters under "mem".
 */
void publishDecompositionStats(StatsRegistry &registry,
                               const DecompositionResult &result);

/** Same layout rooted under an existing group — lets callers publish
 * several experiments side by side ("A.decomp.t_p", ...). */
void publishDecompositionStats(StatsGroup &group,
                               const DecompositionResult &result);

} // namespace membw

#endif // MEMBW_CPU_EXPERIMENT_HH
