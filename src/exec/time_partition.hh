/**
 * @file
 * Intra-trace parallelism for the ladder kernel: make ONE
 * configuration (or a handful) scale across ThreadPool workers
 * instead of only scaling across many sweep cells.
 *
 * The sets of a set-associative cache never interact — a reference
 * touches exactly the set its block number indexes, and LRU state,
 * dirty masks and every traffic counter are per-set.  So the set
 * index range is split across workers; each worker scans the whole
 * reference stream but simulates only its owned sets (the Filtered
 * kernel variant in ladder_kernel.hh), and the per-worker CacheStats
 * are summed in part order.  Each worker replays its sets'
 * references in trace order — the only order LRU decisions depend
 * on — and integer sums are associative, so the merged result is
 * byte-identical to the serial kernel at ANY worker/partition count,
 * which the partition_equivalence test checks as a byte diff against
 * --jobs 1.  The cost model: every worker still streams the decode
 * arrays (read bandwidth is shared), but set-row state per worker
 * shrinks by the partition factor, and the skip test is one
 * subtract+compare per reference.
 */

#ifndef MEMBW_EXEC_TIME_PARTITION_HH
#define MEMBW_EXEC_TIME_PARTITION_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "exec/ladder_sweep.hh"
#include "trace/block_stream.hh"

namespace membw {

/** Knobs for the partitioned ladder runs. */
struct PartitionOptions
{
    /** Worker threads (parallelSweep semantics; 1 runs inline). */
    unsigned jobs = 1;

    /**
     * Set partitions per configuration; 0 derives it from jobs and
     * the config count (enough parts that jobs workers stay busy).
     * Clamped per config to its set count — a 1-set config cannot
     * split and simply runs serial.
     */
    unsigned parts = 0;

    /** Polled between cells; true stops scheduling (interrupt). */
    std::function<bool()> cancel;
};

/**
 * Effective partition count for @p cfg: requested (or derived)
 * parts, clamped to the config's set count and to at least 1.
 */
unsigned partitionPartsFor(const CacheConfig &cfg, unsigned jobs,
                           unsigned parts, std::size_t configCount);

/**
 * Exact set-partitioned equivalent of ladderSweep(): traffic results
 * for each config, in order, byte-identical to the serial kernel at
 * any jobs/parts.  Precondition: ladderCollapsible(stream, configs).
 * Returns nullopt iff opts.cancel interrupted the run (partial
 * partition results are meaningless — a config is only correct once
 * every one of its set ranges has been replayed).
 */
std::optional<std::vector<TrafficResult>>
partitionedLadderSweep(const BlockStream &stream,
                       const std::vector<CacheConfig> &configs,
                       const PartitionOptions &opts);

/** Single-config convenience wrapper around the sweep form. */
std::optional<TrafficResult>
partitionedLadderRun(const BlockStream &stream,
                     const CacheConfig &cfg,
                     const PartitionOptions &opts);

/** How a fused word-kernel attempt ended. */
enum class WordRunOutcome
{
    Done,        ///< result is valid
    Interrupted, ///< opts.cancel fired; result untouched
    NotAllWord,  ///< trace has a non-word ref; rerun via BlockStream
};

/**
 * Fused-decode variant: set-partitioned replay straight off the
 * MemRef array, with no BlockStream materialized at all.  Exactly
 * equivalent to buildBlockStream() + partitionedLadderRun() — the
 * WordSource kernels derive the identical per-reference tuple from
 * the address — but skips the decode pass entirely, which matters
 * because the decode runs at memory speed and the single-config run
 * pays it un-amortized.
 *
 * The all-word eligibility is NOT pre-scanned: the run is optimistic,
 * the kernels validate each reference inline (and count the trace
 * totals as they go), and the first violating reference aborts the
 * attempt with NotAllWord — the caller then falls back to the
 * decoded-stream path.  An eligible trace therefore pays zero extra
 * passes over the reference array.  Precondition:
 * ladderKernelSupported(cfg).
 */
WordRunOutcome
partitionedLadderRunWord(const Trace &trace, const CacheConfig &cfg,
                         const PartitionOptions &opts,
                         TrafficResult &result);

} // namespace membw

#endif // MEMBW_EXEC_TIME_PARTITION_HH
