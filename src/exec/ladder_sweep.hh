/**
 * @file
 * One-pass sweep kernel for set-associative LRU ladders.
 *
 * A "ladder" is any group of single-level set-associative LRU cache
 * configurations sharing one block size — the shape of every size
 * sweep behind Tables 7/8 and Figure 4.  Instead of re-walking the
 * trace once per configuration through the general simulator,
 * ladderSweep() walks a pre-decoded BlockStream once, replaying each
 * L2-resident chunk against every configuration's flat set rows
 * (recency-ordered tag/dirty words; see exec/ladder_kernel.hh).  The
 * decode cost (block number, word mask, load/store split) is paid
 * once per block size instead of once per cell, the per-reference
 * dispatch (virtual hooks, std::function, hash-map probes) disappears
 * entirely, and the chunk's decode arrays stay cache-resident while
 * the k configurations consume them.
 *
 * The kernel replicates Cache::access()/flush() counter for counter
 * — same victims, same counters, same write-policy byte accounting —
 * so its TrafficResults are byte-identical to the direct simulator's
 * (tests/ladder_test.cc and the onepass_equivalence ctest assert
 * this).  Everything outside the exact regime — Random/FIFO
 * replacement, sectoring, stream buffers, tagged prefetch,
 * fully-associative geometry, references that span a block — is
 * rejected by ladderCollapsible() and falls back to direct per-cell
 * simulation.
 */

#ifndef MEMBW_EXEC_LADDER_SWEEP_HH
#define MEMBW_EXEC_LADDER_SWEEP_HH

#include <vector>

#include "cache/config.hh"
#include "cache/hierarchy.hh"
#include "trace/block_stream.hh"

namespace membw {

/** Widest set the kernel's linear victim/probe scan accepts. */
constexpr unsigned ladderMaxWays = 16;

/**
 * True iff @p cfg alone is within the kernel's exact regime: a
 * set-associative (1..ladderMaxWays ways) LRU cache with power-of-two
 * geometry and no prefetch, sector, or stream-buffer features.  All
 * write/allocation policies are supported (write-validate runs the
 * masked variant of the kernel).
 */
bool ladderKernelSupported(const CacheConfig &cfg);

/**
 * True iff every config shares @p stream's block size, passes
 * ladderKernelSupported(), and the stream has no block-spanning
 * references — i.e. ladderSweep() will reproduce the direct
 * simulator exactly.
 */
bool ladderCollapsible(const BlockStream &stream,
                       const std::vector<CacheConfig> &configs);

/**
 * Traffic results for each config, in order, from a single chunked
 * pass over @p stream.  Precondition: ladderCollapsible().
 */
std::vector<TrafficResult>
ladderSweep(const BlockStream &stream,
            const std::vector<CacheConfig> &configs);

} // namespace membw

#endif // MEMBW_EXEC_LADDER_SWEEP_HH
