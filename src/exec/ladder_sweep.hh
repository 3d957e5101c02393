/**
 * @file
 * One-pass sweep kernel for set-associative LRU ladders.
 *
 * A "ladder" is any group of single-level set-associative LRU cache
 * configurations sharing one block size — the shape of every size
 * sweep behind Tables 7/8 and Figure 4.  Instead of re-walking the
 * trace once per configuration through the general simulator,
 * ladderSweep() walks a pre-decoded BlockStream once, passing each
 * L2-resident chunk down the configurations' flat set rows
 * (recency-ordered tag/dirty words; see exec/ladder_kernel.hh).  The
 * decode cost (block number, load/store split) is paid once per
 * block size instead of once per cell, the per-reference
 * dispatch (virtual hooks, std::function, hash-map probes) disappears
 * entirely, and the chunk's decode arrays stay cache-resident while
 * the k configurations consume them.
 *
 * The configurations form a filter cascade.  Write-allocate configs
 * are chained by write policy, each chain ordered by (sets, ways);
 * a no-allocate config is a chain of its own.  The first config of a
 * chain replays the whole chunk, and each later one only the
 * references the one before it kept.  A reference is dropped when it
 * hits the MRU line (row[0]) and is a load, or is a write-back store
 * to a line already dirty while no later config has fewer ways.  By
 * LRU inclusion (Mattson et al. 1970; Hill & Smith 1989) such a
 * reference is an MRU hit that changes no state in every later
 * config: with write-allocate each reference becomes its set's MRU
 * block, and a set of a cache with at least as many power-of-two
 * sets holds a subset of the blocks that map to the smaller set.
 * The dirty case also needs the later cache to contain the earlier
 * one, which takes as many ways.  A dropped reference is counted as
 * one hit and nothing else.  Write-through lines are never dirty, so
 * their stores never drop.  No-allocate breaks the argument: a store
 * that misses a small cache without allocating can hit and promote a
 * block in a larger one, so those configs replay every reference.
 *
 * The kernel replicates Cache::access()/flush() counter for counter
 * — same victims, same counters, same write-policy byte accounting —
 * so its TrafficResults are byte-identical to the direct simulator's
 * (tests/ladder_test.cc and the onepass_equivalence ctest assert
 * this).  Everything outside the exact regime — Random/FIFO
 * replacement, write-validate, sectoring, stream buffers, tagged
 * prefetch, fully-associative geometry, references that span a
 * block — is rejected by ladderCollapsible() and falls back to direct per-cell
 * simulation.
 */

#ifndef MEMBW_EXEC_LADDER_SWEEP_HH
#define MEMBW_EXEC_LADDER_SWEEP_HH

#include <cstdint>
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
 * geometry and no prefetch, sector, or stream-buffer features.  Both
 * write policies are supported, with write-allocate or no-allocate;
 * write-validate takes the exact Cache path.
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
 * pass over @p stream.  When @p visits is given it receives the
 * number of (reference, config) pairs the cascade replayed, out of
 * stream.refs * configs.size().  Precondition: ladderCollapsible().
 */
std::vector<TrafficResult>
ladderSweep(const BlockStream &stream,
            const std::vector<CacheConfig> &configs,
            std::uint64_t *visits = nullptr);

} // namespace membw

#endif // MEMBW_EXEC_LADDER_SWEEP_HH
