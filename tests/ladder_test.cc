/**
 * @file
 * One-pass ladder sweep kernel: BlockStream decoding, randomized
 * counter-level equivalence against the direct simulator, the
 * supported-regime guards, and the CollapsedSweep planner's routing
 * between the Mattson, ladder, and direct-fallback engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "exec/collapsed_sweep.hh"
#include "exec/ladder_sweep.hh"
#include "exec/time_partition.hh"
#include "serve/sweep_service.hh"
#include "trace/block_stream.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

/** Mixed loads/stores over a footprint that misses in small caches
 * and mostly hits in big ones, so every ladder rung is exercised. */
Trace
randomTrace(std::uint64_t seed, std::size_t refs)
{
    Rng rng(seed);
    Trace t;
    t.reserve(refs);
    Addr cursor = 0;
    for (std::size_t i = 0; i < refs; ++i) {
        cursor = rng.chance(0.3) ? rng.below(1 << 13)
                                 : (cursor + 1) & 0x1fff;
        t.append(cursor * wordBytes, wordBytes,
                 rng.chance(0.35) ? RefKind::Store : RefKind::Load);
    }
    return t;
}

/** Every counter the direct simulator keeps, field for field. */
void
expectStatsEqual(const CacheStats &a, const CacheStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.accesses, b.accesses) << label;
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.hits, b.hits) << label;
    EXPECT_EQ(a.misses, b.misses) << label;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << label;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.partialFills, b.partialFills) << label;
    EXPECT_EQ(a.requestBytes, b.requestBytes) << label;
    EXPECT_EQ(a.demandFetchBytes, b.demandFetchBytes) << label;
    EXPECT_EQ(a.partialFillBytes, b.partialFillBytes) << label;
    EXPECT_EQ(a.writebackBytes, b.writebackBytes) << label;
    EXPECT_EQ(a.writeThroughBytes, b.writeThroughBytes) << label;
    EXPECT_EQ(a.flushWritebackBytes, b.flushWritebackBytes) << label;
}

// ---------------------------------------------------------------
// BlockStream decoding
// ---------------------------------------------------------------

TEST(BlockStream, DecodesBlockNumbersKindsAndSizes)
{
    Trace t;
    t.append(0, 4, RefKind::Load);    // block 0, word 0
    t.append(40, 4, RefKind::Store);  // block 1, word 2
    t.append(60, 4, RefKind::Load);   // block 1, word 7
    t.append(8, 8, RefKind::Store);   // block 0, words 2-3

    const BlockStream s = buildBlockStream(t, 32);
    EXPECT_EQ(s.blockBytes, 32u);
    EXPECT_EQ(s.blockShift, 5u);
    EXPECT_EQ(s.refs, 4u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.requestBytes, 20u);
    EXPECT_FALSE(s.spansBlock);

    EXPECT_EQ(s.blockNum, (std::vector<std::uint64_t>{0, 1, 1, 0}));
    EXPECT_EQ(s.isStore, (std::vector<std::uint8_t>{0, 1, 0, 1}));
    EXPECT_EQ(s.size, (std::vector<std::uint16_t>{4, 4, 4, 8}));
}

TEST(BlockStream, FlagsBlockSpanningReferences)
{
    Trace t;
    t.append(28, 8, RefKind::Load); // crosses the 32B boundary
    const BlockStream s = buildBlockStream(t, 32);
    EXPECT_TRUE(s.spansBlock);

    // The same reference fits a 64B block.
    EXPECT_FALSE(buildBlockStream(t, 64).spansBlock);
}

// ---------------------------------------------------------------
// Kernel equivalence against the direct simulator
// ---------------------------------------------------------------

/**
 * The full supported policy grid at one block size: sizes x
 * associativities x write-back/-through x allocate/no-allocate
 * (write-validate takes the Cache path), kept only where
 * ladderKernelSupported() admits the geometry.  At 32 B blocks the
 * 3 KiB and 12 KiB sizes give 3-way caches power-of-two set counts
 * (32 and 128 sets), so the runtime-way kernel (W == 0) runs on both
 * an odd and a wide (16-way) geometry.
 */
std::vector<CacheConfig>
policyGrid(Bytes blockBytes)
{
    std::vector<CacheConfig> cfgs;
    for (Bytes size : {1_KiB, 3_KiB, 4_KiB, 12_KiB, 16_KiB}) {
        for (unsigned assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
            for (WritePolicy wp :
                 {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
                for (AllocPolicy ap : {AllocPolicy::WriteAllocate,
                                       AllocPolicy::WriteNoAllocate}) {
                    CacheConfig c;
                    c.size = size;
                    c.assoc = assoc;
                    c.blockBytes = blockBytes;
                    c.write = wp;
                    c.alloc = ap;
                    if (ladderKernelSupported(c))
                        cfgs.push_back(c);
                }
            }
        }
    }
    return cfgs;
}

TEST(LadderSweep, MatchesDirectSimulatorAcrossPolicyGrid)
{
    const Trace trace = randomTrace(7, 20000);
    const std::vector<CacheConfig> cfgs = policyGrid(32);

    // Every way count must survive the guard, in particular 3 and 16,
    // which only the runtime-way kernel runs.
    std::map<unsigned, int> perWays;
    for (const CacheConfig &c : cfgs)
        perWays[c.assoc]++;
    for (unsigned assoc : {1u, 2u, 3u, 4u, 8u, 16u})
        EXPECT_GT(perWays[assoc], 0) << assoc << "-way";

    const BlockStream stream = buildBlockStream(trace, 32);
    ASSERT_TRUE(ladderCollapsible(stream, cfgs));
    const auto onepass = ladderSweep(stream, cfgs);
    ASSERT_EQ(onepass.size(), cfgs.size());

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const TrafficResult direct = runTrace(trace, cfgs[i]);
        const std::string label = cfgs[i].describe();
        EXPECT_EQ(onepass[i].pinBytes, direct.pinBytes) << label;
        EXPECT_EQ(onepass[i].requestBytes, direct.requestBytes)
            << label;
        EXPECT_DOUBLE_EQ(onepass[i].trafficRatio,
                         direct.trafficRatio)
            << label;
        expectStatsEqual(onepass[i].l1, direct.l1, label);
    }
}

/** One ladder pass over @p trace at @p block, every config checked
 * counter for counter against the direct simulator; returns the
 * pass's (reference, config) visit count. */
std::uint64_t
expectLadderMatchesDirect(const Trace &trace, Bytes block,
                          const std::vector<CacheConfig> &cfgs,
                          const std::string &label)
{
    const BlockStream stream = buildBlockStream(trace, block);
    if (!ladderCollapsible(stream, cfgs)) {
        ADD_FAILURE() << label << ": outside the one-pass regime";
        return 0;
    }
    std::uint64_t visits = 0;
    const auto onepass = ladderSweep(stream, cfgs, &visits);
    EXPECT_EQ(onepass.size(), cfgs.size()) << label;
    for (std::size_t i = 0; i < cfgs.size() && i < onepass.size();
         ++i) {
        const TrafficResult direct = runTrace(trace, cfgs[i]);
        const std::string cell = label + " " + cfgs[i].describe();
        EXPECT_EQ(onepass[i].pinBytes, direct.pinBytes) << cell;
        expectStatsEqual(onepass[i].l1, direct.l1, cell);
    }
    EXPECT_GE(visits, stream.refs) << label;
    EXPECT_LE(visits, stream.refs * cfgs.size()) << label;
    return visits;
}

/** WB/WT x WA/WNA at @p size, @p block and each of @p ways. */
std::vector<CacheConfig>
plainPolicyGrid(Bytes size, Bytes block,
                std::initializer_list<unsigned> ways)
{
    std::vector<CacheConfig> cfgs;
    for (unsigned assoc : ways) {
        for (WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
            for (AllocPolicy ap : {AllocPolicy::WriteAllocate,
                                   AllocPolicy::WriteNoAllocate}) {
                CacheConfig c;
                c.size = size;
                c.assoc = assoc;
                c.blockBytes = block;
                c.write = wp;
                c.alloc = ap;
                cfgs.push_back(c);
            }
        }
    }
    return cfgs;
}

TEST(LadderSweep, MatchesDirectAcrossBlockSizesAndSeeds)
{
    // Randomized sweep shapes: several trace seeds, several block
    // sizes (each its own BlockStream), random size/assoc rungs plus
    // a fixed 2-way and 16-way rung at every block size.
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        const Trace trace = randomTrace(seed, 12000);
        Rng rng(seed * 977);
        for (Bytes block : {4u, 8u, 32u, 128u}) {
            std::vector<CacheConfig> cfgs;
            for (int k = 0; k < 8; ++k) {
                CacheConfig c;
                c.size = k >= 6 ? 16_KiB
                                : Bytes{1} << (10 + rng.below(6));
                c.assoc = k == 6   ? 2u
                          : k == 7 ? 16u
                                   : 1u << rng.below(5); // 1..16
                c.blockBytes = block;
                c.write = rng.chance(0.5)
                              ? WritePolicy::WriteBack
                              : WritePolicy::WriteThrough;
                c.alloc = rng.chance(0.5)
                              ? AllocPolicy::WriteAllocate
                              : AllocPolicy::WriteNoAllocate;
                // Small caches of big blocks have fewer lines than
                // 16 ways; those rungs are outside the regime.
                if (ladderKernelSupported(c))
                    cfgs.push_back(c);
            }
            ASSERT_GE(cfgs.size(), 2u);
            expectLadderMatchesDirect(
                trace, block, cfgs,
                "seed " + std::to_string(seed) + " block " +
                    std::to_string(block));
        }
    }
}

TEST(LadderSweep, PartlyEmptySetsAtFlushMatchDirect)
{
    // A footprint far below capacity: sets stay partly filled, so the
    // run leaves invalid tail slots behind, first fills evict nothing,
    // and the flush walks rows that end early.
    // At most two blocks per 1024-set index: the 64 KiB caches below
    // (1024 sets at 2 ways down to 128 sets at 16) then never fill a
    // set, while the 16 KiB ones still overflow some.
    Rng rng(83);
    std::vector<Addr> blocks;
    std::map<Addr, unsigned> perSet;
    while (blocks.size() < 300) {
        const Addr bn = rng.below(1 << 16);
        if (std::find(blocks.begin(), blocks.end(), bn * 32) ==
                blocks.end() &&
            perSet[bn % 1024]++ < 2)
            blocks.push_back(bn * 32);
    }
    std::map<Addr, bool> loaded;
    Trace trace;
    for (int i = 0; i < 6000; ++i) {
        const Addr a = blocks[rng.below(blocks.size())] +
                       rng.below(8) * wordBytes;
        const bool store = rng.chance(0.3);
        trace.append(a, wordBytes,
                     store ? RefKind::Store : RefKind::Load);
        loaded[a / 32] |= !store;
    }

    for (Bytes size : {16_KiB, 64_KiB}) {
        const auto cfgs = plainPolicyGrid(size, 32, {2u, 4u, 8u, 16u});
        expectLadderMatchesDirect(trace, 32, cfgs,
                                  std::to_string(size) + "B");
    }

    // With every set below capacity, write-allocate never displaces a
    // line during the run: each touched block leaves exactly once, at
    // the flush, and no write-back is charged before it.  Under
    // no-allocate only loaded blocks are ever resident.
    std::size_t loadedBlocks = 0;
    for (const auto &[block, load] : loaded)
        loadedBlocks += load;
    const BlockStream stream = buildBlockStream(trace, 32);
    const auto cfgs = plainPolicyGrid(64_KiB, 32, {2u, 4u, 8u, 16u});
    const auto onepass = ladderSweep(stream, cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const CacheStats &st = onepass[i].l1;
        const bool allocate =
            cfgs[i].alloc == AllocPolicy::WriteAllocate;
        EXPECT_EQ(st.evictions, allocate ? loaded.size() : loadedBlocks)
            << cfgs[i].describe();
        EXPECT_EQ(st.writebackBytes, 0u) << cfgs[i].describe();
    }
}

TEST(LadderSweep, TopOfAddressSpaceTagsStayDistinct)
{
    // 4 B blocks give the widest tags: block numbers up to 2^62 - 1,
    // whose encoded (tag << 1) | dirty word still differs from the
    // invalid sentinel.  Blocks at the top and bottom of the address
    // space share sets, so any aliasing shows as a wrong hit.
    const Addr top = ~Addr{0} - (wordBytes - 1);
    Rng rng(101);
    Trace trace;
    for (int i = 0; i < 8000; ++i) {
        const Addr off = rng.below(4096) * wordBytes;
        const Addr a = rng.chance(0.5) ? top - off : off;
        trace.append(a, wordBytes,
                     rng.chance(0.4) ? RefKind::Store : RefKind::Load);
    }
    trace.append(top, wordBytes, RefKind::Store);

    const auto cfgs =
        plainPolicyGrid(1_KiB, 4, {1u, 2u, 4u, 8u, 16u});
    expectLadderMatchesDirect(trace, 4, cfgs, "top");

    // The same trace through the set-partitioned word kernels.
    const auto serial = ladderSweep(buildBlockStream(trace, 4), cfgs);
    PartitionOptions opts;
    opts.jobs = 2;
    opts.parts = 4;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        TrafficResult word;
        ASSERT_EQ(partitionedLadderRunWord(trace, cfgs[i], opts, word),
                  WordRunOutcome::Done);
        expectStatsEqual(word.l1, serial[i].l1,
                         "word " + cfgs[i].describe());
    }
}

// ---------------------------------------------------------------
// Filter cascade: later configs replay only what earlier ones kept
// ---------------------------------------------------------------

/** A workload trace at a scale small enough for direct simulation of
 * every cell; its loops give the MRU hits that random traces lack. */
Trace
workloadTrace(const std::string &name)
{
    WorkloadParams p;
    p.scale = 0.05;
    return makeWorkload(name)->trace(p);
}

CacheConfig
ladderConfig(Bytes size, unsigned assoc, Bytes block,
             WritePolicy write = WritePolicy::WriteBack,
             AllocPolicy alloc = AllocPolicy::WriteAllocate)
{
    CacheConfig c;
    c.size = size;
    c.assoc = assoc;
    c.blockBytes = block;
    c.write = write;
    c.alloc = alloc;
    return c;
}

TEST(LadderSweep, CascadeMatchesDirectOnWorkloadLadders)
{
    // The traffic sweep's shape: 12 sizes x {1, 4, 8} ways x 6
    // blocks, write-back write-allocate.  Each (block, ways) ladder
    // is one cascade, as a sweep request runs it; the three ladders
    // of a block then run again as one group, whose chain mixes way
    // counts (a later config may have fewer ways than an earlier
    // one, which turns the dirty-store skip off).
    for (const char *name : {"Compress", "Swm", "Eqntott"}) {
        const Trace trace = workloadTrace(name);
        std::uint64_t pairs = 0;
        std::uint64_t visits = 0;
        for (Bytes block : {4u, 8u, 16u, 32u, 64u, 128u}) {
            const BlockStream stream = buildBlockStream(trace, block);
            std::vector<CacheConfig> all;
            std::vector<CacheStats> direct;
            for (unsigned ways : {1u, 4u, 8u}) {
                std::vector<CacheConfig> ladder;
                for (Bytes size = 1_KiB; size <= 2_MiB; size *= 2)
                    ladder.push_back(ladderConfig(size, ways, block));
                ASSERT_EQ(ladder.size(), 12u);
                ASSERT_TRUE(ladderCollapsible(stream, ladder));
                std::uint64_t v = 0;
                const auto onepass = ladderSweep(stream, ladder, &v);
                for (std::size_t i = 0; i < ladder.size(); ++i) {
                    direct.push_back(runTrace(trace, ladder[i]).l1);
                    expectStatsEqual(onepass[i].l1, direct.back(),
                                     std::string(name) + " " +
                                         ladder[i].describe());
                }
                pairs += stream.refs * ladder.size();
                visits += v;
                all.insert(all.end(), ladder.begin(), ladder.end());
            }
            const auto mixed = ladderSweep(stream, all);
            for (std::size_t i = 0; i < all.size(); ++i)
                expectStatsEqual(mixed[i].l1, direct[i],
                                 std::string(name) + " mixed " +
                                     all[i].describe());
        }
        // The cascade skipped at least a third of the pairs.
        EXPECT_LT(visits * 3, pairs * 2) << name;
    }
}

TEST(LadderSweep, CascadeGuardsTheChainsWhereSkippingIsUnsafe)
{
    const Trace trace = workloadTrace("Compress");
    const BlockStream stream = buildBlockStream(trace, 32);
    ASSERT_GT(stream.stores, 0u);

    // Fewer ways after more: a dirty MRU line of the 8-way cache may
    // have been written back and refetched clean by the 1-way ones,
    // so the 8-way config must pass its dirty-store hits on.
    expectLadderMatchesDirect(trace, 32,
                               {ladderConfig(2_KiB, 8, 32),
                                ladderConfig(4_KiB, 1, 32),
                                ladderConfig(8_KiB, 2, 32),
                                ladderConfig(16_KiB, 1, 32)},
                               "fewer ways later");

    // Write-through write-allocate skips loads only; write-back
    // no-allocate chains skip nothing, so they visit every pair.
    std::vector<CacheConfig> wt;
    std::vector<CacheConfig> wna;
    for (Bytes size = 1_KiB; size <= 64_KiB; size *= 2) {
        wt.push_back(ladderConfig(size, 2, 32,
                                  WritePolicy::WriteThrough));
        wna.push_back(ladderConfig(size, 2, 32, WritePolicy::WriteBack,
                                   AllocPolicy::WriteNoAllocate));
    }
    EXPECT_LT(expectLadderMatchesDirect(trace, 32, wt, "WT-WA"),
              stream.refs * wt.size());
    EXPECT_EQ(expectLadderMatchesDirect(trace, 32, wna, "WB-WNA"),
              stream.refs * wna.size());

    // Two configs of one geometry: the second replays only what the
    // first kept, and counts the rest as hits.
    const CacheConfig twin = ladderConfig(4_KiB, 4, 32);
    EXPECT_LT(expectLadderMatchesDirect(trace, 32, {twin, twin},
                                         "same geometry"),
              2 * stream.refs);

    // Every policy in one group, sizes given largest first so each
    // chain's order differs from the caller's.
    std::vector<CacheConfig> mixed;
    for (Bytes size : {32_KiB, 8_KiB, 1_KiB}) {
        for (WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
            for (AllocPolicy ap : {AllocPolicy::WriteAllocate,
                                   AllocPolicy::WriteNoAllocate}) {
                mixed.push_back(ladderConfig(size, 4, 32, wp, ap));
            }
        }
    }
    expectLadderMatchesDirect(trace, 32, mixed, "mixed policies");

    // A one-config group replays every reference once.
    EXPECT_EQ(expectLadderMatchesDirect(trace, 32, {twin}, "single"),
              stream.refs);
}

// ---------------------------------------------------------------
// Set-partitioned parallel kernel
// ---------------------------------------------------------------

TEST(TimePartition, PartitionedMatchesSerialAtAnyPartsAndJobs)
{
    const Trace trace = randomTrace(31, 16000);
    const BlockStream stream = buildBlockStream(trace, 32);
    CacheConfig cfg;
    cfg.size = 16_KiB;
    cfg.assoc = 4;
    cfg.blockBytes = 32;

    const auto serial = ladderSweep(stream, {cfg});
    for (unsigned parts : {1u, 2u, 3u, 4u, 8u}) {
        for (unsigned jobs : {1u, 4u}) {
            PartitionOptions opts;
            opts.jobs = jobs;
            opts.parts = parts;
            const auto part =
                partitionedLadderRun(stream, cfg, opts);
            ASSERT_TRUE(part.has_value());
            const std::string label = "parts=" +
                                      std::to_string(parts) +
                                      " jobs=" +
                                      std::to_string(jobs);
            EXPECT_EQ(part->pinBytes, serial[0].pinBytes) << label;
            expectStatsEqual(part->l1, serial[0].l1, label);
        }
    }
}

TEST(TimePartition, FusedWordRunMatchesSerialAtAnyPartsAndJobs)
{
    // The fused-decode kernels replay the MemRef array directly; the
    // result must be byte-identical to the decoded-stream serial
    // kernel at every partition/jobs combination.
    const Trace trace = randomTrace(53, 16000);
    const BlockStream stream = buildBlockStream(trace, 32);
    CacheConfig cfg;
    cfg.size = 16_KiB;
    cfg.assoc = 4;
    cfg.blockBytes = 32;

    const auto serial = ladderSweep(stream, {cfg});
    for (unsigned parts : {1u, 2u, 3u, 4u, 8u}) {
        for (unsigned jobs : {1u, 4u}) {
            PartitionOptions opts;
            opts.jobs = jobs;
            opts.parts = parts;
            TrafficResult word;
            ASSERT_EQ(
                partitionedLadderRunWord(trace, cfg, opts, word),
                WordRunOutcome::Done);
            const std::string label = "word parts=" +
                                      std::to_string(parts) +
                                      " jobs=" +
                                      std::to_string(jobs);
            EXPECT_EQ(word.pinBytes, serial[0].pinBytes) << label;
            expectStatsEqual(word.l1, serial[0].l1, label);
        }
    }
}

TEST(TimePartition, FusedWordRunMatchesSerialAcrossPolicyGrid)
{
    // Every supported policy point (write-back/-through crossed with
    // allocate/no-allocate) through the word kernels,
    // including the store-counting totals reconstruction.
    const Trace trace = randomTrace(59, 12000);
    const std::vector<CacheConfig> cfgs = policyGrid(32);
    const BlockStream stream = buildBlockStream(trace, 32);
    PartitionOptions opts;
    opts.jobs = 4;

    const auto serial = ladderSweep(stream, cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        TrafficResult word;
        ASSERT_EQ(
            partitionedLadderRunWord(trace, cfgs[i], opts, word),
            WordRunOutcome::Done);
        expectStatsEqual(word.l1, serial[i].l1, cfgs[i].describe());
    }
}

TEST(TimePartition, FusedWordRunRejectsNonWordTraces)
{
    CacheConfig cfg;
    cfg.size = 8_KiB;
    cfg.assoc = 4;
    cfg.blockBytes = 32;
    PartitionOptions opts;
    opts.jobs = 2;
    opts.parts = 4; // filtered workers must reject too
    TrafficResult word;

    Trace wide = randomTrace(61, 500);
    wide.append(64, 8, RefKind::Store); // double word
    EXPECT_EQ(partitionedLadderRunWord(wide, cfg, opts, word),
              WordRunOutcome::NotAllWord);

    Trace misaligned = randomTrace(67, 500);
    misaligned.append(2, 4, RefKind::Load); // word size, bad align
    EXPECT_EQ(partitionedLadderRunWord(misaligned, cfg, opts, word),
              WordRunOutcome::NotAllWord);

    const Trace ok = randomTrace(71, 500);
    opts.cancel = [] { return true; }; // cancelled before any cell
    EXPECT_EQ(partitionedLadderRunWord(ok, cfg, opts, word),
              WordRunOutcome::Interrupted);
}

TEST(TimePartition, SweepFormMatchesSerialAcrossPolicyGrid)
{
    // Multi-config partitioned sweep (auto parts) against the serial
    // kernel over the whole policy grid;
    // also pins the parts clamp on a 1-set (fully-degenerate) shape.
    const Trace trace = randomTrace(37, 12000);
    const std::vector<CacheConfig> cfgs = policyGrid(32);
    const BlockStream stream = buildBlockStream(trace, 32);

    const auto serial = ladderSweep(stream, cfgs);
    PartitionOptions opts;
    opts.jobs = 4;
    const auto part = partitionedLadderSweep(stream, cfgs, opts);
    ASSERT_TRUE(part.has_value());
    ASSERT_EQ(part->size(), serial.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expectStatsEqual((*part)[i].l1, serial[i].l1,
                         cfgs[i].describe());
    }

    CacheConfig oneSet; // 1 set: cannot split, must clamp to serial
    oneSet.size = 256;
    oneSet.assoc = 8;
    oneSet.blockBytes = 32;
    ASSERT_TRUE(ladderKernelSupported(oneSet));
    EXPECT_EQ(partitionPartsFor(oneSet, 4, 0, 1), 1u);
    const auto one = partitionedLadderRun(stream, oneSet, opts);
    ASSERT_TRUE(one.has_value());
    expectStatsEqual(one->l1, ladderSweep(stream, {oneSet})[0].l1,
                     "one-set clamp");
}

TEST(TimePartition, InterruptReportsNoResults)
{
    const Trace trace = randomTrace(41, 2000);
    const BlockStream stream = buildBlockStream(trace, 32);
    CacheConfig cfg;
    cfg.size = 8_KiB;
    cfg.assoc = 4;
    cfg.blockBytes = 32;
    PartitionOptions opts;
    opts.jobs = 1;
    opts.parts = 4;
    opts.cancel = [] { return true; }; // cancelled before any cell
    EXPECT_FALSE(
        partitionedLadderRun(stream, cfg, opts).has_value());
}

// ---------------------------------------------------------------
// Supported-regime guards
// ---------------------------------------------------------------

TEST(LadderSweep, GuardAcceptsTheSweepShapes)
{
    CacheConfig c;
    c.size = 64_KiB;
    c.assoc = 4;
    c.blockBytes = 32;
    EXPECT_TRUE(ladderKernelSupported(c));
    c.assoc = 1; // Table 7/8 shape
    EXPECT_TRUE(ladderKernelSupported(c));
    c.alloc = AllocPolicy::WriteNoAllocate;
    EXPECT_TRUE(ladderKernelSupported(c));
    c.write = WritePolicy::WriteThrough;
    EXPECT_TRUE(ladderKernelSupported(c));
}

TEST(LadderSweep, GuardRejectsEverythingOutsideTheExactRegime)
{
    const CacheConfig base = [] {
        CacheConfig c;
        c.size = 64_KiB;
        c.assoc = 4;
        c.blockBytes = 32;
        return c;
    }();

    auto with = [&](auto mutate) {
        CacheConfig c = base;
        mutate(c);
        return ladderKernelSupported(c);
    };

    // Replacement policies the flat-LRU kernel cannot reproduce.
    EXPECT_FALSE(with(
        [](CacheConfig &c) { c.repl = ReplPolicy::Random; }));
    EXPECT_FALSE(
        with([](CacheConfig &c) { c.repl = ReplPolicy::FIFO; }));
    // Feature caches: sectoring, stream buffers, tagged prefetch.
    EXPECT_FALSE(
        with([](CacheConfig &c) { c.sectorBytes = 16; }));
    EXPECT_FALSE(
        with([](CacheConfig &c) { c.streamBuffers = 4; }));
    EXPECT_FALSE(
        with([](CacheConfig &c) { c.taggedPrefetch = true; }));
    // Geometry outside the kernel: fully associative, too many
    // ways, non-power-of-two sets, size not a block multiple.
    EXPECT_FALSE(with([](CacheConfig &c) { c.assoc = 0; }));
    EXPECT_FALSE(with([](CacheConfig &c) { c.assoc = 32; }));
    EXPECT_FALSE(with([](CacheConfig &c) { c.size = 12_KiB; }));
    EXPECT_FALSE(with([](CacheConfig &c) { c.size = 100; }));
    // Write-validate, at either write policy (validate() rejects
    // WV+WT; the guard must not claim it either), runs on Cache.
    EXPECT_FALSE(with([](CacheConfig &c) {
        c.alloc = AllocPolicy::WriteValidate;
    }));
    EXPECT_FALSE(with([](CacheConfig &c) {
        c.write = WritePolicy::WriteThrough;
        c.alloc = AllocPolicy::WriteValidate;
    }));
}

TEST(LadderSweep, CollapsibleRejectsSpansAndMixedBlocks)
{
    const Trace trace = randomTrace(3, 500);
    const BlockStream s32 = buildBlockStream(trace, 32);

    CacheConfig a;
    a.size = 8_KiB;
    a.assoc = 2;
    a.blockBytes = 32;
    EXPECT_TRUE(ladderCollapsible(s32, {a}));

    // A config whose block size differs from the stream's.
    CacheConfig b = a;
    b.blockBytes = 64;
    EXPECT_FALSE(ladderCollapsible(s32, {a, b}));
    // No configs at all.
    EXPECT_FALSE(ladderCollapsible(s32, {}));

    // A block-spanning reference poisons the whole stream.
    Trace spanning;
    spanning.append(28, 8, RefKind::Load);
    EXPECT_FALSE(
        ladderCollapsible(buildBlockStream(spanning, 32), {a}));
}

// ---------------------------------------------------------------
// CollapsedSweep routing
// ---------------------------------------------------------------

TEST(CollapsedSweep, RoutesLadderCellsAndLeavesUnsupportedOnes)
{
    const Trace trace = randomTrace(5, 8000);

    std::vector<CacheConfig> cfgs;
    for (Bytes size : {1_KiB, 8_KiB, 64_KiB}) { // ladder, block 32
        CacheConfig c;
        c.size = size;
        c.assoc = 4;
        c.blockBytes = 32;
        cfgs.push_back(c);
    }
    CacheConfig random = cfgs[0]; // unsupported: Random replacement
    random.repl = ReplPolicy::Random;
    cfgs.push_back(random);
    CacheConfig sector = cfgs[1]; // unsupported: sector cache
    sector.sectorBytes = 8;
    cfgs.push_back(sector);
    CacheConfig stream = cfgs[2]; // unsupported: stream buffers
    stream.streamBuffers = 4;
    cfgs.push_back(stream);
    CacheConfig wv = cfgs[1]; // unsupported: write-validate
    wv.alloc = AllocPolicy::WriteValidate;
    cfgs.push_back(wv);

    const CollapsedSweep sweep(trace, cfgs, 1);
    EXPECT_EQ(sweep.covered(), 3u);
    EXPECT_EQ(sweep.ladderPasses(), 1u);
    EXPECT_EQ(sweep.mattsonPasses(), 0u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(sweep.has(i)) << i;
        const TrafficResult direct = runTrace(trace, cfgs[i]);
        EXPECT_EQ(sweep.result(i).pinBytes, direct.pinBytes) << i;
        expectStatsEqual(sweep.result(i).l1, direct.l1,
                         cfgs[i].describe());
    }
    // The feature cells fall back to the caller's direct path.
    EXPECT_FALSE(sweep.has(3));
    EXPECT_FALSE(sweep.has(4));
    EXPECT_FALSE(sweep.has(5));
    EXPECT_FALSE(sweep.has(6));

    // The sweep engine runs the uncovered write-validate cell on the
    // exact Cache path.
    SweepRequest req;
    req.l1 = wv;
    req.sizes = {wv.size};
    const SweepOutcome out = executeSweep(req, trace, {});
    ASSERT_EQ(out.cells.size(), 1u);
    EXPECT_FALSE(out.collapsed.has(0));
    const TrafficResult direct = runTrace(trace, wv);
    EXPECT_EQ(out.cells[0].traffic.pinBytes, direct.pinBytes);
    expectStatsEqual(out.cells[0].traffic.l1, direct.l1, wv.describe());
}

TEST(CollapsedSweep, GroupsMixedBlockSizesIntoSeparatePasses)
{
    const Trace trace = randomTrace(9, 8000);
    std::vector<CacheConfig> cfgs;
    for (Bytes block : {16u, 32u, 64u}) {
        for (Bytes size : {4_KiB, 32_KiB}) {
            CacheConfig c;
            c.size = size;
            c.assoc = 2;
            c.blockBytes = block;
            cfgs.push_back(c);
        }
    }
    const CollapsedSweep sweep(trace, cfgs, 1);
    EXPECT_EQ(sweep.covered(), cfgs.size());
    EXPECT_EQ(sweep.ladderPasses(), 3u); // one per block size
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_TRUE(sweep.has(i));
        EXPECT_EQ(sweep.result(i).pinBytes,
                  runTrace(trace, cfgs[i]).pinBytes)
            << cfgs[i].describe();
    }
}

TEST(CollapsedSweep, StoreBearingFullyAssociativeCellsFallBack)
{
    // FA cells collapse via Mattson only over load-only traces; with
    // stores present they must stay on the exact direct path.
    const Trace trace = randomTrace(13, 4000);
    CacheConfig fa;
    fa.size = 8_KiB;
    fa.assoc = 0;
    fa.blockBytes = 32;
    const CollapsedSweep sweep(trace, {fa}, 1);
    EXPECT_EQ(sweep.mattsonPasses(), 0u);
    EXPECT_FALSE(sweep.has(0));
}

TEST(CollapsedSweep, LoadOnlyFullyAssociativeCellsUseMattson)
{
    Rng rng(17);
    Trace trace;
    for (std::size_t i = 0; i < 4000; ++i)
        trace.append(rng.below(1 << 12) * wordBytes, wordBytes,
                     RefKind::Load);
    std::vector<CacheConfig> cfgs;
    for (Bytes size : {1_KiB, 8_KiB}) {
        CacheConfig c;
        c.size = size;
        c.assoc = 0;
        c.blockBytes = 32;
        cfgs.push_back(c);
    }
    const CollapsedSweep sweep(trace, cfgs, 1);
    EXPECT_EQ(sweep.mattsonPasses(), 1u);
    EXPECT_EQ(sweep.covered(), 2u);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_TRUE(sweep.has(i));
        EXPECT_EQ(sweep.result(i).pinBytes,
                  runTrace(trace, cfgs[i]).pinBytes);
    }
}

TEST(CollapsedSweep, ResultsAreJobsIndependent)
{
    const Trace trace = randomTrace(21, 6000);
    std::vector<CacheConfig> cfgs;
    for (Bytes block : {16u, 64u}) {
        for (Bytes size : {2_KiB, 16_KiB, 128_KiB}) {
            CacheConfig c;
            c.size = size;
            c.assoc = 4;
            c.blockBytes = block;
            cfgs.push_back(c);
        }
    }
    const CollapsedSweep serial(trace, cfgs, 1);
    EXPECT_EQ(serial.ladderPasses(), 2u);
    EXPECT_EQ(serial.partitionedPasses(), 0u);

    // Two ladder groups (one per block size): jobs 2 fans the groups
    // across the workers; jobs 4 leaves workers idle under fan-out,
    // so both groups run set-partitioned instead.
    for (const auto &[jobs, partitioned] :
         {std::pair{2u, 0u}, std::pair{4u, 2u}}) {
        const CollapsedSweep parallel(trace, cfgs, jobs);
        const std::string plan = "jobs=" + std::to_string(jobs);
        EXPECT_EQ(parallel.ladderPasses(), 2u) << plan;
        EXPECT_EQ(parallel.partitionedPasses(), partitioned) << plan;
        ASSERT_EQ(serial.covered(), parallel.covered()) << plan;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            ASSERT_TRUE(serial.has(i));
            ASSERT_TRUE(parallel.has(i)) << plan;
            EXPECT_EQ(serial.result(i).pinBytes,
                      parallel.result(i).pinBytes)
                << plan;
            expectStatsEqual(serial.result(i).l1,
                             parallel.result(i).l1,
                             plan + " " + cfgs[i].describe());
        }
    }
}

} // namespace
} // namespace membw
