/**
 * @file
 * Unit tests for src/mtc: next-use table, MIN replacement, bypass,
 * write-validate, and the canonical MTC, plus a brute-force Belady
 * oracle that MinCacheSim is checked against on random traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "mtc/min_cache.hh"
#include "mtc/next_use.hh"

namespace membw {
namespace {

Trace
loadsAt(std::initializer_list<Addr> addrs)
{
    Trace t;
    for (Addr a : addrs)
        t.append(a, 4, RefKind::Load);
    return t;
}

TEST(NextUse, PointsToNextReferenceOfSameBlock)
{
    // Word-granularity: A B A C B A
    const Trace t = loadsAt({0, 4, 0, 8, 4, 0});
    const auto next = buildNextUse(t, 4);
    ASSERT_EQ(next.size(), 6u);
    EXPECT_EQ(next[0], 2u);
    EXPECT_EQ(next[1], 4u);
    EXPECT_EQ(next[2], 5u);
    EXPECT_EQ(next[3], tickInfinity);
    EXPECT_EQ(next[4], tickInfinity);
    EXPECT_EQ(next[5], tickInfinity);
}

TEST(NextUse, BlockGranularityMergesWords)
{
    // With 8B blocks, addresses 0 and 4 are the same block.
    const Trace t = loadsAt({0, 4, 8});
    const auto next = buildNextUse(t, 8);
    EXPECT_EQ(next[0], 1u);
    EXPECT_EQ(next[1], tickInfinity);
    EXPECT_EQ(next[2], tickInfinity);
}

TEST(NextUse, RejectsNonPowerOfTwo)
{
    const Trace t = loadsAt({0});
    EXPECT_THROW(buildNextUse(t, 24), FatalError);
}

/** The dead ranks of @p data as a plain vector. */
std::vector<std::uint32_t>
ranksOf(const NextUseData &data)
{
    return {data.deadRank.begin(), data.deadRank.end()};
}

/** Check NextUseData's contract over @p t at @p block granularity. */
void
expectDeadRanksFollowAddresses(const Trace &t, Bytes block)
{
    const NextUseData data = buildNextUseData(t, block);
    EXPECT_EQ(data.ticks, buildNextUse(t, block));

    std::vector<Addr> deadBlocks; // trace order
    std::vector<Addr> distinct;
    for (std::size_t k = 0; k < t.size(); ++k) {
        distinct.push_back(t[k].addr / block * block);
        if (data.ticks[k] == tickInfinity)
            deadBlocks.push_back(t[k].addr / block * block);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_EQ(data.deadRank.size(), deadBlocks.size());
    EXPECT_EQ(data.deadRank.size(), distinct.size());

    // A permutation of 0..D-1 ...
    std::vector<std::uint32_t> sorted = ranksOf(data);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t r = 0; r < sorted.size(); ++r)
        EXPECT_EQ(sorted[r], r);
    // ... that follows block address order.
    for (std::size_t a = 0; a < deadBlocks.size(); ++a)
        for (std::size_t b = 0; b < deadBlocks.size(); ++b)
            EXPECT_EQ(deadBlocks[a] < deadBlocks[b],
                      data.deadRank[a] < data.deadRank[b]);
}

TEST(NextUse, DeadRanksArePermutationInAddressOrder)
{
    Rng rng(0xdeadULL);
    for (const Bytes block : {Bytes{4}, Bytes{32}, Bytes{256}})
        for (const bool sparse : {false, true}) {
            // A reused cluster of 64 blocks counts ranks in a bitmap;
            // with one reference in five anywhere in a 2^24-block
            // span the blocks are too sparse for it and get sorted.
            Trace t;
            for (int i = 0; i < 300; ++i) {
                const Addr index = sparse && i % 5 == 0
                                       ? rng.below(1u << 24)
                                       : rng.below(64);
                t.append(index * block + rng.below(block / 4) * 4, 4,
                         RefKind::Load);
            }
            expectDeadRanksFollowAddresses(t, block);
        }
}

TEST(NextUse, DeadRanksSurviveSpansBeyondThirtyTwoBits)
{
    // Blocks 2^40 bytes apart, far too sparse for the rank bitmap.
    const Trace t = loadsAt({Addr{1} << 41, 0, Addr{3} << 40, 4,
                             Addr{1} << 40, 0, 8});
    expectDeadRanksFollowAddresses(t, 4);
    const NextUseData data = buildNextUseData(t, 4);
    // Dead positions in trace order: 2^41, 3*2^40, 4, 2^40, 0, 8.
    EXPECT_EQ(ranksOf(data),
              (std::vector<std::uint32_t>{4, 5, 1, 3, 0, 2}));
}

TEST(NextUse, GranularityMergesWordsInTheRanks)
{
    // With 8B blocks, 0 and 4 share block 0: one dead block, not two.
    const Trace t = loadsAt({8, 4, 0, 16, 12});
    const NextUseData data = buildNextUseData(t, 8);
    EXPECT_EQ(data.ticks,
              (std::vector<Tick>{4, 2, tickInfinity, tickInfinity,
                                 tickInfinity}));
    // Dead positions 2 (block 0), 3 (block 16), 4 (block 8).
    EXPECT_EQ(ranksOf(data), (std::vector<std::uint32_t>{0, 2, 1}));
    expectDeadRanksFollowAddresses(t, 8);
}

TEST(NextUse, SpanningReferencesTakeTheEarlierNextUse)
{
    // Position 0 spans blocks 0 and 8; block 8 comes back first.  The
    // spanning reference at 3 is the last use of blocks 16 and 24,
    // and counts as one dead position ranked by its first block.
    Trace t;
    t.append(4, 8, RefKind::Load);
    t.append(8, 4, RefKind::Load);
    t.append(0, 4, RefKind::Store);
    t.append(20, 8, RefKind::Load);
    const NextUseData data = buildNextUseData(t, 8);
    EXPECT_EQ(data.ticks, buildNextUse(t, 8));
    EXPECT_EQ(data.ticks, (std::vector<Tick>{1, tickInfinity,
                                             tickInfinity, tickInfinity}));
    EXPECT_EQ(ranksOf(data), (std::vector<std::uint32_t>{1, 0, 2}));
}

TEST(MinCacheConfig, Validation)
{
    MinCacheConfig c;
    c.size = 10; // not a block multiple
    EXPECT_THROW(c.validate(), FatalError);
    c = MinCacheConfig{};
    c.alloc = AllocPolicy::WriteNoAllocate;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(MinCache, BeladyChoosesFurthestVictim)
{
    // Capacity 2 words, no bypass.  Trace: A B C A B.
    // MIN evicts C's victim optimally: on miss C, the furthest of
    // {A (next at 3), B (next at 4)} is B, so B is evicted and A
    // hits at 3 while B misses at 4.
    MinCacheConfig c;
    c.size = 8;
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteAllocate;
    c.allowBypass = false;
    const Trace t = loadsAt({0, 4, 8, 0, 4});
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.misses, 4u); // A,B,C compulsory + B again
    EXPECT_EQ(s.hits, 1u);   // A at position 3
}

TEST(MinCache, BypassSkipsLowestPriorityMiss)
{
    // Capacity 2. Trace: A B C A B — with bypass, C (never reused)
    // bypasses the cache; A and B both hit afterwards.
    MinCacheConfig c;
    c.size = 8;
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteAllocate;
    c.allowBypass = true;
    const Trace t = loadsAt({0, 4, 8, 0, 4});
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.bypasses, 1u);
    EXPECT_EQ(s.hits, 2u);
    // Traffic: two fills + one bypassed word.
    EXPECT_EQ(s.fetchBytes, 12u);
}

TEST(MinCache, WriteValidateStoresFetchNothing)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    t.append(0, 4, RefKind::Store);
    t.append(4, 4, RefKind::Store);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.fetchBytes, 0u);
    // Both dirty words flushed at completion.
    EXPECT_EQ(s.flushWritebackBytes, 8u);
}

TEST(MinCache, WriteAllocateStoresFetchBlocks)
{
    MinCacheConfig c = canonicalMtc(64);
    c.alloc = AllocPolicy::WriteAllocate;
    Trace t;
    t.append(0, 4, RefKind::Store);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.fetchBytes, 4u); // word-sized block fetched
    EXPECT_EQ(s.flushWritebackBytes, 4u);
}

TEST(MinCache, PartialBlockLoadFillsMissingWords)
{
    // 32B blocks with write-validate: store validates one word; a
    // later load of another word in the block fills only that word.
    MinCacheConfig c;
    c.size = 64;
    c.blockBytes = 32;
    c.alloc = AllocPolicy::WriteValidate;
    Trace t;
    t.append(0, 4, RefKind::Store);
    t.append(8, 4, RefKind::Load);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.hits, 1u); // block present
    EXPECT_EQ(s.fetchBytes, 4u);
    EXPECT_EQ(s.flushWritebackBytes, 4u); // one dirty word
}

TEST(MinCache, DirtyEvictionWritesBack)
{
    MinCacheConfig c;
    c.size = 8; // two word blocks
    c.blockBytes = 4;
    c.alloc = AllocPolicy::WriteValidate;
    c.allowBypass = false;
    Trace t;
    t.append(0, 4, RefKind::Store); // dirty A
    t.append(4, 4, RefKind::Load);  // B
    t.append(8, 4, RefKind::Load);  // C evicts A (dirty)
    t.append(4, 4, RefKind::Load);  // keep B attractive
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.writebackBytes, 4u);
}

TEST(MinCache, TrafficRatioAndCounters)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    for (Addr a = 0; a < 64; a += 4)
        t.append(a, 4, RefKind::Load);
    const MinCacheStats s = runMinCache(t, c);
    EXPECT_EQ(s.accesses, 16u);
    EXPECT_EQ(s.requestBytes, 64u);
    EXPECT_EQ(s.fetchBytes, 64u); // compulsory only
    EXPECT_DOUBLE_EQ(s.trafficRatio(), 1.0);
}

TEST(MinCache, CanonicalMtcMatchesPaperDefinition)
{
    const MinCacheConfig c = canonicalMtc(8_KiB);
    EXPECT_EQ(c.blockBytes, wordBytes); // transfer = request size
    EXPECT_EQ(c.alloc, AllocPolicy::WriteValidate);
    EXPECT_TRUE(c.allowBypass);
    EXPECT_EQ(c.blocks(), 2048u);
    EXPECT_NE(c.describe().find("MIN"), std::string::npos);
}

TEST(MinCache, RejectsSpanningRefs)
{
    MinCacheConfig c = canonicalMtc(64);
    Trace t;
    t.append(2, 4, RefKind::Load); // spans two 4B blocks
    EXPECT_THROW(runMinCache(t, c), FatalError);
}

TEST(MinCache, CellsShareOneTableAcrossThreads)
{
    // The served sweep's shape: MIN cells of several sizes on
    // different threads over one next-use table (run under TSan).
    Trace t;
    for (Addr i = 0; i < 4000; ++i)
        t.append((i * 37 % 1500) * 4, 4,
                 i % 3 ? RefKind::Load : RefKind::Store);
    const NextUseTable table = makeNextUseTable(t, wordBytes);
    const std::vector<Bytes> sizes = {64, 256, 1_KiB, 4_KiB};
    std::vector<MinCacheStats> shared(sizes.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        threads.emplace_back([&, i] {
            shared[i] = runMinCache(t, canonicalMtc(sizes[i]), table);
        });
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const MinCacheStats own = runMinCache(t, canonicalMtc(sizes[i]));
        EXPECT_EQ(shared[i].misses, own.misses);
        EXPECT_EQ(shared[i].bypasses, own.bypasses);
        EXPECT_EQ(shared[i].trafficBelow(), own.trafficBelow());
    }
}

// ---------------------------------------------------------------
// Brute-force Belady oracle
// ---------------------------------------------------------------

/** What the oracle counts: the stats plus the write-aware scan work. */
struct OracleResult
{
    MinCacheStats stats;
    std::uint64_t scanPops = 0;
};

/**
 * Reference MIN with nothing shared with MinCacheSim: the resident
 * set is a plain list and each miss into a full cache scans the
 * trace forward for every candidate's next use.  Quadratic, so only
 * for small traces.  The rules it spells out are the engine's:
 * evict the block used furthest ahead; among blocks never used
 * again, the highest address first, or with writeAware the first
 * clean one among the top 32; bypass a miss whose own next use lies
 * beyond every resident block's; flush dirty words at the end.
 */
OracleResult
beladyOracle(const Trace &t, const MinCacheConfig &c)
{
    struct Line
    {
        Addr addr;
        std::uint64_t valid;
        std::uint64_t dirty;
    };
    const Bytes bb = c.blockBytes;
    const unsigned wordsPerBlock = static_cast<unsigned>(bb / wordBytes);
    const std::uint64_t full = wordsPerBlock == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << wordsPerBlock) - 1;
    auto blockOf = [&](std::size_t i) { return t[i].addr / bb * bb; };
    auto nextUse = [&](Addr block, std::size_t from) {
        for (std::size_t j = from; j < t.size(); ++j)
            if (blockOf(j) == block)
                return static_cast<Tick>(j);
        return tickInfinity;
    };
    auto writeback = [&](const Line &l) -> Bytes {
        if (l.dirty == 0)
            return 0;
        if (c.alloc == AllocPolicy::WriteValidate)
            return static_cast<Bytes>(std::popcount(l.dirty)) * wordBytes;
        return bb;
    };

    OracleResult out;
    MinCacheStats &s = out.stats;
    std::vector<Line> lines;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const MemRef &r = t[i];
        const Addr block = blockOf(i);
        std::uint64_t words = 0;
        for (Addr a = r.addr; a < r.addr + r.size; a += wordBytes)
            words |= std::uint64_t{1} << ((a - block) / wordBytes);
        s.accesses++;
        s.requestBytes += r.size;

        auto hit =
            std::find_if(lines.begin(), lines.end(),
                         [&](const Line &l) { return l.addr == block; });
        if (hit != lines.end()) {
            s.hits++;
            if (r.isLoad()) {
                s.fetchBytes += static_cast<Bytes>(std::popcount(
                                    words & ~hit->valid)) *
                                wordBytes;
                hit->valid |= words;
            } else {
                hit->valid |= words;
                hit->dirty |= words;
            }
            continue;
        }

        s.misses++;
        if (lines.size() == c.blocks()) {
            std::vector<Tick> nu(lines.size());
            for (std::size_t k = 0; k < lines.size(); ++k)
                nu[k] = nextUse(lines[k].addr, i + 1);
            std::vector<std::size_t> order(lines.size());
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (nu[a] != nu[b])
                              return nu[a] > nu[b];
                          return lines[a].addr > lines[b].addr;
                      });
            if (c.allowBypass && nextUse(block, i + 1) > nu[order[0]]) {
                s.bypasses++;
                if (r.isLoad())
                    s.fetchBytes += r.size;
                else
                    s.writebackBytes += r.size;
                continue;
            }
            std::size_t victim = order[0];
            if (nu[victim] == tickInfinity) {
                const std::size_t limit = c.writeAware ? 32 : 1;
                for (std::size_t k = 0; k < order.size() && k < limit &&
                                        nu[order[k]] == tickInfinity;
                     ++k) {
                    out.scanPops++;
                    if (lines[order[k]].dirty == 0) {
                        victim = order[k];
                        break;
                    }
                }
            }
            s.writebackBytes += writeback(lines[victim]);
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }

        Line l{block, 0, 0};
        if (r.isLoad()) {
            l.valid = full;
            s.fetchBytes += bb;
        } else if (c.alloc == AllocPolicy::WriteAllocate) {
            l.valid = full;
            l.dirty = words;
            s.fetchBytes += bb;
        } else {
            l.valid = words;
            l.dirty = words;
            s.validates++;
        }
        lines.push_back(l);
    }
    for (const Line &l : lines)
        s.flushWritebackBytes += writeback(l);
    return out;
}

/** Run the engine and the oracle and compare every counter. */
void
expectMatchesOracle(const Trace &t, const MinCacheConfig &c,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    MinCacheSim sim(t, c);
    const MinCacheStats got = sim.run();
    const OracleResult want = beladyOracle(t, c);
    const MinCacheStats &s = want.stats;
    EXPECT_EQ(got.accesses, s.accesses);
    EXPECT_EQ(got.hits, s.hits);
    EXPECT_EQ(got.misses, s.misses);
    EXPECT_EQ(got.bypasses, s.bypasses);
    EXPECT_EQ(got.validates, s.validates);
    EXPECT_EQ(got.requestBytes, s.requestBytes);
    EXPECT_EQ(got.fetchBytes, s.fetchBytes);
    EXPECT_EQ(got.writebackBytes, s.writebackBytes);
    EXPECT_EQ(got.flushWritebackBytes, s.flushWritebackBytes);
    EXPECT_EQ(sim.victimScanPops(), want.scanPops);
}

TEST(MinOracle, RandomTracesMatchTheEngine)
{
    Rng rng(0xbe1adULL);
    for (int round = 0; round < 1500; ++round) {
        MinCacheConfig c;
        c.blockBytes = Bytes{4} << rng.below(7); // 4..256 B
        c.size = c.blockBytes * (1 + rng.below(8));
        c.alloc = rng.chance(0.5) ? AllocPolicy::WriteAllocate
                                  : AllocPolicy::WriteValidate;
        c.allowBypass = rng.chance(0.5);
        c.writeAware = rng.chance(0.5);

        // Up to 16 distinct blocks, scattered in address so that
        // address order and first-touch order disagree.
        std::vector<Addr> blocks;
        const std::size_t nBlocks = 1 + rng.below(16);
        while (blocks.size() < nBlocks) {
            const Addr b = rng.below(4096) * c.blockBytes;
            if (std::find(blocks.begin(), blocks.end(), b) == blocks.end())
                blocks.push_back(b);
        }
        const unsigned words =
            static_cast<unsigned>(c.blockBytes / wordBytes);
        const double storeShare = rng.uniform();
        Trace t;
        const std::size_t refs = 1 + rng.below(200);
        for (std::size_t i = 0; i < refs; ++i) {
            const Addr block = blocks[rng.below(blocks.size())];
            const unsigned w = static_cast<unsigned>(rng.below(words));
            const Bytes size = w + 1 < words && rng.chance(0.2) ? 8 : 4;
            t.append(block + w * wordBytes, size,
                     rng.chance(storeShare) ? RefKind::Store
                                            : RefKind::Load);
        }
        expectMatchesOracle(t, c,
                            "round " + std::to_string(round) + ": " +
                                c.describe() +
                                (c.writeAware ? " write-aware" : ""));
        if (HasFailure())
            return;
    }
}

TEST(MinOracle, WriteAwareScanStopsAtThirtyTwoCandidates)
{
    // 40 dirty blocks that are never used again fill the cache; then
    // a run of one-shot loads and stores.  The first misses find no
    // clean block among the top 32 and evict the highest address
    // after 32 pops; later ones find a clean block left by a load.
    MinCacheConfig c;
    c.size = 40 * wordBytes;
    c.blockBytes = wordBytes;
    c.alloc = AllocPolicy::WriteAllocate;
    c.allowBypass = false;
    Trace t;
    for (Addr b = 0; b < 40; ++b)
        t.append(((b * 7) % 40) * 4, 4, RefKind::Store);
    for (Addr b = 0; b < 24; ++b)
        t.append(0x1000 - b * 8, 4,
                 b % 3 ? RefKind::Load : RefKind::Store);
    for (const bool aware : {false, true}) {
        c.writeAware = aware;
        expectMatchesOracle(t, c, aware ? "write-aware" : "plain");
    }
    c.writeAware = true;
    MinCacheSim sim(t, c);
    sim.run();
    EXPECT_GE(sim.victimScanPops(), 32u);
}

} // namespace
} // namespace membw
