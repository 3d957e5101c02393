/**
 * @file
 * Unit tests for src/cache: geometry, policies, traffic accounting,
 * and a differential check of wide sets against a naive reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <vector>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace membw {
namespace {

CacheConfig
smallCache()
{
    CacheConfig c;
    c.size = 256; // 8 blocks
    c.assoc = 2;
    c.blockBytes = 32;
    return c;
}

MemRef
ld(Addr a)
{
    return MemRef{a, 4, RefKind::Load};
}

MemRef
st(Addr a)
{
    return MemRef{a, 4, RefKind::Store};
}

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig c;
    c.size = 64_KiB;
    c.assoc = 4;
    c.blockBytes = 32;
    EXPECT_EQ(c.ways(), 4u);
    EXPECT_EQ(c.sets(), 512u);

    c.assoc = 0; // fully associative
    EXPECT_EQ(c.ways(), 2048u);
    EXPECT_EQ(c.sets(), 1u);
}

TEST(CacheConfig, ValidationRejectsBadGeometry)
{
    CacheConfig c = smallCache();
    c.blockBytes = 24; // not a power of two
    EXPECT_THROW(c.validate(), FatalError);

    c = smallCache();
    c.size = 100; // not a block multiple
    EXPECT_THROW(c.validate(), FatalError);

    c = smallCache();
    c.assoc = 16; // more ways than blocks
    EXPECT_THROW(c.validate(), FatalError);

    c = smallCache();
    c.alloc = AllocPolicy::WriteValidate;
    c.write = WritePolicy::WriteThrough; // incompatible
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(CacheConfig, Describe)
{
    CacheConfig c = smallCache();
    EXPECT_EQ(c.describe(), "256B/2way/32B WB-WA LRU");
    c.taggedPrefetch = true;
    c.assoc = 0;
    EXPECT_EQ(c.describe(), "256B/full/32B WB-WA LRU+pf");
}

TEST(FormatSize, Units)
{
    EXPECT_EQ(formatSize(4), "4B");
    EXPECT_EQ(formatSize(1_KiB), "1KB");
    EXPECT_EQ(formatSize(64_KiB), "64KB");
    EXPECT_EQ(formatSize(2_MiB), "2MB");
    EXPECT_EQ(formatSize(1536), "1536B");
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    const AccessResult miss = cache.access(ld(0x1000));
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.fetchedBytes, 32u);
    const AccessResult hit = cache.access(ld(0x1004));
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.fetchedBytes, 0u);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_TRUE(cache.contains(0x1010));
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(Cache, RejectsBlockSpanningRef)
{
    Cache cache(smallCache());
    EXPECT_THROW(cache.access(MemRef{30, 4, RefKind::Load}),
                 FatalError);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 4 sets; set index = (addr/32) % 4.  Three blocks in the
    // same set: 0x000, 0x200, 0x400 (block numbers 0, 16, 32).
    Cache cache(smallCache());
    cache.access(ld(0x000));
    cache.access(ld(0x200));
    cache.access(ld(0x000)); // touch 0x000: 0x200 is now LRU
    cache.access(ld(0x400)); // evicts 0x200
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_FALSE(cache.contains(0x200));
    EXPECT_TRUE(cache.contains(0x400));
}

TEST(Cache, FifoEvictsOldestInsert)
{
    CacheConfig cfg = smallCache();
    cfg.repl = ReplPolicy::FIFO;
    Cache cache(cfg);
    cache.access(ld(0x000));
    cache.access(ld(0x200));
    cache.access(ld(0x000)); // touching does not help under FIFO
    cache.access(ld(0x400)); // evicts 0x000 (oldest insert)
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x200));
    EXPECT_TRUE(cache.contains(0x400));
}

TEST(Cache, RandomReplacementEvictsExactlyOne)
{
    CacheConfig cfg = smallCache();
    cfg.repl = ReplPolicy::Random;
    cfg.seed = 99;
    Cache cache(cfg);
    cache.access(ld(0x000));
    cache.access(ld(0x200));
    cache.access(ld(0x400));
    const int resident = cache.contains(0x000) + cache.contains(0x200);
    EXPECT_EQ(resident, 1);
    EXPECT_TRUE(cache.contains(0x400));
}

TEST(Cache, WriteBackDefersTrafficUntilEviction)
{
    Cache cache(smallCache());
    cache.access(st(0x000)); // miss: fetch 32B (write-allocate)
    EXPECT_EQ(cache.stats().demandFetchBytes, 32u);
    EXPECT_EQ(cache.stats().writebackBytes, 0u);

    cache.access(ld(0x200));
    cache.access(ld(0x400)); // evicts dirty 0x000
    EXPECT_EQ(cache.stats().writebackBytes, 32u);
}

TEST(Cache, WriteThroughSendsStoresImmediately)
{
    CacheConfig cfg = smallCache();
    cfg.write = WritePolicy::WriteThrough;
    Cache cache(cfg);
    cache.access(st(0x000));
    EXPECT_EQ(cache.stats().writeThroughBytes, 4u);
    cache.access(st(0x004)); // hit: still written through
    EXPECT_EQ(cache.stats().writeThroughBytes, 8u);

    // Write-through lines are never dirty: eviction is free.
    cache.access(ld(0x200));
    cache.access(ld(0x400));
    EXPECT_EQ(cache.stats().writebackBytes, 0u);
}

TEST(Cache, WriteNoAllocateDoesNotAllocate)
{
    CacheConfig cfg = smallCache();
    cfg.write = WritePolicy::WriteThrough;
    cfg.alloc = AllocPolicy::WriteNoAllocate;
    Cache cache(cfg);
    cache.access(st(0x000));
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_EQ(cache.stats().writeThroughBytes, 4u);
    EXPECT_EQ(cache.stats().demandFetchBytes, 0u);
}

TEST(Cache, WriteValidateAllocatesWithoutFetch)
{
    CacheConfig cfg = smallCache();
    cfg.alloc = AllocPolicy::WriteValidate;
    Cache cache(cfg);
    cache.access(st(0x000));
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_EQ(cache.stats().demandFetchBytes, 0u);

    // A load of the written word hits without traffic...
    const AccessResult hit = cache.access(ld(0x000));
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.fetchedBytes, 0u);

    // ...while a load of an unwritten word in the same block fills
    // just that word.
    const AccessResult partial = cache.access(ld(0x008));
    EXPECT_TRUE(partial.hit);
    EXPECT_EQ(partial.fetchedBytes, 4u);
    EXPECT_EQ(cache.stats().partialFills, 1u);
    EXPECT_EQ(cache.stats().partialFillBytes, 4u);
}

TEST(Cache, WriteValidateWritesBackOnlyDirtyWords)
{
    CacheConfig cfg = smallCache();
    cfg.alloc = AllocPolicy::WriteValidate;
    Cache cache(cfg);
    cache.access(st(0x000));
    cache.access(st(0x004)); // two dirty words in the block
    const Bytes flushed = cache.flush();
    EXPECT_EQ(flushed, 8u);
    EXPECT_EQ(cache.stats().flushWritebackBytes, 8u);
}

TEST(Cache, FlushWritesBackAllDirtyData)
{
    Cache cache(smallCache());
    cache.access(st(0x000)); // set 0, dirty
    cache.access(st(0x020)); // set 1, dirty
    cache.access(ld(0x040)); // set 2, clean
    const Bytes flushed = cache.flush();
    EXPECT_EQ(flushed, 64u); // two dirty 32B blocks; clean load free
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_FALSE(cache.contains(0x040));
}

TEST(Cache, TrafficRatioIdentityForLoads)
{
    // Sequential word loads over fresh memory: every 8th load misses
    // and fetches 32B, so R = 32/(8*4) = 1 exactly.
    Cache cache(smallCache());
    for (Addr a = 0x0; a < 0x100; a += 4)
        cache.access(ld(a));
    // 64 loads, 8 misses; no dirty data.
    EXPECT_EQ(cache.stats().requestBytes, 256u);
    EXPECT_EQ(cache.stats().trafficBelow(), 256u);
    EXPECT_DOUBLE_EQ(cache.stats().trafficRatio(), 1.0);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 8.0 / 64.0);
}

TEST(Cache, SingleWordBlocksNeverOverfetch)
{
    CacheConfig cfg;
    cfg.size = 64;
    cfg.assoc = 1;
    cfg.blockBytes = 4;
    Cache cache(cfg);
    for (Addr a = 0; a < 256; a += 4)
        cache.access(ld(a));
    // Each miss fetches exactly the word: R == 1 even while
    // thrashing.
    EXPECT_DOUBLE_EQ(cache.stats().trafficRatio(), 1.0);
}

TEST(Cache, TaggedPrefetchFetchesNextBlock)
{
    CacheConfig cfg = smallCache();
    cfg.size = 1_KiB; // roomier so prefetches do not evict
    cfg.taggedPrefetch = true;
    Cache cache(cfg);

    cache.access(ld(0x000)); // miss: prefetch 0x020
    EXPECT_TRUE(cache.contains(0x020));
    EXPECT_EQ(cache.stats().prefetches, 1u);
    EXPECT_EQ(cache.stats().prefetchFetchBytes, 32u);

    // First touch of the prefetched block triggers the next one.
    cache.access(ld(0x020));
    EXPECT_TRUE(cache.contains(0x040));
    EXPECT_EQ(cache.stats().prefetches, 2u);

    // Second touch does not.
    cache.access(ld(0x024));
    EXPECT_EQ(cache.stats().prefetches, 2u);
}

TEST(Cache, PrefetchCountsSeparatelyFromDemand)
{
    CacheConfig cfg = smallCache();
    cfg.taggedPrefetch = true;
    Cache cache(cfg);
    cache.access(ld(0x000));
    EXPECT_EQ(cache.stats().demandFetchBytes, 32u);
    EXPECT_EQ(cache.stats().prefetchFetchBytes, 32u);
    EXPECT_EQ(cache.stats().trafficBelow(), 64u);
}

TEST(Cache, BelowCallbacksSeeFillsAndWritebacks)
{
    Cache cache(smallCache());
    struct Below
    {
        Bytes fetched = 0, written = 0;
    } below;
    cache.setBelow(
        [](void *ctx, Addr, Bytes b) {
            static_cast<Below *>(ctx)->fetched += b;
        },
        [](void *ctx, Addr, Bytes b) {
            static_cast<Below *>(ctx)->written += b;
        },
        &below);
    cache.access(st(0x000));
    cache.access(ld(0x200));
    cache.access(ld(0x400)); // evict dirty 0x000
    EXPECT_EQ(below.fetched, 96u);
    EXPECT_EQ(below.written, 32u);
    cache.flush();
    EXPECT_EQ(below.written, 32u); // remaining blocks were clean
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    CacheConfig cfg;
    cfg.size = 128; // 4 blocks
    cfg.assoc = 0;
    cfg.blockBytes = 32;
    Cache cache(cfg);
    // These blocks would all collide in a direct-mapped cache.
    cache.access(ld(0x000));
    cache.access(ld(0x080));
    cache.access(ld(0x100));
    cache.access(ld(0x180));
    EXPECT_EQ(cache.stats().misses, 4u);
    cache.access(ld(0x000));
    cache.access(ld(0x180));
    EXPECT_EQ(cache.stats().hits, 2u);
}

/**
 * Deliberately naive model of Cache without prefetch, stream buffers
 * or sectors: every lookup scans the set, and each set keeps a
 * std::list of its valid ways in victim order (front = next victim).
 * LRU moves a way to the back on every hit, FIFO only on insert, and
 * Random draws `below(ways)` from an Rng seeded like the cache's.
 * An invalid way, lowest first, always wins over a victim.
 */
class NaiveCache
{
  public:
    explicit NaiveCache(const CacheConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed), sets_(cfg.sets())
    {
        for (Set &set : sets_)
            set.ways.resize(cfg.ways());
    }

    void
    access(const MemRef &ref)
    {
        const Addr block = ref.addr & ~(cfg_.blockBytes - 1);
        std::uint64_t words = 0;
        for (Addr a = ref.addr; a < ref.addr + ref.size; a += wordBytes)
            words |= std::uint64_t{1} << ((a - block) / wordBytes);
        Set &set = sets_[(block / cfg_.blockBytes) % sets_.size()];

        stats.accesses++;
        stats.requestBytes += ref.size;
        if (ref.isLoad())
            stats.loads++;
        else
            stats.stores++;

        unsigned way = 0;
        while (way < set.ways.size() &&
               !(set.ways[way].valid && set.ways[way].block == block))
            ++way;
        if (way < set.ways.size()) {
            Line &line = set.ways[way];
            stats.hits++;
            if (cfg_.repl == ReplPolicy::LRU) {
                set.order.remove(way);
                set.order.push_back(way);
            }
            if (ref.isLoad()) {
                const std::uint64_t missing = words & ~line.validMask;
                if (missing) {
                    stats.partialFills++;
                    stats.partialFillBytes +=
                        std::popcount(missing) * wordBytes;
                    line.validMask |= missing;
                }
            } else {
                line.validMask |= words;
                store(line, words, ref.size);
            }
            return;
        }

        stats.misses++;
        if (ref.isLoad()) {
            stats.loadMisses++;
            fill(set, block).validMask = fullMask();
            stats.demandFetchBytes += cfg_.blockBytes;
            return;
        }
        stats.storeMisses++;
        switch (cfg_.alloc) {
          case AllocPolicy::WriteAllocate: {
            Line &line = fill(set, block);
            line.validMask = fullMask();
            stats.demandFetchBytes += cfg_.blockBytes;
            store(line, words, ref.size);
            break;
          }
          case AllocPolicy::WriteNoAllocate:
            stats.writeThroughBytes += ref.size;
            break;
          case AllocPolicy::WriteValidate: {
            Line &line = fill(set, block);
            line.validMask = words;
            line.dirtyMask = words;
            break;
          }
        }
    }

    void
    flush()
    {
        for (Set &set : sets_)
            for (unsigned w = 0; w < set.ways.size(); ++w)
                evict(set, w, true);
    }

    CacheStats stats;

  private:
    struct Line
    {
        bool valid = false;
        Addr block = 0;
        std::uint64_t validMask = 0;
        std::uint64_t dirtyMask = 0;
    };

    struct Set
    {
        std::vector<Line> ways;
        std::list<unsigned> order;
    };

    std::uint64_t
    fullMask() const
    {
        return (std::uint64_t{1} << (cfg_.blockBytes / wordBytes)) - 1;
    }

    void
    store(Line &line, std::uint64_t words, Bytes size)
    {
        if (cfg_.write == WritePolicy::WriteThrough)
            stats.writeThroughBytes += size;
        else
            line.dirtyMask |= words;
    }

    void
    evict(Set &set, unsigned way, bool to_flush)
    {
        Line &line = set.ways[way];
        if (!line.valid)
            return;
        stats.evictions++;
        Bytes wb = 0;
        if (line.dirtyMask)
            wb = cfg_.alloc == AllocPolicy::WriteValidate
                     ? std::popcount(line.dirtyMask) * wordBytes
                     : cfg_.blockBytes;
        if (wb) {
            stats.writebacks++;
            (to_flush ? stats.flushWritebackBytes
                      : stats.writebackBytes) += wb;
        }
        set.order.remove(way);
        line = Line{};
    }

    Line &
    fill(Set &set, Addr block)
    {
        const unsigned ways = static_cast<unsigned>(set.ways.size());
        unsigned way = 0;
        while (way < ways && set.ways[way].valid)
            ++way;
        if (way == ways) {
            way = cfg_.repl == ReplPolicy::Random
                      ? static_cast<unsigned>(rng_.below(ways))
                      : set.order.front();
            evict(set, way, false);
        }
        set.order.push_back(way);
        Line &line = set.ways[way];
        line.valid = true;
        line.block = block;
        return line;
    }

    CacheConfig cfg_;
    Rng rng_;
    std::vector<Set> sets_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
#define MEMBW_EXPECT_FIELD(f) EXPECT_EQ(got.f, want.f) << #f
    MEMBW_EXPECT_FIELD(accesses);
    MEMBW_EXPECT_FIELD(loads);
    MEMBW_EXPECT_FIELD(stores);
    MEMBW_EXPECT_FIELD(hits);
    MEMBW_EXPECT_FIELD(misses);
    MEMBW_EXPECT_FIELD(loadMisses);
    MEMBW_EXPECT_FIELD(storeMisses);
    MEMBW_EXPECT_FIELD(evictions);
    MEMBW_EXPECT_FIELD(writebacks);
    MEMBW_EXPECT_FIELD(partialFills);
    MEMBW_EXPECT_FIELD(prefetches);
    MEMBW_EXPECT_FIELD(streamHits);
    MEMBW_EXPECT_FIELD(streamAllocs);
    MEMBW_EXPECT_FIELD(requestBytes);
    MEMBW_EXPECT_FIELD(demandFetchBytes);
    MEMBW_EXPECT_FIELD(partialFillBytes);
    MEMBW_EXPECT_FIELD(prefetchFetchBytes);
    MEMBW_EXPECT_FIELD(streamFetchBytes);
    MEMBW_EXPECT_FIELD(writebackBytes);
    MEMBW_EXPECT_FIELD(writeThroughBytes);
    MEMBW_EXPECT_FIELD(flushWritebackBytes);
#undef MEMBW_EXPECT_FIELD
}

/**
 * Seeded random word and doubleword references, a third of them
 * stores: mostly over a hot region half the cache's size, the rest
 * over a cold region four times its size, so sets fill, hit and
 * evict.
 */
std::vector<MemRef>
randomTrace(Bytes cache_bytes, std::uint64_t seed, std::size_t refs)
{
    Rng rng(seed);
    std::vector<MemRef> t;
    t.reserve(refs);
    for (std::size_t i = 0; i < refs; ++i) {
        const Bytes span = rng.below(4) == 0 ? cache_bytes * 4
                                             : cache_bytes / 2;
        const Bytes size = rng.below(4) == 0 ? 8 : 4;
        const Addr addr = 0x100000 + rng.below(span / size) * size;
        t.push_back(MemRef{addr, size,
                           rng.below(3) == 0 ? RefKind::Store
                                             : RefKind::Load});
    }
    return t;
}

TEST(CacheReference, WideSetsMatchNaiveModel)
{
    struct Geometry
    {
        Bytes size;
        unsigned assoc;
        Bytes block;
    };
    // 16-way x 8 sets, 64-way x 4 sets, and 256 ways in one set.
    const Geometry geometries[] = {
        {2_KiB, 16, 16}, {16_KiB, 64, 64}, {8_KiB, 0, 32}};
    const std::size_t refs = 12000;

    for (const Geometry &g : geometries) {
        for (ReplPolicy repl :
             {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::Random}) {
            for (WritePolicy write :
                 {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
                for (AllocPolicy alloc :
                     {AllocPolicy::WriteAllocate,
                      AllocPolicy::WriteNoAllocate,
                      AllocPolicy::WriteValidate}) {
                    // validate() rejects write-validate without
                    // write-back.
                    if (alloc == AllocPolicy::WriteValidate &&
                        write == WritePolicy::WriteThrough)
                        continue;
                    CacheConfig cfg;
                    cfg.size = g.size;
                    cfg.assoc = g.assoc;
                    cfg.blockBytes = g.block;
                    cfg.repl = repl;
                    cfg.write = write;
                    cfg.alloc = alloc;
                    cfg.seed = 7;
                    SCOPED_TRACE(cfg.describe());
                    const std::vector<MemRef> trace =
                        randomTrace(g.size, g.size + g.assoc, refs);

                    Cache cache(cfg);
                    NaiveCache naive(cfg);
                    // A mid-trace flush empties every set, so the
                    // second half refills them from way 0.
                    for (std::size_t i = 0; i < refs; ++i) {
                        if (i == refs / 2) {
                            cache.flush();
                            naive.flush();
                            expectSameStats(cache.stats(), naive.stats);
                        }
                        cache.access(trace[i]);
                        naive.access(trace[i]);
                    }
                    expectSameStats(cache.stats(), naive.stats);
                    cache.flush();
                    naive.flush();
                    expectSameStats(cache.stats(), naive.stats);
                    ASSERT_FALSE(HasFailure());
                }
            }
        }
    }
}

} // namespace
} // namespace membw
