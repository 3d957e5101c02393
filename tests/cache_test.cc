/**
 * @file
 * Unit tests for src/cache: geometry, policies, traffic accounting.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/config.hh"
#include "common/log.hh"

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

} // namespace
} // namespace membw
