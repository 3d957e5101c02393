/**
 * @file
 * Property-based tests over randomized traces (parameterized gtest):
 * classic cache-theory invariants the simulators must satisfy.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mtc/min_cache.hh"

namespace membw {
namespace {

/** Random trace with tunable locality and store fraction. */
Trace
randomTrace(std::uint64_t seed, std::size_t refs, std::size_t words,
            double storeFraction)
{
    Rng rng(seed);
    Trace t;
    t.reserve(refs);
    Addr cursor = 0;
    for (std::size_t i = 0; i < refs; ++i) {
        // Mix of sequential runs and random jumps.
        if (rng.chance(0.3))
            cursor = rng.below(words);
        else
            cursor = (cursor + 1) % words;
        const RefKind kind = rng.chance(storeFraction)
                                 ? RefKind::Store
                                 : RefKind::Load;
        t.append(cursor * wordBytes, wordBytes, kind);
    }
    return t;
}

// ----------------------------------------------------------------
// MIN optimality: on identical fully-associative geometry, Belady
// MIN (no bypass) never misses more than any online policy.
// ----------------------------------------------------------------

struct MinOptimalityCase
{
    std::uint64_t seed;
    Bytes cacheSize;
    Bytes blockBytes;
    ReplPolicy online;
};

/** Names each case by its fields: the struct's padding bytes would
 * otherwise leak into the test name as garbage. */
void
PrintTo(const MinOptimalityCase &c, std::ostream *os)
{
    *os << "seed=" << c.seed << " size=" << formatSize(c.cacheSize)
        << " block=" << c.blockBytes << "B policy=" << toString(c.online);
}

class MinOptimality
    : public ::testing::TestWithParam<MinOptimalityCase>
{
};

TEST_P(MinOptimality, MinMissesAtMostOnlinePolicy)
{
    const auto &p = GetParam();
    const Trace t = randomTrace(p.seed, 20000, 4096, 0.0);

    CacheConfig online;
    online.size = p.cacheSize;
    online.assoc = 0; // fully associative
    online.blockBytes = p.blockBytes;
    online.repl = p.online;
    online.seed = p.seed + 1;
    Cache cache(online);
    for (const MemRef &r : t)
        cache.access(r);

    MinCacheConfig min_cfg;
    min_cfg.size = p.cacheSize;
    min_cfg.blockBytes = p.blockBytes;
    min_cfg.alloc = AllocPolicy::WriteAllocate;
    min_cfg.allowBypass = false;
    const MinCacheStats min_stats = runMinCache(t, min_cfg);

    EXPECT_LE(min_stats.misses, cache.stats().misses)
        << "MIN must be optimal (seed " << p.seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinOptimality,
    ::testing::Values(
        MinOptimalityCase{1, 1_KiB, 4, ReplPolicy::LRU},
        MinOptimalityCase{2, 1_KiB, 4, ReplPolicy::FIFO},
        MinOptimalityCase{3, 1_KiB, 4, ReplPolicy::Random},
        MinOptimalityCase{4, 2_KiB, 32, ReplPolicy::LRU},
        MinOptimalityCase{5, 2_KiB, 32, ReplPolicy::FIFO},
        MinOptimalityCase{6, 2_KiB, 32, ReplPolicy::Random},
        MinOptimalityCase{7, 8_KiB, 16, ReplPolicy::LRU},
        MinOptimalityCase{8, 512, 8, ReplPolicy::LRU},
        MinOptimalityCase{9, 4_KiB, 64, ReplPolicy::FIFO},
        MinOptimalityCase{10, 4_KiB, 64, ReplPolicy::Random}));

// ----------------------------------------------------------------
// LRU inclusion (stack) property: a larger fully-associative LRU
// cache contains every hit of a smaller one, so misses are
// monotonically non-increasing in size.
// ----------------------------------------------------------------

class LruInclusion : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LruInclusion, MissesMonotoneInSize)
{
    const Trace t = randomTrace(GetParam(), 15000, 2048, 0.3);
    std::uint64_t prev_misses = ~0ULL;
    for (Bytes size : {256u, 512u, 1024u, 2048u, 4096u}) {
        CacheConfig cfg;
        cfg.size = size;
        cfg.assoc = 0;
        cfg.blockBytes = 16;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        EXPECT_LE(cache.stats().misses, prev_misses)
            << "size " << size;
        prev_misses = cache.stats().misses;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion,
                         ::testing::Values(11, 22, 33, 44, 55));

// ----------------------------------------------------------------
// Traffic inefficiency G >= 1: no real cache beats the MTC.
// ----------------------------------------------------------------

struct GapCase
{
    std::uint64_t seed;
    Bytes size;
    double storeFraction;
};

class InefficiencyBound : public ::testing::TestWithParam<GapCase>
{
};

TEST_P(InefficiencyBound, CacheTrafficAtLeastMtcTraffic)
{
    const auto &p = GetParam();
    const Trace t = randomTrace(p.seed, 20000, 8192, p.storeFraction);

    CacheConfig cfg;
    cfg.size = p.size;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    const TrafficResult cache = runTrace(t, cfg);

    const MinCacheStats mtc = runMinCache(t, canonicalMtc(p.size));

    EXPECT_GE(cache.pinBytes, mtc.trafficBelow())
        << "G < 1 for seed " << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InefficiencyBound,
    ::testing::Values(GapCase{100, 1_KiB, 0.0},
                      GapCase{101, 1_KiB, 0.4},
                      GapCase{102, 4_KiB, 0.2},
                      GapCase{103, 16_KiB, 0.5},
                      GapCase{104, 8_KiB, 0.1},
                      GapCase{105, 2_KiB, 0.9}));

// ----------------------------------------------------------------
// MTC traffic is monotone non-increasing in cache size.
// ----------------------------------------------------------------

class MtcMonotone : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MtcMonotone, TrafficNonIncreasingInSize)
{
    const Trace t = randomTrace(GetParam(), 20000, 8192, 0.25);
    Bytes prev = ~Bytes{0};
    for (Bytes size : {256u, 1024u, 4096u, 16384u}) {
        const MinCacheStats s = runMinCache(t, canonicalMtc(size));
        EXPECT_LE(s.trafficBelow(), prev) << "size " << size;
        prev = s.trafficBelow();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtcMonotone,
                         ::testing::Values(7, 17, 27));

// ----------------------------------------------------------------
// Conservation: for a write-back write-allocate cache, traffic
// below = fills + write-backs, and every dirty byte is written
// back exactly once (during the run or at flush).
// ----------------------------------------------------------------

class Conservation : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(Conservation, FillsAndWritebacksBalance)
{
    const Trace t = randomTrace(GetParam(), 30000, 4096, 0.5);
    CacheConfig cfg;
    cfg.size = 2_KiB;
    cfg.assoc = 2;
    cfg.blockBytes = 32;
    Cache cache(cfg);

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
    for (const MemRef &r : t)
        cache.access(r);
    cache.flush();

    const CacheStats &s = cache.stats();
    // Callback bytes match the counters exactly.
    EXPECT_EQ(below.fetched, s.demandFetchBytes +
                                 s.prefetchFetchBytes +
                                 s.partialFillBytes);
    EXPECT_EQ(below.written, s.writebackBytes +
                                 s.flushWritebackBytes +
                                 s.writeThroughBytes);
    // Write-backs can never exceed fills for write-allocate.
    EXPECT_LE(s.writebackBytes + s.flushWritebackBytes,
              s.demandFetchBytes + s.prefetchFetchBytes);
    // All counters are block-aligned.
    EXPECT_EQ(s.demandFetchBytes % 32, 0u);
    EXPECT_EQ((s.writebackBytes + s.flushWritebackBytes) % 32, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(3, 13, 23, 43));

// ----------------------------------------------------------------
// Write-through no-allocate: traffic is exactly miss fills plus all
// store bytes (the miss-rate <-> traffic-ratio identity the paper
// notes holds only for simple caches).
// ----------------------------------------------------------------

class WriteThroughIdentity
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WriteThroughIdentity, TrafficMatchesClosedForm)
{
    const Trace t = randomTrace(GetParam(), 25000, 4096, 0.4);
    CacheConfig cfg;
    cfg.size = 2_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    cfg.write = WritePolicy::WriteThrough;
    cfg.alloc = AllocPolicy::WriteNoAllocate;
    Cache cache(cfg);
    for (const MemRef &r : t)
        cache.access(r);
    cache.flush();

    const CacheStats &s = cache.stats();
    const Bytes expected =
        s.loadMisses * 32 + s.stores * wordBytes;
    EXPECT_EQ(s.trafficBelow(), expected);
    EXPECT_EQ(s.flushWritebackBytes, 0u); // never dirty
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteThroughIdentity,
                         ::testing::Values(5, 15, 25));

// ----------------------------------------------------------------
// Write-validate never generates more traffic than write-allocate
// for the same geometry (it skips fetches and writes back fewer
// bytes).
// ----------------------------------------------------------------

class WriteValidateBound
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WriteValidateBound, NoWorseThanWriteAllocate)
{
    const Trace t = randomTrace(GetParam(), 25000, 8192, 0.6);

    auto run = [&](AllocPolicy alloc) {
        CacheConfig cfg;
        cfg.size = 2_KiB;
        cfg.assoc = 1;
        cfg.blockBytes = 32;
        cfg.alloc = alloc;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        cache.flush();
        return cache.stats().trafficBelow();
    };

    EXPECT_LE(run(AllocPolicy::WriteValidate),
              run(AllocPolicy::WriteAllocate));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteValidateBound,
                         ::testing::Values(9, 19, 29, 39));

} // namespace
} // namespace membw
