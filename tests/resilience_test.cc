/**
 * @file
 * Unit tests for src/resilience: checkpoint container, watchdog,
 * shutdown signals, and checkpoint/resume state equality for the
 * cache, hierarchy, MTC, and core-result serializers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/crc.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "mtc/min_cache.hh"
#include "obs/registry.hh"
#include "resilience/checkpoint.hh"
#include "resilience/exit_codes.hh"
#include "resilience/fault_injection.hh"
#include "resilience/guarded_io.hh"
#include "resilience/signals.hh"
#include "resilience/watchdog.hh"
#include "trace/trace.hh"

#ifdef MEMBW_CORPUS_DIR
#include "trace/trace_io.hh"
#endif

namespace membw {
namespace {

TEST(Checkpoint, PrimitiveRoundTrip)
{
    ChkWriter w;
    w.beginSection(chkTag("TEST"));
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x123456789abcdef0ull);
    w.i64(-42);
    w.f64(3.25);
    w.str("hello checkpoint");
    w.endSection();

    const std::string image = w.serialize();
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok()) << opened.error().describe();
    ChkReader r = std::move(opened.value());

    r.enterSection(chkTag("TEST"));
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), "hello checkpoint");
    r.leaveSection();
    EXPECT_FALSE(r.failed()) << r.error().describe();
    EXPECT_TRUE(r.atEnd());
}

TEST(Checkpoint, CrcGuardsPayload)
{
    ChkWriter w;
    w.beginSection(chkTag("TEST"));
    w.u64(7);
    w.endSection();
    std::string image = w.serialize();

    // Flip one payload bit; the container header stays intact.
    image[image.size() - 1] ^= 0x01;
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error().code, Errc::Corrupt);
}

TEST(Checkpoint, RejectsForeignAndTruncatedImages)
{
    const std::string junk = "definitely not a checkpoint image";
    auto bad = ChkReader::fromMemory(junk.data(), junk.size());
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Errc::BadMagic);

    ChkWriter w;
    w.beginSection(chkTag("TEST"));
    w.u64(7);
    w.endSection();
    const std::string image = w.serialize();
    auto cut = ChkReader::fromMemory(image.data(), image.size() - 3);
    ASSERT_FALSE(cut.ok());
    EXPECT_EQ(cut.error().code, Errc::Truncated);
}

TEST(Checkpoint, SectionTagMismatchLatches)
{
    ChkWriter w;
    w.beginSection(chkTag("AAAA"));
    w.u64(1);
    w.endSection();
    const std::string image = w.serialize();
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());

    r.enterSection(chkTag("BBBB"));
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
    // Latched: further reads stay failed and return zeros.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_TRUE(r.failed());
}

TEST(Checkpoint, UnconsumedSectionBytesLatch)
{
    ChkWriter w;
    w.beginSection(chkTag("TEST"));
    w.u64(1);
    w.u64(2);
    w.endSection();
    const std::string image = w.serialize();
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());

    r.enterSection(chkTag("TEST"));
    EXPECT_EQ(r.u64(), 1u); // leaves 8 bytes unread
    r.leaveSection();
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.error().code, Errc::Corrupt);
}

TEST(Checkpoint, RegistryValuesRoundTrip)
{
    StatsRegistry registry;
    StatsGroup g = registry.group("unit");
    g.addCounter("events", "test events").set(12345);
    g.addScalar("ratio", "test ratio").set(0.5);

    ChkWriter w;
    saveRegistryValues(registry, w);
    const std::string image = w.serialize();
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());

    const std::vector<RegistryValue> values = loadRegistryValues(r);
    EXPECT_FALSE(r.failed()) << r.error().describe();
    ASSERT_EQ(values.size(), 2u);
    bool sawEvents = false;
    for (const RegistryValue &v : values)
        if (v.name == "unit.events") {
            sawEvents = true;
            EXPECT_DOUBLE_EQ(v.value, 12345.0);
        }
    EXPECT_TRUE(sawEvents);
}

TEST(Watchdog, TripsOnExcessiveGapAndReportsHeadroom)
{
    Watchdog wd(100);
    wd.advance(40);
    wd.advance(90); // gap 50: worst so far
    EXPECT_EQ(wd.maxGap(), 50u);
    EXPECT_DOUBLE_EQ(wd.headroom(), 0.5);
    EXPECT_THROW(wd.advance(200), WatchdogError);
}

TEST(Watchdog, DisabledNeverTrips)
{
    Watchdog wd(0);
    wd.advance(1);
    wd.advance(1u << 30);
    EXPECT_DOUBLE_EQ(wd.headroom(), 1.0);
}

TEST(Watchdog, TripDumpsDiagnosticRegistry)
{
    Watchdog wd(10, "unit");
    bool diagnosed = false;
    wd.setDiagnostic([&](StatsRegistry &registry) {
        diagnosed = true;
        registry.group("unit").addCounter("probe", "probe").set(1);
    });
    wd.advance(5);
    EXPECT_THROW(wd.advance(1000), WatchdogError);
    EXPECT_TRUE(diagnosed);
}

TEST(Signals, LatchedAndClearable)
{
    installShutdownHandlers();
    clearShutdownRequest();
    EXPECT_EQ(shutdownRequested(), 0);
    std::raise(SIGTERM);
    EXPECT_EQ(shutdownRequested(), SIGTERM);
    EXPECT_STREQ(shutdownSignalName(), "SIGTERM");
    clearShutdownRequest();
    EXPECT_EQ(shutdownRequested(), 0);
}

namespace {

Trace
mixedTrace(std::size_t refs)
{
    // Deterministic blend of streaming, striding, and reuse so every
    // cache feature (evictions, write-backs, prefetch, streams) has
    // work to do.
    Trace t;
    Addr a = 0x10000;
    for (std::size_t i = 0; i < refs; ++i) {
        if (i % 11 == 0)
            a = 0x10000 + (i % 7) * 4096;
        else
            a += (i % 3 == 0) ? 64 : 4;
        t.append(a, 4, i % 4 == 0 ? RefKind::Store : RefKind::Load);
    }
    return t;
}

std::string
serializeHierarchy(const CacheHierarchy &hier)
{
    ChkWriter w;
    hier.saveState(w);
    return w.serialize();
}

} // namespace

TEST(Resume, HierarchyStateRoundTripsByteIdentically)
{
    const Trace trace = mixedTrace(4000);
    CacheConfig l1;
    l1.name = "L1";
    l1.size = 8_KiB;
    l1.streamBuffers = 2;
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 64_KiB;
    l2.assoc = 4;
    l2.blockBytes = 64;
    const std::vector<CacheConfig> configs{l1, l2};

    // Uninterrupted reference run.
    CacheHierarchy straight(configs);
    for (const MemRef &r : trace)
        straight.access(r);

    // Interrupted at the midpoint, serialized, restored into a fresh
    // hierarchy, and continued.
    CacheHierarchy first(configs);
    for (std::size_t i = 0; i < trace.size() / 2; ++i)
        first.access(trace[i]);
    const std::string snapshot = serializeHierarchy(first);

    CacheHierarchy second(configs);
    auto opened =
        ChkReader::fromMemory(snapshot.data(), snapshot.size());
    ASSERT_TRUE(opened.ok()) << opened.error().describe();
    ChkReader r = std::move(opened.value());
    second.loadState(r);
    ASSERT_FALSE(r.failed()) << r.error().describe();
    for (std::size_t i = trace.size() / 2; i < trace.size(); ++i)
        second.access(trace[i]);

    // Full state equality, not just a few counters.
    EXPECT_EQ(serializeHierarchy(second), serializeHierarchy(straight));
}

TEST(Resume, RandomReplacementStaysDeterministic)
{
    const Trace trace = mixedTrace(3000);
    CacheConfig cfg;
    cfg.name = "L1";
    cfg.size = 4_KiB;
    cfg.assoc = 4;
    cfg.repl = ReplPolicy::Random;
    const std::vector<CacheConfig> configs{cfg};

    CacheHierarchy straight(configs);
    for (const MemRef &r : trace)
        straight.access(r);

    CacheHierarchy first(configs);
    for (std::size_t i = 0; i < 1000; ++i)
        first.access(trace[i]);
    const std::string snapshot = serializeHierarchy(first);

    CacheHierarchy second(configs);
    auto opened =
        ChkReader::fromMemory(snapshot.data(), snapshot.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    second.loadState(r);
    ASSERT_FALSE(r.failed()) << r.error().describe();
    for (std::size_t i = 1000; i < trace.size(); ++i)
        second.access(trace[i]);

    // The RNG state rides in the checkpoint, so even Random
    // replacement resumes onto the uninterrupted trajectory.
    EXPECT_EQ(serializeHierarchy(second), serializeHierarchy(straight));
}

TEST(Resume, GeometryMismatchIsClassified)
{
    CacheConfig small;
    small.name = "L1";
    small.size = 4_KiB;
    CacheHierarchy donor(std::vector<CacheConfig>{small});
    const std::string snapshot = serializeHierarchy(donor);

    CacheConfig big = small;
    big.size = 8_KiB;
    CacheHierarchy other(std::vector<CacheConfig>{big});
    auto opened =
        ChkReader::fromMemory(snapshot.data(), snapshot.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    other.loadState(r);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.error().code, Errc::Mismatch);
}

namespace {

std::string
serializeCache(const Cache &cache)
{
    ChkWriter w;
    cache.saveState(w);
    return w.serialize();
}

/**
 * Seeded word references with a quarter stores: half over a hot
 * 32 KiB region, half over a cold 256 KiB one, so wide sets fill,
 * hit, and then evict by recency.
 */
Trace
wideSetTrace(std::size_t refs)
{
    Rng rng(11);
    Trace t;
    for (std::size_t i = 0; i < refs; ++i) {
        const Bytes span = rng.below(2) ? 32_KiB : 256_KiB;
        t.append(0x40000 + rng.below(span / 4) * 4, 4,
                 rng.below(4) == 0 ? RefKind::Store : RefKind::Load);
    }
    return t;
}

/**
 * A one-set cache of @p ways 32 B ways; @p assoc 0 makes it fully
 * associative.
 */
CacheConfig
oneSetCache(unsigned ways, unsigned assoc)
{
    CacheConfig cfg;
    cfg.name = "set" + std::to_string(ways);
    cfg.size = ways * 32;
    cfg.assoc = assoc;
    cfg.blockBytes = 32;
    return cfg;
}

/**
 * A CACH section for oneSetCache(), written by hand: way w is valid
 * and holds blocks[w] unless that is addrInvalid.
 */
std::string
oneSetSection(const CacheConfig &cfg, const std::vector<Addr> &blocks)
{
    ChkWriter w;
    w.beginSection(chkTag("CACH"));
    w.u32(1);
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    w.u64(32);
    w.u64(blocks.size()); // seq
    for (std::uint64_t word : Rng(cfg.seed).state())
        w.u64(word);
    CacheStats stats;
    stats.accesses = stats.loads = stats.misses = 1;
    stats.loadMisses = 1;
    saveCacheStats(w, stats);
    for (std::size_t way = 0; way < blocks.size(); ++way) {
        const bool valid = blocks[way] != addrInvalid;
        w.u8(valid ? 1 : 0);
        w.u64(blocks[way]);
        w.u64(valid ? way + 1 : 0);
        w.u64(valid ? way + 1 : 0);
        w.u64(valid ? 0xff : 0);
        w.u64(0);
        w.u8(0);
    }
    w.u64(0); // stream buffers
    w.endSection();
    return w.serialize();
}

/** Load @p image into @p cache; the error it latched, or Errc::Ok. */
Error
loadCacheImage(const std::string &image, Cache &cache)
{
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    EXPECT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    cache.loadState(r);
    return r.failed() ? r.error() : Error{Errc::Ok, ""};
}

} // namespace

TEST(Resume, WideSetsResumeToIdenticalState)
{
    const Trace trace = wideSetTrace(20000);
    CacheConfig fa_lru;
    fa_lru.name = "FA";
    fa_lru.size = 64_KiB;
    fa_lru.assoc = 0; // 2048 ways
    CacheConfig fifo16;
    fifo16.name = "W16";
    fifo16.size = 16_KiB;
    fifo16.assoc = 16;
    fifo16.repl = ReplPolicy::FIFO;

    for (const CacheConfig &cfg : {fa_lru, fifo16}) {
        Cache straight(cfg);
        for (const MemRef &r : trace)
            straight.access(r);
        straight.flush();

        // Save once while the sets are still filling and once after
        // they have been evicting for a while.
        for (std::size_t cut : {trace.size() / 20, trace.size() / 2}) {
            SCOPED_TRACE(cfg.describe() + " cut " + std::to_string(cut));
            Cache first(cfg);
            for (std::size_t i = 0; i < cut; ++i)
                first.access(trace[i]);
            const std::string snapshot = serializeCache(first);

            Cache second(cfg);
            auto opened =
                ChkReader::fromMemory(snapshot.data(), snapshot.size());
            ASSERT_TRUE(opened.ok()) << opened.error().describe();
            ChkReader r = std::move(opened.value());
            second.loadState(r);
            ASSERT_FALSE(r.failed()) << r.error().describe();
            for (std::size_t i = cut; i < trace.size(); ++i)
                second.access(trace[i]);
            second.flush();

            EXPECT_EQ(second.stats().evictions,
                      straight.stats().evictions);
            EXPECT_EQ(second.stats().trafficBelow(),
                      straight.stats().trafficBelow());
            EXPECT_EQ(serializeCache(second), serializeCache(straight));
        }
    }
}

TEST(Resume, RestoreIntoUsedWideSetCacheMatchesFreshRestore)
{
    // The cache that takes the restore has run over 128 other blocks
    // first, so its index holds entries the checkpoint does not: the
    // restore must drop them all.
    const Trace trace = wideSetTrace(20000);
    Trace other;
    for (std::size_t i = 0; i < 5000; ++i)
        other.append(0x900000 + (i * 52) % 4_KiB, 4,
                     i % 3 ? RefKind::Load : RefKind::Store);
    CacheConfig fa_lru;
    fa_lru.name = "FA";
    fa_lru.size = 64_KiB;
    fa_lru.assoc = 0;
    CacheConfig lru16;
    lru16.name = "W16";
    lru16.size = 16_KiB;
    lru16.assoc = 16;

    for (const CacheConfig &cfg : {fa_lru, lru16}) {
        SCOPED_TRACE(cfg.describe());
        const std::size_t cut = trace.size() / 2;
        Cache first(cfg);
        for (std::size_t i = 0; i < cut; ++i)
            first.access(trace[i]);
        const std::string snapshot = serializeCache(first);

        Cache fresh(cfg);
        Cache used(cfg);
        for (const MemRef &r : other)
            used.access(r);
        for (Cache *c : {&fresh, &used}) {
            ASSERT_EQ(loadCacheImage(snapshot, *c).code, Errc::Ok);
            for (const MemRef &r : other)
                EXPECT_EQ(c->contains(r.addr), first.contains(r.addr));
            for (std::size_t i = cut; i < trace.size(); ++i)
                c->access(trace[i]);
            c->flush();
        }
        EXPECT_EQ(serializeCache(used), serializeCache(fresh));
    }
}

TEST(Resume, NonPrefixValidWaysAreCorrupt)
{
    // One fully associative set of 16 ways (hash-indexed) and one
    // 4-way set (linear scan).
    for (const CacheConfig &cfg : {oneSetCache(16, 0), oneSetCache(4, 4)}) {
        SCOPED_TRACE(cfg.name);
        const unsigned ways = static_cast<unsigned>(cfg.ways());
        std::vector<Addr> blocks(ways, addrInvalid);

        // The layout is right: way 0 valid is what saveState() writes.
        blocks[0] = 0x1000;
        Cache prefix(cfg);
        EXPECT_EQ(loadCacheImage(oneSetSection(cfg, blocks), prefix).code,
                  Errc::Ok);
        EXPECT_TRUE(prefix.contains(0x1000));

        // Way 0 invalid below a valid way 1 cannot come from
        // saveState().
        std::swap(blocks[0], blocks[1]);
        Cache hole(cfg);
        EXPECT_EQ(loadCacheImage(oneSetSection(cfg, blocks), hole).code,
                  Errc::Corrupt);
    }
}

TEST(Resume, DuplicateBlockInNarrowSetIsCorrupt)
{
    // Linear-scan sets keep no block index at runtime, so loadState()
    // needs a stand-in duplicate detector.  The message pins that
    // detector, not the valid-prefix check, as the one that fires.
    const CacheConfig cfg = oneSetCache(4, 4);
    Cache cache(cfg);
    const Error err = loadCacheImage(
        oneSetSection(cfg, {0x1000, 0x2000, 0x1000, 0x3000}), cache);
    EXPECT_EQ(err.code, Errc::Corrupt);
    EXPECT_NE(err.message.find("duplicate"), std::string::npos)
        << err.message;
}

TEST(Resume, DuplicateBlockInWideSetIsCorrupt)
{
    // A fully associative set of 16 ways is hash-indexed; the index
    // itself catches the repeat.
    const CacheConfig cfg = oneSetCache(16, 0);
    std::vector<Addr> blocks(16, addrInvalid);
    blocks[0] = 0x1000;
    blocks[1] = 0x2000;
    blocks[2] = 0x1000;
    blocks[3] = 0x3000;
    Cache cache(cfg);
    const Error err = loadCacheImage(oneSetSection(cfg, blocks), cache);
    EXPECT_EQ(err.code, Errc::Corrupt);
    EXPECT_NE(err.message.find("duplicate"), std::string::npos)
        << err.message;
}

TEST(Resume, MisalignedResidentBlockIsCorrupt)
{
    // A valid line must hold a block address of its own set; the
    // index would otherwise map it to a line it cannot find.
    for (const CacheConfig &cfg : {oneSetCache(16, 0), oneSetCache(4, 4)}) {
        SCOPED_TRACE(cfg.name);
        std::vector<Addr> blocks(cfg.ways(), addrInvalid);
        blocks[0] = 0x1000;
        blocks[1] = 0x2004;
        Cache cache(cfg);
        const Error err =
            loadCacheImage(oneSetSection(cfg, blocks), cache);
        EXPECT_EQ(err.code, Errc::Corrupt);
        EXPECT_NE(err.message.find("outside its set"), std::string::npos)
            << err.message;
    }
}

TEST(Resume, MinCacheSimResumesToIdenticalStats)
{
    const Trace trace = mixedTrace(5000);
    const MinCacheConfig cfg = canonicalMtc(2_KiB);

    MinCacheSim straight(trace, cfg);
    const MinCacheStats expect = straight.run();

    MinCacheSim first(trace, cfg);
    first.step(1700);
    EXPECT_EQ(first.cursor(), 1700u);
    ChkWriter w;
    first.saveState(w);
    const std::string image = w.serialize();

    MinCacheSim second(trace, cfg);
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    second.loadState(r);
    ASSERT_FALSE(r.failed()) << r.error().describe();
    const MinCacheStats got = second.run();

    EXPECT_EQ(got.accesses, expect.accesses);
    EXPECT_EQ(got.hits, expect.hits);
    EXPECT_EQ(got.misses, expect.misses);
    EXPECT_EQ(got.bypasses, expect.bypasses);
    EXPECT_EQ(got.fetchBytes, expect.fetchBytes);
    EXPECT_EQ(got.writebackBytes, expect.writebackBytes);
    EXPECT_EQ(got.flushWritebackBytes, expect.flushWritebackBytes);
}

TEST(Resume, MinCacheConfigMismatchIsClassified)
{
    const Trace trace = mixedTrace(500);
    MinCacheSim donor(trace, canonicalMtc(2_KiB));
    donor.step(100);
    ChkWriter w;
    donor.saveState(w);
    const std::string image = w.serialize();

    MinCacheSim other(trace, canonicalMtc(4_KiB));
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    other.loadState(r);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.error().code, Errc::Mismatch);
}

/** Write-aware MIN with 32 B write-allocate blocks and no bypass. */
MinCacheConfig
writeAwareMin()
{
    MinCacheConfig cfg;
    cfg.size = 2_KiB;
    cfg.blockBytes = 32;
    cfg.alloc = AllocPolicy::WriteAllocate;
    cfg.allowBypass = false;
    cfg.writeAware = true;
    return cfg;
}

/**
 * A hot set that is reused throughout, interleaved with two upward
 * streams (one stored, one loaded) whose blocks are never used again,
 * so a mid-run MIN cache holds dead blocks, clean and dirty.
 */
Trace
deadBlockTrace(std::size_t refs)
{
    Rng rng(77);
    Trace t;
    Addr stored = 0x40000, loaded = 0x90000;
    for (std::size_t i = 0; i < refs; ++i) {
        if (i % 4 == 0) {
            t.append(stored, 4, RefKind::Store);
            stored += 4;
        } else if (i % 4 == 1) {
            t.append(loaded, 4, RefKind::Load);
            loaded += 12;
        } else {
            t.append(0x8000 + rng.below(512) * 4, 4,
                     rng.chance(0.3) ? RefKind::Store : RefKind::Load);
        }
    }
    return t;
}

/** Mid-run checkpoint image of @p cfg over deadBlockTrace(5000). */
std::string
midRunMinImage(const MinCacheConfig &cfg, std::size_t at)
{
    const Trace trace = deadBlockTrace(5000);
    MinCacheSim sim(trace, cfg);
    sim.step(at);
    ChkWriter w;
    sim.saveState(w);
    return w.serialize();
}

TEST(Resume, MinCacheImagesArePinned)
{
    // The checkpoint format is a contract: a change to the engine's
    // internal victim order must not change what saveState() writes.
    const std::string canonical = midRunMinImage(canonicalMtc(2_KiB), 1700);
    EXPECT_EQ(canonical.size(), 16539u);
    EXPECT_EQ(crc32(canonical.data(), canonical.size()), 2398546669u);
    const std::string aware = midRunMinImage(writeAwareMin(), 3100);
    EXPECT_EQ(aware.size(), 2203u);
    EXPECT_EQ(crc32(aware.data(), aware.size()), 125047796u);
}

TEST(Resume, WriteAwareMinResumesToIdenticalStats)
{
    const Trace trace = deadBlockTrace(5000);
    const MinCacheConfig cfg = writeAwareMin();

    MinCacheSim straight(trace, cfg);
    const MinCacheStats expect = straight.run();
    ASSERT_GT(straight.victimScanPops(), 0u);

    MinCacheSim first(trace, cfg);
    first.step(3100);
    ChkWriter w;
    first.saveState(w);
    const std::string image = w.serialize();

    MinCacheSim second(trace, cfg);
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    second.loadState(r);
    ASSERT_FALSE(r.failed()) << r.error().describe();
    const MinCacheStats got = second.run();

    EXPECT_EQ(got.hits, expect.hits);
    EXPECT_EQ(got.misses, expect.misses);
    EXPECT_EQ(got.fetchBytes, expect.fetchBytes);
    EXPECT_EQ(got.writebackBytes, expect.writebackBytes);
    EXPECT_EQ(got.flushWritebackBytes, expect.flushWritebackBytes);
    EXPECT_EQ(second.victimScanPops(), straight.victimScanPops());
}

/** Resident row of a hand-built MTCS section: (nextUse, addr). */
using MinRow = std::pair<Tick, Addr>;

/**
 * An MTCS section over @p trace at cursor 3 with a word
 * canonicalMtc(16) cache, holding @p rows as clean loaded words
 * (word masks @p valid and @p dirty).
 */
std::string
minSection(const Trace &trace, const std::vector<MinRow> &rows,
           std::uint64_t valid = 1, std::uint64_t dirty = 0)
{
    const MinCacheConfig cfg = canonicalMtc(16);
    ChkWriter w;
    w.beginSection(chkTag("MTCS"));
    w.u64(cfg.size);
    w.u64(cfg.blockBytes);
    w.u8(static_cast<std::uint8_t>(cfg.alloc));
    w.u8(1);
    w.u8(0);
    w.u64(trace.size());
    w.u64(3); // cursor
    for (int i = 0; i < 10; ++i)
        w.u64(0); // nine counters and the scan pops
    w.u64(rows.size());
    for (const MinRow &row : rows) {
        w.u64(row.first);
        w.u64(row.second);
        w.u64(valid);
        w.u64(dirty);
    }
    w.endSection();
    return w.serialize();
}

Error
loadMinImage(const Trace &trace, const std::string &image)
{
    MinCacheSim sim(trace, canonicalMtc(16));
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    EXPECT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    sim.loadState(r);
    return r.failed() ? r.error() : Error{Errc::Ok, ""};
}

TEST(Resume, ForgedDeadMinBlockIsCorrupt)
{
    // A B C A: at cursor 3, A waits for position 3 and B and C are
    // never used again.
    Trace trace;
    for (const Addr a : {0x100, 0x104, 0x108, 0x100})
        trace.append(a, 4, RefKind::Load);

    auto load = [&](const std::vector<MinRow> &rows) {
        return loadMinImage(trace, minSection(trace, rows)).code;
    };
    const Tick dead = tickInfinity;
    EXPECT_EQ(load({{3, 0x100}, {dead, 0x104}, {dead, 0x108}}), Errc::Ok);
    // A block the trace never references cannot be resident.
    EXPECT_EQ(load({{3, 0x100}, {dead, 0x10c}}), Errc::Corrupt);
    // Nor can a block keyed dead that the trace uses again.
    EXPECT_EQ(load({{dead, 0x100}, {dead, 0x104}}), Errc::Corrupt);
}

TEST(Resume, ForgedFiniteMinKeyIsCorrupt)
{
    // A B C A A B: at cursor 3, A waits for position 3 and B for 5.
    Trace trace;
    for (const Addr a : {0x100, 0x104, 0x108, 0x100, 0x100, 0x104})
        trace.append(a, 4, RefKind::Load);

    auto load = [&](const std::vector<MinRow> &rows, std::uint64_t valid,
                    std::uint64_t dirty) {
        return loadMinImage(trace, minSection(trace, rows, valid, dirty))
            .code;
    };
    EXPECT_EQ(load({{3, 0x100}, {5, 0x104}}, 1, 0), Errc::Ok);
    EXPECT_EQ(load({{3, 0x100}, {5, 0x104}}, 1, 1), Errc::Ok);
    // A key is the block's next use, not a later one,
    EXPECT_EQ(load({{4, 0x100}, {5, 0x104}}, 1, 0), Errc::Corrupt);
    // lies at or after the cursor,
    EXPECT_EQ(load({{2, 0x108}}, 1, 0), Errc::Corrupt);
    // and is a position that references the block.
    EXPECT_EQ(load({{3, 0x104}}, 1, 0), Errc::Corrupt);
    // A one-word block is wholly valid, and only valid words are dirty.
    EXPECT_EQ(load({{3, 0x100}}, 0, 0), Errc::Corrupt);
    EXPECT_EQ(load({{3, 0x100}}, 3, 0), Errc::Corrupt);
    EXPECT_EQ(load({{3, 0x100}}, 1, 2), Errc::Corrupt);
}

TEST(Resume, CoreResultRoundTrips)
{
    CoreResult result;
    result.cycles = 123456;
    result.instructions = 65432;
    result.ipc = 0.53;
    result.branches = 777;
    result.mispredicts = 33;
    result.stalls.fetch = 10;
    result.stalls.window = 20;
    result.stalls.data = 30;
    result.stalls.memPort = 40;
    result.windowOcc.count = 5;
    result.windowOcc.sum = 17.0;
    result.mem.loads = 4321;
    result.mem.dramRowHits = 99;

    ChkWriter w;
    saveCoreResult(w, result);
    const std::string image = w.serialize();
    auto opened = ChkReader::fromMemory(image.data(), image.size());
    ASSERT_TRUE(opened.ok());
    ChkReader r = std::move(opened.value());
    CoreResult back;
    loadCoreResult(r, back);
    ASSERT_FALSE(r.failed()) << r.error().describe();

    EXPECT_EQ(back.cycles, result.cycles);
    EXPECT_EQ(back.instructions, result.instructions);
    EXPECT_DOUBLE_EQ(back.ipc, result.ipc);
    EXPECT_EQ(back.mispredicts, result.mispredicts);
    EXPECT_EQ(back.stalls.memPort, result.stalls.memPort);
    EXPECT_EQ(back.windowOcc.count, result.windowOcc.count);
    EXPECT_DOUBLE_EQ(back.windowOcc.sum, result.windowOcc.sum);
    EXPECT_EQ(back.mem.loads, result.mem.loads);
    EXPECT_EQ(back.mem.dramRowHits, result.mem.dramRowHits);
}

TEST(HierarchyWatchdog, EventBudgetTripsOnChattyReference)
{
    CacheConfig l1;
    l1.name = "L1";
    l1.size = 4_KiB;
    l1.taggedPrefetch = true;
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 64_KiB;
    l2.assoc = 4;
    l2.blockBytes = 64;
    CacheHierarchy hier(std::vector<CacheConfig>{l1, l2});
    hier.setEventBudget(1);

    const Trace trace = mixedTrace(200);
    EXPECT_THROW(
        {
            for (const MemRef &r : trace)
                hier.access(r);
        },
        WatchdogError);
}

TEST(HierarchyWatchdog, HeadroomTracksWorstReference)
{
    CacheConfig l1;
    l1.name = "L1";
    l1.size = 4_KiB;
    CacheConfig l2;
    l2.name = "L2";
    l2.size = 64_KiB;
    l2.assoc = 4;
    l2.blockBytes = 64;
    CacheHierarchy hier(std::vector<CacheConfig>{l1, l2});

    EXPECT_DOUBLE_EQ(hier.eventHeadroom(), 1.0);
    const Trace trace = mixedTrace(500);
    for (const MemRef &r : trace)
        hier.access(r);
    EXPECT_GT(hier.maxDownstreamEvents(), 0u);
    EXPECT_LT(hier.eventHeadroom(), 1.0);
    EXPECT_GT(hier.eventHeadroom(), 0.0);
}

#ifdef MEMBW_CORPUS_DIR
TEST(FuzzCorpus, EveryFileParsesOrFailsClassified)
{
    namespace fs = std::filesystem;
    std::size_t files = 0, rejected = 0;
    for (const auto &entry : fs::directory_iterator(MEMBW_CORPUS_DIR)) {
        if (!entry.is_regular_file())
            continue;
        ++files;
        auto result = tryLoadTrace(entry.path().string());
        if (!result.ok()) {
            ++rejected;
            // Classified, never Ok; message names the file.
            EXPECT_NE(result.error().code, Errc::Ok)
                << entry.path();
            EXPECT_NE(result.error().message.find(
                          entry.path().filename().string()),
                      std::string::npos)
                << entry.path();
        }
    }
    // The corpus ships both valid seeds and corrupted mutants.
    EXPECT_GT(files, 5u);
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, files);
}
#endif

// ---------------------------------------------------------------
// Fault injection: spec parsing, trigger semantics, determinism
// ---------------------------------------------------------------

/** Disarm on scope exit so one test's plan never leaks into the next. */
struct PlanGuard
{
    ~PlanGuard() { disarmFaultPlan(); }
};

TEST(FaultPlan, MalformedSpecsAreClassified)
{
    PlanGuard guard;
    for (const char *bad : {
             "bogus-site:at=1",   // unknown site
             "io-write:when=1",   // unknown trigger
             "io-write:at=0",     // at= is 1-based
             "io-write:p=1.5",    // probability out of range
             "io-write:p=nope",   // not a number
             "io-write:at=99999999999999999999", // u64 overflow
             "io-write",          // clause without a trigger
         }) {
        auto r = armFaultPlan(bad);
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_EQ(r.error().code, Errc::BadValue) << bad;
        EXPECT_FALSE(faultPlanArmed()) << bad;
    }
}

TEST(FaultPlan, AtFiresExactlyOnce)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("io-write:at=3").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(MEMBW_FAULT_POINT("io-write"));
    EXPECT_EQ(fired, (std::vector<bool>{
                         false, false, true, false, false, false}));
}

TEST(FaultPlan, AfterFiresOnEveryLaterHit)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("io-write:after=2").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 5; ++i)
        fired.push_back(MEMBW_FAULT_POINT("io-write"));
    EXPECT_EQ(fired,
              (std::vector<bool>{false, false, true, true, true}));
}

TEST(FaultPlan, SitesCountIndependently)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("enospc:at=2").ok());
    // Hits on a different site must not advance enospc's counter.
    EXPECT_FALSE(MEMBW_FAULT_POINT("io-write"));
    EXPECT_FALSE(MEMBW_FAULT_POINT("io-write"));
    EXPECT_FALSE(MEMBW_FAULT_POINT("enospc"));
    EXPECT_TRUE(MEMBW_FAULT_POINT("enospc"));
}

TEST(FaultPlan, ProbabilityDrawsAreSeedDeterministic)
{
    PlanGuard guard;
    auto draws = [](const std::string &spec) {
        EXPECT_TRUE(armFaultPlan(spec).ok());
        std::vector<bool> v;
        for (int i = 0; i < 200; ++i)
            v.push_back(MEMBW_FAULT_POINT("io-write"));
        return v;
    };
    const auto a = draws("io-write:p=0.25,seed=7");
    const auto b = draws("io-write:p=0.25,seed=7");
    const auto c = draws("io-write:p=0.25,seed=8");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    const auto hits =
        static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(hits, 20u); // ~50 expected; far outside either bound
    EXPECT_LT(hits, 100u);
}

TEST(FaultPlan, IndexedHitsIgnoreArrivalOrder)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("cell:at=3").ok());
    // cell:at=3 means cell *index 2* fails, whatever order a pool
    // happens to schedule the cells in.
    EXPECT_FALSE(MEMBW_FAULT_POINT_AT("cell", 5));
    EXPECT_TRUE(MEMBW_FAULT_POINT_AT("cell", 2));
    EXPECT_FALSE(MEMBW_FAULT_POINT_AT("cell", 0));
}

TEST(FaultPlan, MarkFiresOnCrossingNotRepeats)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("io-write:at=100").ok());
    EXPECT_FALSE(MEMBW_FAULT_POINT_MARK("io-write", 50));
    EXPECT_FALSE(MEMBW_FAULT_POINT_MARK("io-write", 50)); // repeat ok
    EXPECT_FALSE(MEMBW_FAULT_POINT_MARK("io-write", 99));
    EXPECT_TRUE(MEMBW_FAULT_POINT_MARK("io-write", 150));
    EXPECT_FALSE(MEMBW_FAULT_POINT_MARK("io-write", 200));
}

TEST(FaultPlan, DisarmedPlanInjectsNothing)
{
    ASSERT_TRUE(armFaultPlan("io-write:after=0").ok());
    disarmFaultPlan();
    EXPECT_FALSE(faultPlanArmed());
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(MEMBW_FAULT_POINT("io-write"));
}

TEST(FaultPlan, AllocFaultFailsTraceLoad)
{
    PlanGuard guard;
    ASSERT_TRUE(armFaultPlan("alloc:at=1").ok());
    Trace t;
    t.append(0x1000, 4, RefKind::Load);
    const std::string path =
        testing::TempDir() + "membw_alloc_fault.mbwt";
    saveTrace(t, path);
    const auto r = tryLoadTrace(path);
    std::remove(path.c_str());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
    EXPECT_NE(r.error().message.find("(injected)"), std::string::npos)
        << r.error().message;
}

// ---------------------------------------------------------------
// GuardedFile: atomic commit and injected-failure behaviour
// ---------------------------------------------------------------

namespace fs2 = std::filesystem;

struct TmpDir
{
    fs2::path dir;
    TmpDir()
    {
        // One directory per test: ctest runs each test in its own
        // process, concurrently, and they must not share scratch.
        const testing::TestInfo *test =
            testing::UnitTest::GetInstance()->current_test_info();
        dir = fs2::temp_directory_path() /
              (std::string("membw_") + test->test_suite_name() + "." +
               test->name());
        fs2::remove_all(dir);
        fs2::create_directories(dir);
    }
    ~TmpDir() { fs2::remove_all(dir); }
    std::string operator/(const char *name) const
    {
        return (dir / name).string();
    }
};

std::string
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    if (f) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

TEST(GuardedFile, WriteAtomicRoundTripsAndLeavesNoTemp)
{
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    ASSERT_TRUE(GuardedFile::writeAtomic(path, "{\"ok\":1}\n").ok());
    EXPECT_EQ(readAll(path), "{\"ok\":1}\n");
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, EnospcLeavesNeitherFileNorTemp)
{
    PlanGuard guard;
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    ASSERT_TRUE(armFaultPlan("enospc:at=1").ok());
    auto r = GuardedFile::writeAtomic(path, "doomed");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
    EXPECT_NE(r.error().message.find(path), std::string::npos);
    EXPECT_FALSE(fs2::exists(path));
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, TransientShortWriteIsRetriedToSuccess)
{
    PlanGuard guard;
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    ASSERT_TRUE(armFaultPlan("io-write:at=1").ok());
    ASSERT_TRUE(GuardedFile::writeAtomic(path, "recovered").ok());
    EXPECT_EQ(readAll(path), "recovered");
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, ExhaustedRetriesAreClassifiedAndCleanedUp)
{
    PlanGuard guard;
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    ASSERT_TRUE(armFaultPlan("io-write:after=0").ok());
    auto r = GuardedFile::writeAtomic(path, "never");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
    EXPECT_FALSE(fs2::exists(path));
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, RenameFaultKeepsOldFileIntact)
{
    PlanGuard guard;
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    ASSERT_TRUE(GuardedFile::writeAtomic(path, "old contents").ok());
    ASSERT_TRUE(armFaultPlan("io-rename:at=1").ok());
    auto r = GuardedFile::writeAtomic(path, "new contents");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
    // Atomicity: the reader still sees the complete old artifact.
    EXPECT_EQ(readAll(path), "old contents");
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, UnwritableDirectoryIsClassifiedOnOpen)
{
    GuardedFile out;
    auto r = out.open("/nonexistent-membw-dir/artifact.json");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
    EXPECT_FALSE(out.isOpen());
}

TEST(GuardedFile, CommitIsVisibleOnlyAfterCommit)
{
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    GuardedFile out;
    ASSERT_TRUE(out.open(path).ok());
    ASSERT_TRUE(out.write("staged bytes").ok());
    // Staged but not committed: final path must not exist yet.
    EXPECT_FALSE(fs2::exists(path));
    EXPECT_TRUE(fs2::exists(path + ".tmp"));
    ASSERT_TRUE(out.commit().ok());
    EXPECT_EQ(readAll(path), "staged bytes");
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

TEST(GuardedFile, AbortWriteRemovesStaging)
{
    TmpDir tmp;
    const std::string path = tmp / "artifact.json";
    GuardedFile out;
    ASSERT_TRUE(out.open(path).ok());
    ASSERT_TRUE(out.write("discard me").ok());
    out.abortWrite();
    EXPECT_FALSE(fs2::exists(path));
    EXPECT_FALSE(fs2::exists(path + ".tmp"));
}

} // namespace
} // namespace membw
