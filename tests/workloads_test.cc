/**
 * @file
 * Tests for the synthetic workload kernels: registry coverage,
 * determinism, data-set sizing, scaling, and stream composition.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/log.hh"
#include "workloads/kernels.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

WorkloadParams
tiny()
{
    WorkloadParams p;
    p.scale = 0.02; // keep unit tests fast
    p.seed = 7;
    return p;
}

TEST(Registry, KnowsAllFourteenBenchmarks)
{
    EXPECT_EQ(spec92Names().size(), 7u);
    EXPECT_EQ(spec95Names().size(), 7u);
    EXPECT_EQ(allWorkloadNames().size(), 14u);
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
    }
}

TEST(Registry, UnknownNameFails)
{
    EXPECT_THROW(makeWorkload("Gcc"), FatalError);
}

TEST(Registry, NominalSizesMatchTable3)
{
    // Paper Table 3 data-set sizes in MB; we require within 15%.
    const std::pair<const char *, double> expected[] = {
        {"Compress", 0.41}, {"Dnasa2", 0.18},  {"Eqntott", 1.63},
        {"Espresso", 0.04}, {"Su2cor", 1.53},  {"Swm", 0.93},
        {"Tomcatv", 3.67},  {"Applu", 32.38},  {"Hydro2d", 8.71},
        {"Li", 0.12},       {"Perl", 25.70},   {"Su2cor95", 22.53},
        {"Swim", 14.46},    {"Vortex", 19.87},
    };
    for (const auto &[name, mb] : expected) {
        auto w = makeWorkload(name);
        const double actual =
            static_cast<double>(w->nominalDataSetBytes()) / 1048576.0;
        EXPECT_NEAR(actual, mb, mb * 0.25) << name;
    }
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, GenerationIsDeterministic)
{
    auto w = makeWorkload(GetParam());
    const Trace a = w->trace(tiny());
    const Trace b = w->trace(tiny());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 97)
        EXPECT_TRUE(a[i] == b[i]) << "at " << i;
}

TEST_P(EveryWorkload, TraceMatchesRunTraceRefForRef)
{
    // trace() records data references only; run() also keeps the
    // instruction-stream annotations.  The data trace must not care.
    auto w = makeWorkload(GetParam());
    const Trace data = w->trace(tiny());
    const WorkloadRun run = w->run(tiny());
    ASSERT_EQ(data.size(), run.trace.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_TRUE(data[i] == run.trace[i]) << "at " << i;
}

TEST(SeedSensitivity, IrregularWorkloadsChangeWithSeed)
{
    // Data-dependent kernels must produce different reference
    // streams under different seeds.  (The regular numeric kernels
    // — FFT, stencils, array sweeps — are deliberately
    // input-independent, as their real counterparts are.)
    for (const char *name :
         {"Compress", "Eqntott", "Espresso", "Li", "Perl", "Vortex"}) {
        auto w = makeWorkload(name);
        WorkloadParams p1 = tiny(), p2 = tiny();
        p2.seed = 1234;
        const Trace a = w->trace(p1);
        const Trace b = w->trace(p2);
        bool differs = a.size() != b.size();
        for (std::size_t i = 0; !differs && i < a.size(); ++i)
            differs = !(a[i] == b[i]);
        EXPECT_TRUE(differs) << name;
    }
}

TEST_P(EveryWorkload, ScaleControlsLength)
{
    auto w = makeWorkload(GetParam());
    WorkloadParams small = tiny();
    WorkloadParams big = tiny();
    big.scale = small.scale * 4;
    const std::size_t a = w->trace(small).size();
    const std::size_t b = w->trace(big).size();
    EXPECT_GT(b, a * 3);
    EXPECT_LT(b, a * 5 + 1000);
}

TEST_P(EveryWorkload, MixesLoadsAndStores)
{
    auto w = makeWorkload(GetParam());
    const TraceStats s = w->trace(tiny()).stats();
    EXPECT_GT(s.loads, 0u);
    EXPECT_GT(s.stores, 0u);
    // Stores are a minority but non-trivial for every benchmark.
    const double store_frac =
        static_cast<double>(s.stores) / s.refs;
    EXPECT_GT(store_frac, 0.01);
    EXPECT_LT(store_frac, 0.7);
}

TEST_P(EveryWorkload, WordSizedQptReferences)
{
    auto w = makeWorkload(GetParam());
    const Trace t = w->trace(tiny());
    for (std::size_t i = 0; i < t.size(); i += 131) {
        EXPECT_EQ(t[i].size, wordBytes);
        EXPECT_EQ(t[i].addr % wordBytes, 0u);
    }
}

TEST_P(EveryWorkload, AnnotationsCoverEveryMemoryReference)
{
    auto w = makeWorkload(GetParam());
    const WorkloadRun run = w->run(tiny());
    std::size_t mem_events = 0;
    std::uint32_t last_index = 0;
    bool first = true;
    for (const auto &a : run.annotations) {
        if (a.kind != TraceRecorder::Annotation::Kind::Mem)
            continue;
        if (!first) {
            EXPECT_EQ(a.memIndex, last_index + 1);
        }
        first = false;
        last_index = a.memIndex;
        ++mem_events;
    }
    EXPECT_EQ(mem_events, run.trace.size());
}

TEST_P(EveryWorkload, EmitsComputeAndBranches)
{
    auto w = makeWorkload(GetParam());
    const WorkloadRun run = w->run(tiny());
    std::uint64_t compute = 0, branches = 0;
    for (const auto &a : run.annotations) {
        compute += a.opsBefore;
        branches +=
            a.kind == TraceRecorder::Annotation::Kind::Branch;
    }
    EXPECT_GT(compute, 0u);
    EXPECT_GT(branches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryWorkload,
                         ::testing::ValuesIn(allWorkloadNames()));

TEST(WorkloadCharacter, CompressHasNoSpatialLocality)
{
    // Doubling the block size must increase Compress's traffic
    // (Section 4.2: "a larger block size will consequently waste
    // bandwidth").  Generating at a modest scale keeps this fast.
    auto w = makeWorkload("Compress");
    WorkloadParams p;
    p.scale = 0.2;
    const Trace t = w->trace(p);

    auto traffic = [&](Bytes block) {
        CacheConfig cfg;
        cfg.size = 16_KiB;
        cfg.assoc = 1;
        cfg.blockBytes = block;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        cache.flush();
        return cache.stats().trafficBelow();
    };
    EXPECT_GT(traffic(64), traffic(32));
    EXPECT_GT(traffic(32), traffic(8));
}

TEST(WorkloadCharacter, SwmStreamsWithSpatialLocality)
{
    // For a streaming code, larger blocks amortize fills: traffic
    // should NOT blow up the way Compress's does.
    auto w = makeWorkload("Swm");
    WorkloadParams p;
    p.scale = 0.2;
    const Trace t = w->trace(p);

    auto traffic = [&](Bytes block) {
        CacheConfig cfg;
        cfg.size = 64_KiB;
        cfg.assoc = 1;
        cfg.blockBytes = block;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        cache.flush();
        return cache.stats().trafficBelow();
    };
    const Bytes t8 = traffic(8), t64 = traffic(64);
    EXPECT_LT(static_cast<double>(t64),
              1.5 * static_cast<double>(t8));
}

TEST(WorkloadCharacter, EspressoFitsIn64KB)
{
    auto w = makeWorkload("Espresso");
    WorkloadParams p;
    p.scale = 0.2;
    const Trace t = w->trace(p);
    CacheConfig cfg;
    cfg.size = 64_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    Cache cache(cfg);
    for (const MemRef &r : t)
        cache.access(r);
    EXPECT_LT(cache.stats().missRate(), 0.01);
}

TEST(WorkloadCharacter, Su2corConflictsVanishAt64KB)
{
    auto w = makeWorkload("Su2cor");
    WorkloadParams p;
    p.scale = 0.2;
    const Trace t = w->trace(p);

    auto miss_rate = [&](Bytes size) {
        CacheConfig cfg;
        cfg.size = size;
        cfg.assoc = 1;
        cfg.blockBytes = 32;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        return cache.stats().missRate();
    };
    // Thrashing below 64KB, clearly better at 64KB.
    EXPECT_GT(miss_rate(32_KiB), 1.8 * miss_rate(64_KiB));
}

TEST(WorkloadCharacter, PerlAndVortexHaveLargeFootprints)
{
    // The SPEC95 integer heavyweights reach across tens of MB, so
    // their touched footprint keeps growing with trace length and
    // exceeds any mid-90s cache budget even at modest scales.
    for (const char *name : {"Perl", "Vortex"}) {
        auto w = makeWorkload(name);
        WorkloadParams p;
        p.scale = 0.25;
        const Bytes quarter = w->trace(p).stats().footprintBytes;
        p.scale = 0.5;
        const Bytes half = w->trace(p).stats().footprintBytes;
        EXPECT_GT(half, 1_MiB) << name;
        // Still in the compulsory regime: footprint nearly doubles.
        EXPECT_GT(half, quarter + quarter / 2) << name;
    }
}

TEST(WorkloadCharacter, SwimStreamsLikeSwm)
{
    // Swim95 is the scaled-up shallow-water code: flat traffic
    // ratio over mid-size caches, like its SPEC92 sibling.
    auto w = makeWorkload("Swim");
    WorkloadParams p;
    p.scale = 0.25;
    const Trace t = w->trace(p);
    auto ratio = [&](Bytes size) {
        CacheConfig cfg;
        cfg.size = size;
        cfg.assoc = 1;
        cfg.blockBytes = 32;
        Cache cache(cfg);
        for (const MemRef &r : t)
            cache.access(r);
        cache.flush();
        return cache.stats().trafficRatio();
    };
    const double r32 = ratio(32_KiB), r256 = ratio(256_KiB);
    EXPECT_NEAR(r32, r256, 0.2);
    EXPECT_GT(r32, 0.3);
}

TEST(WorkloadCharacter, VortexMixesBurstsAndRandomLookups)
{
    // Vortex's record bursts give it real spatial locality (unlike
    // Compress), but its random index descents keep the miss rate
    // up at 64KB.
    auto w = makeWorkload("Vortex");
    WorkloadParams p;
    p.scale = 0.25;
    const Trace t = w->trace(p);
    CacheConfig cfg;
    cfg.size = 64_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    Cache cache(cfg);
    for (const MemRef &r : t)
        cache.access(r);
    const double miss = cache.stats().missRate();
    EXPECT_GT(miss, 0.02);
    EXPECT_LT(miss, 0.5);
    // Spatial locality: traffic ratio well below the no-locality
    // bound of 8 (32B fetched per 4B word).
    EXPECT_LT(cache.stats().trafficRatio(), 3.0);
}

} // namespace
} // namespace membw
