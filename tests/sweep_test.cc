/**
 * @file
 * Full-matrix sweep: every benchmark through the trace pipeline and
 * the timing pipeline, checking the structural invariants that every
 * cell of the paper's tables relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/experiment.hh"
#include "exec/fa_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "mtc/min_cache.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

class EveryBenchmark : public ::testing::TestWithParam<std::string>
{
  protected:
    WorkloadParams
    params() const
    {
        WorkloadParams p;
        p.scale = 0.03;
        return p;
    }

    bool
    isSpec95() const
    {
        const auto names = spec95Names();
        return std::find(names.begin(), names.end(), GetParam()) !=
               names.end();
    }
};

TEST_P(EveryBenchmark, TrafficPipelineInvariants)
{
    const Trace trace = makeWorkload(GetParam())->trace(params());

    CacheConfig cfg;
    cfg.size = 16_KiB;
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    const TrafficResult r = runTrace(trace, cfg);

    // Request traffic is exactly refs * word size (QPT traces).
    EXPECT_EQ(r.requestBytes, trace.size() * wordBytes);
    // Traffic is block-quantized fills+writebacks: a multiple of 4.
    EXPECT_EQ(r.pinBytes % wordBytes, 0u);
    EXPECT_GT(r.pinBytes, 0u);

    // The MTC never loses to the cache.
    const MinCacheStats mtc = runMinCache(trace, canonicalMtc(16_KiB));
    EXPECT_LE(mtc.trafficBelow(), r.pinBytes) << GetParam();

    // And the MTC's own traffic at least covers the touched
    // footprint (compulsory bound) once per word... minus bypassed
    // loads, which transfer exactly the request: either way it is
    // at least the number of distinct dirty words flushed.
    EXPECT_GT(mtc.trafficBelow(), 0u);
}

TEST_P(EveryBenchmark, DecompositionInvariants)
{
    const auto run = makeWorkload(GetParam())->run(params());
    const InstrStream stream = InstrStream::fromRun(
        run, codeFootprintBytes(GetParam()), params().seed);
    const bool spec95 = isSpec95();

    for (char letter : {'A', 'D', 'F'}) {
        const auto cfg = makeExperiment(letter, spec95);
        const DecompositionResult r = runDecomposition(stream, cfg);
        EXPECT_TRUE(r.split.consistent())
            << GetParam() << " exp " << letter;
        EXPECT_NEAR(r.split.fP() + r.split.fL() + r.split.fB(), 1.0,
                    1e-9);
        EXPECT_EQ(r.perfect.instructions, stream.size());
        EXPECT_EQ(r.full.instructions, stream.size());
        // Perfect memory is a strict lower bound on everything.
        EXPECT_LE(r.perfect.cycles, r.full.cycles);
        EXPECT_GT(r.perfect.ipc, 0.3) << GetParam();
    }
}

TEST_P(EveryBenchmark, AggressiveMachineNeverSlower)
{
    // F has strictly more resources than D (window, LSQ): with the
    // same memory system it must not lose on the same stream.
    const auto run = makeWorkload(GetParam())->run(params());
    const InstrStream stream = InstrStream::fromRun(
        run, codeFootprintBytes(GetParam()), params().seed);
    const bool spec95 = isSpec95();

    auto d = makeExperiment('D', spec95);
    auto f = makeExperiment('F', spec95);
    // Equalize everything but the window/LSQ (F may also clock
    // faster on SPEC95, which changes memory cycles).
    f.mem = d.mem;
    const Cycle td = runPhase(stream, d, 2).cycles;
    const Cycle tf = runPhase(stream, f, 2).cycles;
    EXPECT_LE(tf, td + td / 50) << GetParam(); // 2% slack
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryBenchmark,
                         ::testing::ValuesIn(allWorkloadNames()));

// ---------------------------------------------------------------
// Parallel sweeps vs serial: identical TrafficResults
// ---------------------------------------------------------------

void
expectSameTraffic(const TrafficResult &a, const TrafficResult &b,
                  const std::string &what)
{
    EXPECT_EQ(a.requestBytes, b.requestBytes) << what;
    EXPECT_EQ(a.pinBytes, b.pinBytes) << what;
    EXPECT_EQ(a.trafficRatio, b.trafficRatio) << what;
    EXPECT_EQ(a.levelRatios, b.levelRatios) << what;
    EXPECT_EQ(a.levelTraffic, b.levelTraffic) << what;
    EXPECT_EQ(a.l1.accesses, b.l1.accesses) << what;
    EXPECT_EQ(a.l1.hits, b.l1.hits) << what;
    EXPECT_EQ(a.l1.misses, b.l1.misses) << what;
    EXPECT_EQ(a.l1.loadMisses, b.l1.loadMisses) << what;
    EXPECT_EQ(a.l1.storeMisses, b.l1.storeMisses) << what;
    EXPECT_EQ(a.l1.evictions, b.l1.evictions) << what;
    EXPECT_EQ(a.l1.writebacks, b.l1.writebacks) << what;
    EXPECT_EQ(a.l1.requestBytes, b.l1.requestBytes) << what;
    EXPECT_EQ(a.l1.demandFetchBytes, b.l1.demandFetchBytes) << what;
    EXPECT_EQ(a.l1.partialFillBytes, b.l1.partialFillBytes) << what;
    EXPECT_EQ(a.l1.prefetchFetchBytes, b.l1.prefetchFetchBytes)
        << what;
    EXPECT_EQ(a.l1.streamFetchBytes, b.l1.streamFetchBytes) << what;
    EXPECT_EQ(a.l1.writebackBytes, b.l1.writebackBytes) << what;
    EXPECT_EQ(a.l1.writeThroughBytes, b.l1.writeThroughBytes) << what;
    EXPECT_EQ(a.l1.flushWritebackBytes, b.l1.flushWritebackBytes)
        << what;
}

TEST(ParallelSweepEquivalence, CacheCellsMatchSerial)
{
    WorkloadParams p;
    p.scale = 0.03;
    const Trace trace = makeWorkload("Compress")->trace(p);

    std::vector<CacheConfig> cfgs;
    for (Bytes size : {1_KiB, 8_KiB, 64_KiB})
        for (Bytes block : {16u, 32u, 64u}) {
            CacheConfig cfg;
            cfg.size = size;
            cfg.assoc = 1;
            cfg.blockBytes = block;
            cfgs.push_back(cfg);
        }

    auto cell = [&](std::size_t i) {
        return runTrace(trace, cfgs[i]);
    };
    const auto serial = parallelSweep(cfgs.size(), 1, cell);
    const auto parallel = parallelSweep(cfgs.size(), 4, cell);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expectSameTraffic(serial[i], parallel[i],
                          cfgs[i].describe());
}

// ---------------------------------------------------------------
// Degraded mode: tolerated cell failures (docs/resilience.md)
// ---------------------------------------------------------------

/** Cell i -> i*10, except the chosen cell throws. */
SweepResult<int>
degradedSweep(unsigned jobs, std::size_t failing, std::size_t n = 8)
{
    SweepOptions opt;
    opt.jobs = jobs;
    opt.tolerateCellFailures = true;
    return parallelSweep(n, opt, [=](std::size_t i) -> int {
        if (i == failing)
            throw std::runtime_error("injected cell fault");
        return static_cast<int>(i) * 10;
    });
}

TEST(DegradedSweep, FailedCellRecordedSurvivorsIntactAtAnyJobs)
{
    for (unsigned jobs : {1u, 4u}) {
        const SweepResult<int> r = degradedSweep(jobs, 2);
        EXPECT_TRUE(r.degraded()) << "jobs=" << jobs;
        EXPECT_FALSE(r.interrupted);
        EXPECT_EQ(r.completed, 8u) << "jobs=" << jobs;
        ASSERT_EQ(r.failedCells.size(), 1u) << "jobs=" << jobs;
        EXPECT_EQ(r.failedCells[0].cell, 2u);
        EXPECT_EQ(r.failedCells[0].message, "injected cell fault");
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(r.cells[i], i == 2 ? 0 : static_cast<int>(i) * 10)
                << "jobs=" << jobs << " cell=" << i;
    }
}

TEST(DegradedSweep, SurvivorsIdenticalAcrossJobCounts)
{
    const SweepResult<int> serial = degradedSweep(1, 5);
    const SweepResult<int> pooled = degradedSweep(4, 5);
    EXPECT_EQ(serial.cells, pooled.cells);
    ASSERT_EQ(serial.failedCells.size(), pooled.failedCells.size());
    EXPECT_EQ(serial.failedCells[0].cell, pooled.failedCells[0].cell);
}

TEST(DegradedSweep, MultipleFailuresReportedInIndexOrder)
{
    SweepOptions opt;
    opt.jobs = 4;
    opt.tolerateCellFailures = true;
    const auto r = parallelSweep(16, opt, [](std::size_t i) -> int {
        if (i % 5 == 0)
            throw std::runtime_error("cell " + std::to_string(i));
        return static_cast<int>(i);
    });
    ASSERT_EQ(r.failedCells.size(), 4u); // 0, 5, 10, 15
    for (std::size_t k = 0; k + 1 < r.failedCells.size(); ++k)
        EXPECT_LT(r.failedCells[k].cell, r.failedCells[k + 1].cell);
    EXPECT_EQ(r.failedCells[0].cell, 0u);
    EXPECT_EQ(r.failedCells[3].cell, 15u);
}

TEST(DegradedSweep, AbortAnywayStillRethrows)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        opt.tolerateCellFailures = true;
        opt.abortAnyway = [](const std::exception &e) {
            return std::string(e.what()) == "watchdog";
        };
        EXPECT_THROW(parallelSweep(4, opt,
                                   [](std::size_t i) -> int {
                                       if (i == 1)
                                           throw std::runtime_error(
                                               "watchdog");
                                       return 0;
                                   }),
                     std::runtime_error)
            << "jobs=" << jobs;
    }
}

TEST(DegradedSweep, NonStdExceptionsAreNeverTolerated)
{
    struct Sentinel
    {
    };
    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        opt.tolerateCellFailures = true;
        EXPECT_THROW(parallelSweep(4, opt,
                                   [](std::size_t i) -> int {
                                       if (i == 2)
                                           throw Sentinel{};
                                       return 0;
                                   }),
                     Sentinel)
            << "jobs=" << jobs;
    }
}

// ---------------------------------------------------------------
// FA-LRU collapse: one stack-distance pass == m direct simulations
// ---------------------------------------------------------------

Trace
loadOnlyTrace()
{
    // Mixed locality: sequential runs, a hot working set, and
    // scattered cold touches — all loads, all word-sized.
    Rng rng(7);
    Trace t;
    Addr cursor = 0;
    for (std::size_t i = 0; i < 40000; ++i) {
        if (rng.chance(0.3))
            cursor = rng.below(1 << 14);
        else if (rng.chance(0.1))
            cursor = rng.below(1 << 20);
        else
            cursor = (cursor + 1) & 0xfffff;
        t.append(cursor * wordBytes, wordBytes, RefKind::Load);
    }
    return t;
}

std::vector<CacheConfig>
faConfigs(Bytes block)
{
    std::vector<CacheConfig> cfgs;
    for (Bytes size : {1_KiB, 4_KiB, 16_KiB, 64_KiB, 256_KiB}) {
        CacheConfig cfg;
        cfg.size = size;
        cfg.assoc = 0; // fully associative
        cfg.blockBytes = block;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

TEST(FaSweepCollapse, MatchesDirectSimulationExactly)
{
    const Trace trace = loadOnlyTrace();
    for (Bytes block : {16u, 32u, 64u}) {
        const auto cfgs = faConfigs(block);
        ASSERT_TRUE(faLruCollapsible(trace, cfgs));
        const auto collapsed = faLruSizeSweep(trace, cfgs);
        ASSERT_EQ(collapsed.size(), cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            expectSameTraffic(runTrace(trace, cfgs[i]), collapsed[i],
                              cfgs[i].describe());
    }
}

TEST(FaSweepCollapse, GuardsRejectInexactRegimes)
{
    const Trace loads = loadOnlyTrace();

    // Any store disqualifies the trace.
    Trace withStore = loadOnlyTrace();
    withStore.append(0, wordBytes, RefKind::Store);
    EXPECT_TRUE(faLruCollapsible(loads, faConfigs(32)));
    EXPECT_FALSE(faLruCollapsible(withStore, faConfigs(32)));

    // Set-associative, non-LRU, prefetching, sectored, or streamed
    // configs disqualify the sweep.
    auto mutate = [](auto fn) {
        auto cfgs = faConfigs(32);
        fn(cfgs[2]);
        return cfgs;
    };
    EXPECT_FALSE(faLruCollapsible(
        loads, mutate([](CacheConfig &c) { c.assoc = 4; })));
    EXPECT_FALSE(faLruCollapsible(
        loads,
        mutate([](CacheConfig &c) { c.repl = ReplPolicy::FIFO; })));
    EXPECT_FALSE(faLruCollapsible(
        loads,
        mutate([](CacheConfig &c) { c.taggedPrefetch = true; })));
    EXPECT_FALSE(faLruCollapsible(
        loads, mutate([](CacheConfig &c) { c.sectorBytes = 8; })));
    EXPECT_FALSE(faLruCollapsible(
        loads, mutate([](CacheConfig &c) { c.streamBuffers = 2; })));
    // Mixed block sizes break the single-profile premise.
    EXPECT_FALSE(faLruCollapsible(
        loads, mutate([](CacheConfig &c) { c.blockBytes = 64; })));
}

} // namespace
} // namespace membw
