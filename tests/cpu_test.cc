/**
 * @file
 * Unit tests for src/cpu: instruction stream, branch predictor, bus
 * model, timing memory system, and the core.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/wait_help.hh"
#include "cpu/branch_pred.hh"
#include "cpu/bus.hh"
#include "cpu/core.hh"
#include "cpu/experiment.hh"
#include "cpu/instr_stream.hh"
#include "cpu/memsys.hh"
#include "cpu/phase_memo.hh"
#include "dram/dram.hh"
#include "resilience/checkpoint.hh"
#include "resilience/exit_codes.hh"
#include "resilience/watchdog.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

TEST(InstrStream, FlattensAnnotations)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 256);
    rec.compute(2);
    rec.load(r.base);
    rec.branch(true);
    rec.store(r.base + 4);

    WorkloadRun run;
    run.annotations = rec.annotations();
    run.trace = rec.takeTrace();
    const InstrStream s = InstrStream::fromRun(run);

    ASSERT_EQ(s.size(), 5u); // 2 compute + load + branch + store
    EXPECT_EQ(s[0].kind(), OpKind::Compute);
    EXPECT_EQ(s[1].kind(), OpKind::Compute);
    EXPECT_EQ(s[2].kind(), OpKind::Load);
    EXPECT_EQ(s[2].addr(), r.base);
    EXPECT_EQ(s[3].kind(), OpKind::Branch);
    EXPECT_TRUE(s[3].taken());
    EXPECT_EQ(s[4].kind(), OpKind::Store);
    EXPECT_EQ(s.loadCount(), 1u);
    EXPECT_EQ(s.storeCount(), 1u);
    EXPECT_EQ(s.branchCount(), 1u);
}

TEST(BranchPredictor, LearnsBiasedStream)
{
    BranchPredictor bp(1024);
    for (int i = 0; i < 2000; ++i)
        bp.predictAndUpdate(0x400, true);
    EXPECT_GT(bp.accuracy(), 0.99);
}

TEST(BranchPredictor, LearnsAlternatingPattern)
{
    // A global-history predictor captures strict alternation.
    BranchPredictor bp(4096);
    for (int i = 0; i < 4000; ++i)
        bp.predictAndUpdate(0x400, i % 2 == 0);
    EXPECT_GT(bp.accuracy(), 0.9);
}

TEST(BranchPredictor, CountsMispredictions)
{
    BranchPredictor bp(64);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        bp.predictAndUpdate(rng.next(), rng.chance(0.5));
    EXPECT_EQ(bp.branches(), 1000u);
    EXPECT_GT(bp.mispredictions(), 200u); // random is unpredictable
}

TEST(BranchPredictor, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(BranchPredictor(1000), FatalError);
}

TEST(Bus, TransferTimingAndOccupancy)
{
    Bus bus(16, 3, false); // 16B beats, 3 CPU cycles per beat
    const BusTransfer t = bus.transfer(10, 32);
    EXPECT_EQ(t.grant, 10u);
    EXPECT_EQ(t.firstBeat, 13u); // one beat for the critical word
    EXPECT_EQ(t.done, 16u);      // two beats total
    EXPECT_EQ(bus.busyCycles(), 6u);
}

TEST(Bus, QueuesWhenBusy)
{
    Bus bus(8, 2, false);
    bus.transfer(0, 32);            // busy until 8
    const BusTransfer t = bus.transfer(3, 8);
    EXPECT_EQ(t.grant, 8u);         // waited for the bus
    EXPECT_EQ(t.done, 10u);
}

TEST(Bus, LeadBeatsDelayData)
{
    Bus bus(8, 2, false);
    const BusTransfer t = bus.transfer(0, 8, 1); // 1 address beat
    EXPECT_EQ(t.firstBeat, 4u); // addr beat + data beat
    EXPECT_EQ(t.done, 4u);
}

TEST(Bus, InfiniteWidthIsInstantAndUncontended)
{
    Bus bus(8, 3, true);
    const BusTransfer a = bus.transfer(5, 1024);
    const BusTransfer b = bus.transfer(5, 1024);
    EXPECT_EQ(a.done, 5u);
    EXPECT_EQ(b.grant, 5u); // no queueing
    EXPECT_EQ(bus.busyCycles(), 0u);
}

MemSysConfig
testMem(MemMode mode)
{
    MemSysConfig m;
    m.mode = mode;
    m.l1Size = 1_KiB;
    m.l1Block = 32;
    m.l2Size = 8_KiB;
    m.l2Block = 64;
    m.busRatio = 3;
    m.l2AccessCycles = 9;
    m.memAccessCycles = 27;
    return m;
}

TEST(MemorySystem, PerfectModeIsOneCycle)
{
    MemorySystem mem(testMem(MemMode::Perfect));
    EXPECT_EQ(mem.load(0x0, 4, 100), 101u);
    EXPECT_EQ(mem.load(0x4000, 4, 200), 201u);
}

TEST(MemorySystem, L1HitIsOneCycle)
{
    MemorySystem mem(testMem(MemMode::Full));
    mem.load(0x0, 4, 0);                    // cold miss
    EXPECT_EQ(mem.load(0x4, 4, 500), 501u); // same block: hit
}

TEST(MemorySystem, MissLatencyOrdering)
{
    // A fresh L2-miss costs more than an L2-hit, which costs more
    // than an L1 hit; infinite-width never exceeds full.
    MemorySystem full(testMem(MemMode::Full));
    const Cycle l2_miss = full.load(0x0, 4, 0);

    MemorySystem full2(testMem(MemMode::Full));
    full2.load(0x0, 4, 0); // warm L2 (and L1)
    // Conflict out of L1 but not L2: 1KB L1 -> 0x400 aliases 0x0.
    full2.load(0x400, 4, 1000);
    const Cycle l2_hit = full2.load(0x0, 4, 2000) - 2000;
    EXPECT_LT(l2_hit, l2_miss);
    EXPECT_GT(l2_hit, 1u);

    MemorySystem inf(testMem(MemMode::InfiniteWidth));
    const Cycle inf_miss = inf.load(0x0, 4, 0);
    EXPECT_LE(inf_miss, l2_miss);
}

TEST(MemorySystem, BlockingCacheSerializesMisses)
{
    // Warm both conflicting blocks into the L2, then miss on both
    // in the L1 (0x0 and 0x400 alias in the 1KB direct-mapped L1):
    // the lockup-free cache overlaps the two L2 hits, the blocking
    // cache serializes them.
    auto run = [](bool lockup_free) {
        MemSysConfig cfg = testMem(MemMode::Full);
        cfg.lockupFree = lockup_free;
        MemorySystem mem(cfg);
        mem.load(0x0, 4, 0);
        mem.load(0x400, 4, 500); // evicts 0x0 from L1; L2 keeps both
        mem.load(0x0, 4, 1000);  // L1 miss, L2 hit; evicts 0x400
        return mem.load(0x400, 4, 1001); // L1 miss, L2 hit
    };
    const Cycle blocking = run(false);
    const Cycle overlapped = run(true);
    EXPECT_LT(overlapped, blocking);
    EXPECT_GT(blocking, 1002u);
}

TEST(MemorySystem, InFlightMissMergesSameBlockAccess)
{
    MemSysConfig cfg = testMem(MemMode::Full);
    cfg.lockupFree = true;
    MemorySystem mem(cfg);
    const Cycle first = mem.load(0x0, 4, 0);
    // Another word of the same block while the miss is in flight:
    // the access must wait for the in-flight data, not hit in 1
    // cycle.
    const Cycle second = mem.load(0x8, 4, 1);
    EXPECT_EQ(second, first);
    EXPECT_EQ(mem.stats().mshrMerges, 1u);

    // Once the fill has landed, it is a plain hit.
    const Cycle third = mem.load(0x8, 4, first + 100);
    EXPECT_EQ(third, first + 101);
}

TEST(MemorySystem, StoresNeverStallButConsumeBandwidth)
{
    MemSysConfig cfg = testMem(MemMode::Full);
    MemorySystem mem(cfg);
    mem.store(0x0, 4, 10); // store miss: fills via write-allocate
    const MemSysStats s = mem.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_GT(s.l1l2BusBusy + s.memBusBusy, 0u);
}

TEST(MemorySystem, WrongPathLoadsPolluteButReturnNothing)
{
    MemSysConfig cfg = testMem(MemMode::Full);
    MemorySystem mem(cfg);
    mem.wrongPathLoad(0x0, 0);
    EXPECT_EQ(mem.stats().wrongPathLoads, 1u);
    EXPECT_EQ(mem.l1Stats().accesses, 1u);
    // The polluted block is now resident: a demand load hits.
    EXPECT_EQ(mem.load(0x0, 4, 1000), 1001u);
}

TEST(MemorySystem, PerfectModeKeepsTheBlockSpanCheck)
{
    // Perfect mode walks no cache, but a reference spanning an L1
    // block is still an input error, reported as the cache would.
    for (bool split : {false, true}) {
        SCOPED_TRACE(split ? "split L1" : "unified L1");
        auto message = [split](MemMode mode, auto access) {
            MemSysConfig cfg = testMem(mode);
            cfg.splitL1 = split;
            MemorySystem mem(cfg);
            EXPECT_NO_THROW(mem.load(0x1c, 4, 0)); // fits
            try {
                access(mem);
            } catch (const FatalError &e) {
                return std::string(e.what());
            }
            ADD_FAILURE() << "no FatalError";
            return std::string();
        };
        auto expectSame = [&](auto access) {
            const std::string perfect =
                message(MemMode::Perfect, access);
            EXPECT_NE(perfect.find("spans a block boundary"),
                      std::string::npos)
                << perfect;
            EXPECT_EQ(perfect, message(MemMode::Full, access));
        };
        expectSame([](MemorySystem &m) { m.load(0x1e, 4, 0); });
        expectSame([](MemorySystem &m) { m.store(0x1e, 4, 0); });
        expectSame([](MemorySystem &m) { m.ifetch(0x10, 32, 0); });
        expectSame([](MemorySystem &m) { m.wrongPathLoad(0x1e, 0); });
    }
}

InstrStream
streamFromWorkload(double scale)
{
    auto w = makeWorkload("Swm");
    WorkloadParams p;
    p.scale = scale;
    return InstrStream::fromRun(w->run(p));
}

TEST(Core, RetiresEveryInstruction)
{
    const InstrStream s = streamFromWorkload(0.02);
    auto cfg = makeExperiment('A', false);
    MemSysConfig m = cfg.mem;
    m.mode = MemMode::Perfect;
    MemorySystem mem(m);
    const CoreResult r = runCore(s, cfg.core, mem);
    EXPECT_EQ(r.instructions, s.size());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_LE(r.ipc, 4.0); // cannot beat the issue width
}

TEST(Core, PerfectMemoryIsFastest)
{
    const InstrStream s = streamFromWorkload(0.02);
    const auto cfg = makeExperiment('D', false);
    Cycle cycles[3];
    const MemMode modes[] = {MemMode::Perfect, MemMode::InfiniteWidth,
                             MemMode::Full};
    for (int i = 0; i < 3; ++i) {
        MemSysConfig m = cfg.mem;
        m.mode = modes[i];
        MemorySystem mem(m);
        cycles[i] = runCore(s, cfg.core, mem).cycles;
    }
    EXPECT_LE(cycles[0], cycles[1]);
    EXPECT_LE(cycles[1], cycles[2]);
}

TEST(Core, WiderWindowNeverHurtsOoo)
{
    const InstrStream s = streamFromWorkload(0.02);
    auto cfg = makeExperiment('D', false);
    MemSysConfig m = cfg.mem;
    m.mode = MemMode::Full;

    CoreConfig narrow = cfg.core;
    narrow.windowSlots = 8;
    CoreConfig wide = cfg.core;
    wide.windowSlots = 128;

    MemorySystem mem1(m);
    MemorySystem mem2(m);
    const Cycle t_narrow = runCore(s, narrow, mem1).cycles;
    const Cycle t_wide = runCore(s, wide, mem2).cycles;
    EXPECT_LE(t_wide, t_narrow);
}

TEST(Core, OooBeatsInOrderOnMissyCode)
{
    const InstrStream s = streamFromWorkload(0.02);
    const auto io = makeExperiment('C', false);
    const auto ooo = makeExperiment('D', false);
    EXPECT_LT(runPhase(s, ooo, 2).cycles, runPhase(s, io, 2).cycles);
}

TEST(Experiment, ConfigsMatchTable5)
{
    const auto a = makeExperiment('A', false);
    EXPECT_FALSE(a.core.outOfOrder);
    EXPECT_FALSE(a.mem.lockupFree);
    EXPECT_FALSE(a.mem.taggedPrefetch);
    EXPECT_EQ(a.mem.l1Block, 32u);
    EXPECT_EQ(a.mem.l2Block, 64u);
    EXPECT_EQ(a.core.bpredEntries, 8192u);
    EXPECT_EQ(a.cpuMHz, 300.0);
    EXPECT_EQ(a.mem.l1Size, 128_KiB);
    EXPECT_EQ(a.mem.l2Size, 1_MiB);
    EXPECT_EQ(a.mem.busRatio, 3u);
    EXPECT_EQ(a.mem.l2AccessCycles, 9u);  // 30ns at 300MHz
    EXPECT_EQ(a.mem.memAccessCycles, 27u);// 90ns at 300MHz

    const auto b = makeExperiment('B', false);
    EXPECT_EQ(b.mem.l1Block, 64u);
    EXPECT_EQ(b.mem.l2Block, 128u);

    const auto c = makeExperiment('C', false);
    EXPECT_TRUE(c.mem.lockupFree);
    EXPECT_FALSE(c.core.outOfOrder);

    const auto d = makeExperiment('D', false);
    EXPECT_TRUE(d.core.outOfOrder);
    EXPECT_TRUE(d.core.speculativeLoads);
    EXPECT_EQ(d.core.windowSlots, 16u);
    EXPECT_EQ(d.core.lsqSlots, 8u);
    EXPECT_EQ(d.core.bpredEntries, 16384u);
    EXPECT_FALSE(d.mem.taggedPrefetch);

    const auto e = makeExperiment('E', false);
    EXPECT_TRUE(e.mem.taggedPrefetch);
    EXPECT_EQ(e.core.windowSlots, 16u);

    const auto f = makeExperiment('F', false);
    EXPECT_EQ(f.core.windowSlots, 64u);
    EXPECT_EQ(f.core.lsqSlots, 32u);

    // SPEC95 parameter set.
    const auto d95 = makeExperiment('D', true);
    EXPECT_EQ(d95.cpuMHz, 400.0);
    EXPECT_EQ(d95.core.windowSlots, 64u);
    EXPECT_EQ(d95.mem.l1Size, 64_KiB);
    EXPECT_EQ(d95.mem.l2Size, 2_MiB);
    EXPECT_EQ(d95.mem.busRatio, 4u);

    const auto f95 = makeExperiment('F', true);
    EXPECT_EQ(f95.cpuMHz, 600.0);
    EXPECT_EQ(f95.core.windowSlots, 128u);

    EXPECT_THROW(makeExperiment('G', false), FatalError);
}

TEST(Experiment, DecompositionIdentitiesHold)
{
    const InstrStream s = streamFromWorkload(0.02);
    for (char letter : {'A', 'C', 'E'}) {
        const auto cfg = makeExperiment(letter, false);
        const DecompositionResult r = runDecomposition(s, cfg);
        EXPECT_TRUE(r.split.consistent()) << letter;
        EXPECT_NEAR(r.split.fP() + r.split.fL() + r.split.fB(), 1.0,
                    1e-9)
            << letter;
    }
}

void
expectSameCacheStats(const CacheStats &got, const CacheStats &want)
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
 * The functional access sequence does not depend on timing, so the
 * infinite-width and full phases leave identical caches behind, and
 * the perfect phase, which simulates no caches, leaves them untouched
 * while counting the same references.
 */
TEST(Experiment, CacheHierarchyIsModeIndependent)
{
    WorkloadParams wp;
    wp.scale = 0.01;
    wp.seed = 42;
    const InstrStream stream =
        InstrStream::fromRun(makeWorkload("Compress")->run(wp),
                             codeFootprintBytes("Compress"), 42);

    struct Captured
    {
        CacheStats l1, l2, il1;
        bool hasIl1 = false;
        MemSysStats mem;
    };
    for (bool spec95 : {false, true}) {
        for (char letter = 'A'; letter <= 'F'; ++letter) {
            SCOPED_TRACE(std::string(1, letter) +
                         (spec95 ? " SPEC95" : " SPEC92"));
            const ExperimentConfig cfg = makeExperiment(letter, spec95);
            Captured phases[decompositionPhases];
            for (unsigned p = 0; p < decompositionPhases; ++p) {
                Captured &c = phases[p];
                runPhase(stream, cfg, p, MemSysHook(),
                         [&c](MemorySystem &mem) {
                             c.l1 = mem.l1Stats();
                             c.l2 = mem.l2Stats();
                             c.hasIl1 = mem.il1Stats() != nullptr;
                             if (c.hasIl1)
                                 c.il1 = *mem.il1Stats();
                             c.mem = mem.stats();
                         });
            }
            const Captured &perfect = phases[0];
            const Captured &infinite = phases[1];
            const Captured &full = phases[2];

            EXPECT_EQ(full.hasIl1, spec95);
            EXPECT_GT(full.l1.accesses, 0u);
            EXPECT_GT(full.l2.accesses, 0u);
            expectSameCacheStats(infinite.l1, full.l1);
            expectSameCacheStats(infinite.l2, full.l2);
            expectSameCacheStats(infinite.il1, full.il1);

            EXPECT_EQ(perfect.l1.accesses, 0u);
            EXPECT_EQ(perfect.l2.accesses, 0u);
            EXPECT_EQ(perfect.il1.accesses, 0u);

            for (const Captured *c : {&perfect, &infinite}) {
                EXPECT_EQ(c->mem.loads, full.mem.loads);
                EXPECT_EQ(c->mem.stores, full.mem.stores);
                EXPECT_EQ(c->mem.ifetches, full.mem.ifetches);
                EXPECT_EQ(c->mem.wrongPathLoads,
                          full.mem.wrongPathLoads);
            }
            EXPECT_GT(full.mem.ifetches, 0u);
            if (letter >= 'D') {
                EXPECT_GT(full.mem.wrongPathLoads, 0u);
            }
        }
    }
}

/**
 * window_occupancy and lsq_occupancy of every phase of experiments A
 * and F (window 8 to 128 slots), pinned to the values the original
 * linear scan over every ring slot recorded.  The digests elsewhere
 * cover cycles and stalls but not these two distributions.
 */
TEST(Core, OccupancyDistributionsArePinned)
{
    struct Moments
    {
        std::uint64_t count;
        double sum, sumSq, minv, maxv;
    };
    struct Pinned
    {
        const char *workload;
        bool spec95;
        char letter;
        unsigned phase;
        Moments window, lsq;
    };
    const Pinned pinned[] = {
        {"Compress", false, 'A', 0,
         {97726, 483406, 2793104, 0, 7},
         {28000, 1085, 1085, 0, 1}},
        {"Compress", false, 'A', 1,
         {97726, 474300, 2732830, 0, 7},
         {28000, 1085, 1085, 0, 1}},
        {"Compress", false, 'A', 2,
         {97726, 474300, 2732830, 0, 7},
         {28000, 1085, 1085, 0, 1}},
        {"Compress", false, 'F', 0,
         {97726, 547403, 3803747, 0, 16},
         {28000, 24802, 40962, 0, 3}},
        {"Compress", false, 'F', 1,
         {97726, 2044411, 82784235, 0, 63},
         {28000, 145019, 1729515, 0, 20}},
        {"Compress", false, 'F', 2,
         {97726, 2168392, 92483794, 0, 63},
         {28000, 150402, 1880424, 0, 20}},
        {"Li", true, 'A', 0,
         {58210, 371819, 2430889, 0, 7},
         {24000, 1790, 1790, 0, 1}},
        {"Li", true, 'A', 1,
         {58210, 368483, 2404315, 0, 7},
         {24000, 1787, 1787, 0, 1}},
        {"Li", true, 'A', 2,
         {58210, 368483, 2404315, 0, 7},
         {24000, 1787, 1787, 0, 1}},
        {"Li", true, 'F', 0,
         {58210, 3819920, 359232344, 0, 127},
         {24000, 12616, 14348, 0, 2}},
        {"Li", true, 'F', 1,
         {58210, 4321139, 447872131, 0, 127},
         {24000, 12564, 14290, 0, 2}},
        {"Li", true, 'F', 2,
         {58210, 4109865, 418658815, 0, 127},
         {24000, 12535, 14257, 0, 2}},
    };
    auto expectMoments = [](const DistData &got, const Moments &want) {
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.sum, want.sum);
        EXPECT_EQ(got.sumSq, want.sumSq);
        EXPECT_EQ(got.minv, want.minv);
        EXPECT_EQ(got.maxv, want.maxv);
    };

    std::string built;
    InstrStream stream;
    for (const Pinned &p : pinned) {
        if (built != p.workload) {
            WorkloadParams wp;
            wp.scale = 0.02;
            wp.seed = 42;
            stream = InstrStream::fromRun(
                makeWorkload(p.workload)->run(wp),
                codeFootprintBytes(p.workload), 42);
            built = p.workload;
        }
        SCOPED_TRACE(std::string(p.workload) + " " + p.letter + " " +
                     phaseName(p.phase));
        const CoreResult r =
            runPhase(stream, makeExperiment(p.letter, p.spec95), p.phase);
        expectMoments(r.windowOcc, p.window);
        expectMoments(r.lsqOcc, p.lsq);
    }
}

TEST(Core, RejectsFetchBlockThatIsNotAPowerOfTwo)
{
    const InstrStream s = streamFromWorkload(0.01);
    for (Bytes bytes : {Bytes{0}, Bytes{24}}) {
        SCOPED_TRACE(bytes);
        ExperimentConfig cfg = makeExperiment('A', false);
        cfg.core.fetchBlockBytes = bytes;
        MemorySystem mem(cfg.mem);
        EXPECT_THROW(runCore(s, cfg.core, mem), FatalError);
    }
}

TEST(MemorySystem, InFlightTableMatchesAMap)
{
    // The prefetch in-flight table against the map it replaced, over
    // a random mix of inserts, overwrites, takes and purges.
    InFlightTable table;
    std::unordered_map<Addr, Cycle> model;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 200000; ++i) {
        const Addr block = (rng() % 6000) * 32;
        const Cycle when = static_cast<Cycle>(i);
        switch (rng() % 4) {
          case 0:
          case 1: {
            const Cycle ready = when + rng() % 5000;
            table.set(block, ready);
            model[block] = ready;
            break;
          }
          case 2: {
            Cycle got = 0;
            const auto it = model.find(block);
            ASSERT_EQ(table.take(block, got), it != model.end());
            if (it != model.end()) {
                EXPECT_EQ(got, it->second);
                model.erase(it);
            }
            break;
          }
          default:
            if (table.size() > 4096) {
                table.eraseUpTo(when);
                std::erase_if(model, [when](const auto &kv) {
                    return kv.second <= when;
                });
            }
        }
        ASSERT_EQ(table.size(), model.size());
    }
}

std::string
coreResultBytes(const CoreResult &r)
{
    ChkWriter w;
    saveCoreResult(w, r);
    return w.serialize();
}

/** A phase run that bypasses the memo: the hook forces a live run. */
CoreResult
livePhase(const InstrStream &stream, const ExperimentConfig &cfg,
          unsigned phase)
{
    return runPhase(stream, cfg, phase, MemSysHook(),
                    [](MemorySystem &) {});
}

InstrStream
streamFor(const std::string &workload, double scale)
{
    WorkloadParams wp;
    wp.scale = scale;
    wp.seed = 42;
    return InstrStream::fromRun(makeWorkload(workload)->run(wp),
                                codeFootprintBytes(workload), 42);
}

/** A-F, then F on SDRAM and F with a 4x slower bus clock. */
std::vector<ExperimentConfig>
memoConfigs(bool spec95)
{
    std::vector<ExperimentConfig> configs;
    for (char letter = 'A'; letter <= 'F'; ++letter)
        configs.push_back(makeExperiment(letter, spec95));
    ExperimentConfig sdram = makeExperiment('F', spec95);
    sdram.mem.dram = DramConfig::preset(DramKind::Synchronous, sdram.cpuMHz);
    configs.push_back(sdram);
    ExperimentConfig slow = makeExperiment('F', spec95);
    slow.mem.busRatio *= 4;
    configs.push_back(slow);
    return configs;
}

TEST(PhaseMemo, KeyedConfigComputesTheSameResult)
{
    // Every field a phase reads is in its key: the config rebuilt
    // from the key computes the same CoreResult, byte for byte.
    for (const char *workload : {"Compress", "Swm", "Li"}) {
        const InstrStream stream = streamFor(workload, 0.01);
        for (bool spec95 : {false, true}) {
            for (const ExperimentConfig &cfg : memoConfigs(spec95)) {
                for (unsigned p = 0; p < decompositionPhases; ++p) {
                    SCOPED_TRACE(std::string(workload) + " " +
                                 cfg.describe() + " " + phaseName(p));
                    const ExperimentConfig keyed = phaseConfig(cfg, p);
                    EXPECT_EQ(phaseKey(keyed, p), phaseKey(cfg, p));
                    EXPECT_EQ(coreResultBytes(livePhase(stream, cfg, p)),
                              coreResultBytes(livePhase(stream, keyed, p)));
                }
            }
        }
    }

    // The sharing the key is for.
    const std::vector<ExperimentConfig> c = memoConfigs(false);
    EXPECT_EQ(phaseKey(c[0], 0), phaseKey(c[1], 0)); // A, B
    EXPECT_EQ(phaseKey(c[0], 0), phaseKey(c[2], 0)); // A, C
    EXPECT_NE(phaseKey(c[0], 1), phaseKey(c[1], 1)); // B's blocks
    EXPECT_EQ(phaseKey(c[3], 0), phaseKey(c[4], 0)); // D, E
    EXPECT_EQ(phaseKey(c[5], 1), phaseKey(c[6], 1)); // F, F SDRAM
    EXPECT_NE(phaseKey(c[5], 2), phaseKey(c[6], 2));
    EXPECT_NE(phaseKey(c[5], 1), phaseKey(c[7], 1)); // bus clock
}

TEST(PhaseMemo, HitEqualsFreshRun)
{
    const InstrStream stream = streamFor("Compress", 0.01);
    const ExperimentConfig a = makeExperiment('A', false);
    const ExperimentConfig c = makeExperiment('C', false);
    runPhase(stream, a, 0);
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
    const CoreResult hit = runPhase(stream, c, 0);
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
    const InstrStream fresh = streamFor("Compress", 0.01);
    EXPECT_EQ(coreResultBytes(hit),
              coreResultBytes(runPhase(fresh, c, 0)));

    // Concurrent callers of one key share one run.
    const ExperimentConfig f = makeExperiment('F', false);
    std::vector<CoreResult> results(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i)
        threads.emplace_back([&, i] {
            results[i] = runPhase(stream, f, 2);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(stream.phaseMemo().size(), 2u);
    const std::string want = coreResultBytes(livePhase(fresh, f, 2));
    for (const CoreResult &r : results)
        EXPECT_EQ(coreResultBytes(r), want);
}

TEST(PhaseMemo, SpanningBlockStillFailsAfterAHit)
{
    // A load that straddles a 32 B boundary but not a 64 B one: the
    // perfect key is shared by both block sizes only where the
    // stream fits, so the 32 B machine still fails its span check.
    TraceRecorder rec;
    const Region r = rec.allocate("r", 256);
    rec.compute(3);
    rec.load(r.base + 30);
    WorkloadRun run;
    run.annotations = rec.annotations();
    run.trace = rec.takeTrace();
    const InstrStream stream = InstrStream::fromRun(run);
    EXPECT_EQ(stream.spanFreeBlock(), 64u);

    ExperimentConfig wide = makeExperiment('B', false); // 64 B
    ExperimentConfig narrow = makeExperiment('A', false); // 32 B
    runPhase(stream, wide, 0);
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
    try {
        runPhase(stream, narrow, 0);
        ADD_FAILURE() << "no FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("spans a block boundary"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
}

TEST(PhaseMemo, WaiterRunsPendingWorkBeforeBlocking)
{
    // While one caller builds a key, another caller of the same key
    // runs the work its WaitHelper offers, then takes the stored run.
    PhaseMemo memo;
    std::atomic<bool> building{false};
    std::atomic<bool> release{false};
    std::thread builder([&] {
        memo.get("k", 0, [&] {
            building = true;
            while (!release)
                std::this_thread::yield();
            PhaseMemo::Run run;
            run.result.cycles = 42;
            return run;
        });
    });
    while (!building)
        std::this_thread::yield();

    int tasks = 0;
    WaitHelper helper([&] {
        if (tasks == 3) {
            release = true;
            return false;
        }
        ++tasks;
        return true;
    });
    const PhaseMemo::Run got = memo.get("k", 0, [] {
        ADD_FAILURE() << "the waiter ran the build itself";
        return PhaseMemo::Run{};
    });
    builder.join();
    EXPECT_EQ(tasks, 3);
    EXPECT_EQ(got.result.cycles, 42u);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(PhaseMemo, SmallWatchdogBudgetStillTripsOnAHit)
{
    const InstrStream stream = streamFor("Compress", 0.01);
    ExperimentConfig cfg = makeExperiment('F', false);
    cfg.core.watchdogCycles = 0;
    runPhase(stream, cfg, 2);

    // The largest retirement gap of that run, from a live one.
    Watchdog probe(0);
    ExperimentConfig probed = cfg;
    probed.core.watchdog = &probe;
    livePhase(stream, probed, 2);
    const Cycle gap = probe.maxGap();
    ASSERT_GT(gap, 1u);

    cfg.core.watchdogCycles = gap - 1;
    EXPECT_THROW(runPhase(stream, cfg, 2), WatchdogError);

    // A budget the run fits in is answered from the memo, and a
    // caller-owned watchdog gets the run's record.
    Watchdog owned(gap);
    cfg.core.watchdog = &owned;
    const CoreResult hit = runPhase(stream, cfg, 2);
    EXPECT_EQ(owned.maxGap(), gap);
    EXPECT_EQ(owned.lastProgress(), hit.cycles);
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
}

TEST(PhaseMemo, HooksBypassTheMemo)
{
    const InstrStream stream = streamFor("Compress", 0.01);
    const ExperimentConfig cfg = makeExperiment('E', false);
    const CoreResult stored = runPhase(stream, cfg, 2);
    ASSERT_EQ(stream.phaseMemo().size(), 1u);

    // The hooks see a live MemorySystem that ran the phase.
    std::uint64_t observedLoads = 0;
    const CoreResult observed = runPhase(
        stream, cfg, 2, MemSysHook(),
        [&](MemorySystem &mem) { observedLoads = mem.stats().loads; });
    EXPECT_EQ(observedLoads, stream.loadCount());
    EXPECT_EQ(coreResultBytes(observed), coreResultBytes(stored));

    // A hooked run stores nothing.
    livePhase(stream, cfg, 1);
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
}

TEST(PhaseMemo, SerialReferenceRunsLive)
{
    // runDecomposition() is what the cell runner is checked against,
    // so it must not echo back results the runner stored.
    const InstrStream stream = streamFor("Compress", 0.01);
    const ExperimentConfig cfg = makeExperiment('E', false);
    const DecompositionResult ref = runDecomposition(stream, cfg);
    EXPECT_EQ(stream.phaseMemo().size(), 0u);

    const CoreResult stored = runPhase(stream, cfg, 2);
    ASSERT_EQ(stream.phaseMemo().size(), 1u);
    EXPECT_EQ(coreResultBytes(runDecomposition(stream, cfg).full),
              coreResultBytes(stored));
    EXPECT_EQ(coreResultBytes(ref.full), coreResultBytes(stored));
    EXPECT_EQ(stream.phaseMemo().size(), 1u);
}

TEST(InstrStream, BytesCountsOpsBitsAndMemo)
{
    const InstrStream s = streamFromWorkload(0.01);
    const std::size_t ops = s.bytes();
    EXPECT_GE(ops, s.size() * sizeof(MicroOp));
    s.mispredicts(8192);
    const std::size_t bits = s.bytes();
    EXPECT_GE(bits, ops + s.branchCount() / 8);
    runPhase(s, makeExperiment('A', false), 0);
    EXPECT_GT(s.bytes(), bits);
}

} // namespace
} // namespace membw
