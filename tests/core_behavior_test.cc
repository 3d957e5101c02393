/**
 * @file
 * Behavioral tests of the timing core: bandwidth limits, window and
 * LSQ effects, branch costs, dependence serialization.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "cpu/experiment.hh"
#include "cpu/memsys.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

/** Build a stream of pure compute ops. */
InstrStream
computeStream(unsigned n)
{
    TraceRecorder rec;
    rec.allocate("pad", 64);
    for (unsigned i = 0; i < n; ++i)
        rec.compute(1);
    rec.branch(true); // flush pending ops into the annotations
    WorkloadRun run;
    run.annotations = rec.annotations();
    run.trace = rec.takeTrace();
    return InstrStream::fromRun(run);
}

/** Stream of independent loads over a resident region. */
InstrStream
loadStream(unsigned n, bool dependent)
{
    TraceRecorder rec;
    const Region r = rec.allocate("data", 4_KiB);
    for (unsigned i = 0; i < n; ++i) {
        if (dependent)
            rec.loadDependent(r.word(i % r.words()));
        else
            rec.load(r.word(i % r.words()));
    }
    WorkloadRun run;
    run.annotations = rec.annotations();
    run.trace = rec.takeTrace();
    return InstrStream::fromRun(run);
}

MemorySystem
perfectMem()
{
    MemSysConfig m;
    m.mode = MemMode::Perfect;
    return MemorySystem(m);
}

CoreConfig
simpleCore(bool ooo)
{
    CoreConfig c;
    c.outOfOrder = ooo;
    c.windowSlots = 32;
    c.lsqSlots = 16;
    return c;
}

TEST(CoreBehavior, IssueWidthBoundsComputeThroughput)
{
    const InstrStream s = computeStream(40000);
    MemorySystem mem = perfectMem();
    const CoreResult r = runCore(s, simpleCore(true), mem);
    // 4-wide: IPC can approach but never exceed 4.
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_GT(r.ipc, 3.0);
}

TEST(CoreBehavior, WiderIssueRaisesThroughput)
{
    const InstrStream s = computeStream(40000);
    CoreConfig narrow = simpleCore(true);
    CoreConfig wide = simpleCore(true);
    wide.issueWidth = 8;
    MemorySystem m1 = perfectMem();
    MemorySystem m2 = perfectMem();
    EXPECT_GT(runCore(s, narrow, m1).cycles,
              runCore(s, wide, m2).cycles);
}

TEST(CoreBehavior, MemPortsBoundLoadThroughput)
{
    const InstrStream s = loadStream(20000, false);
    MemorySystem mem = perfectMem();
    const CoreResult r = runCore(s, simpleCore(true), mem);
    // Two load/store units: at most 2 memory ops per cycle.
    EXPECT_LE(r.ipc, 2.01);
    EXPECT_GT(r.ipc, 1.5);
}

TEST(CoreBehavior, DependentLoadsSerialize)
{
    const InstrStream indep = loadStream(20000, false);
    const InstrStream dep = loadStream(20000, true);
    MemorySystem m1 = perfectMem();
    MemorySystem m2 = perfectMem();
    const Cycle t_indep =
        runCore(indep, simpleCore(true), m1).cycles;
    const Cycle t_dep = runCore(dep, simpleCore(true), m2).cycles;
    // A pointer-chase chain runs at ~1 load/cycle even on perfect
    // memory; independent loads run at the port limit.
    EXPECT_GT(t_dep, t_indep * 3 / 2);
}

TEST(CoreBehavior, MispredictsCostCycles)
{
    // Alternating-with-noise branches vs all-taken branches.
    auto branchy = [](double noise) {
        TraceRecorder rec;
        rec.allocate("pad", 64);
        Rng rng(5);
        for (int i = 0; i < 20000; ++i) {
            rec.compute(2);
            rec.branch(rng.chance(noise) ? rng.chance(0.5) : true);
        }
        WorkloadRun run;
        run.annotations = rec.annotations();
        run.trace = rec.takeTrace();
        return InstrStream::fromRun(run);
    };
    const InstrStream predictable = branchy(0.0);
    const InstrStream noisy = branchy(0.9);
    MemorySystem m1 = perfectMem();
    MemorySystem m2 = perfectMem();
    const CoreResult rp = runCore(predictable, simpleCore(true), m1);
    const CoreResult rn = runCore(noisy, simpleCore(true), m2);
    EXPECT_LT(rp.mispredicts * 10, rn.mispredicts);
    EXPECT_LT(rp.cycles, rn.cycles);
}

TEST(CoreBehavior, SpeculativeLoadsPolluteOnMispredict)
{
    WorkloadParams p;
    p.scale = 0.05;
    const auto run = makeWorkload("Compress")->run(p);
    const InstrStream s = InstrStream::fromRun(run);

    auto wrong_path = [&](bool speculative) {
        ExperimentConfig cfg = makeExperiment('D', false);
        cfg.core.speculativeLoads = speculative;
        return runPhase(s, cfg, 2).mem.wrongPathLoads;
    };
    EXPECT_EQ(wrong_path(false), 0u);
    EXPECT_GT(wrong_path(true), 100u);
}

TEST(CoreBehavior, TinyWindowThrottlesIlp)
{
    const InstrStream s = computeStream(20000);
    CoreConfig tiny = simpleCore(true);
    tiny.windowSlots = 1;
    MemorySystem m1 = perfectMem();
    const CoreResult r = runCore(s, tiny, m1);
    // One in-flight op: IPC pinned to ~1.
    EXPECT_LT(r.ipc, 1.2);
}

TEST(CoreBehavior, RejectsZeroParameters)
{
    const InstrStream s = computeStream(10);
    CoreConfig bad = simpleCore(true);
    bad.issueWidth = 0;
    MemorySystem mem = perfectMem();
    EXPECT_THROW(runCore(s, bad, mem), FatalError);
}

TEST(CoreBehavior, InOrderNeverBeatsOooOnSameStream)
{
    WorkloadParams p;
    p.scale = 0.05;
    const auto run = makeWorkload("Su2cor")->run(p);
    const InstrStream s = InstrStream::fromRun(run);
    ExperimentConfig io = makeExperiment('C', false);
    ExperimentConfig ooo = makeExperiment('D', false);
    // Make everything equal except the issue discipline.
    ooo.core.windowSlots = io.core.windowSlots;
    ooo.core.lsqSlots = io.core.lsqSlots;
    ooo.core.bpredEntries = io.core.bpredEntries;
    ooo.core.speculativeLoads = false;
    EXPECT_LE(runPhase(s, ooo, 2).cycles, runPhase(s, io, 2).cycles);
}

} // namespace
} // namespace membw
