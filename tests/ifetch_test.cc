/**
 * @file
 * Tests for the instruction-fetch path: PC synthesis, the split vs
 * unified L1 configurations, and I-miss timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hh"

#include "cpu/core.hh"
#include "cpu/experiment.hh"
#include "cpu/instr_stream.hh"
#include "cpu/memsys.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

WorkloadRun
smallRun(const char *name = "Swm")
{
    WorkloadParams p;
    p.scale = 0.02;
    return makeWorkload(name)->run(p);
}

TEST(PcSynthesis, EveryOpHasACodeAddress)
{
    const InstrStream s = InstrStream::fromRun(smallRun(), 32_KiB, 7);
    ASSERT_GT(s.size(), 1000u);
    for (std::size_t i = 0; i < s.size(); i += 101) {
        EXPECT_GE(s[i].pc(), Addr{1} << 40); // code segment
        EXPECT_EQ(s[i].pc() % 4, 0u);
    }
}

TEST(PcSynthesis, FootprintBoundedByCodeBytes)
{
    const Bytes code = 8_KiB;
    const InstrStream s = InstrStream::fromRun(smallRun(), code, 7);
    std::unordered_set<Addr> blocks;
    for (const MicroOp &op : s)
        blocks.insert(op.pc() / 64);
    EXPECT_LE(blocks.size(), code / 64 + 1);
}

TEST(PcSynthesis, LoopStructureMakesHotBlocks)
{
    // The vast majority of fetches should hit a small set of hot
    // fetch blocks (loop bodies), even with a large footprint.
    const InstrStream s =
        InstrStream::fromRun(smallRun(), 32_KiB, 7);
    std::unordered_map<Addr, std::uint64_t> counts;
    for (const MicroOp &op : s)
        counts[op.pc() / 64]++;
    std::vector<std::uint64_t> hist;
    for (const auto &[b, c] : counts)
        hist.push_back(c);
    std::sort(hist.rbegin(), hist.rend());
    std::uint64_t top = 0, total = 0;
    for (std::size_t i = 0; i < hist.size(); ++i) {
        total += hist[i];
        if (i < 32)
            top += hist[i];
    }
    EXPECT_GT(static_cast<double>(top) / total, 0.4);
}

TEST(PcSynthesis, DeterministicPerSeed)
{
    // Compress is branch-rich, so different seeds diverge quickly.
    const auto run = smallRun("Compress");
    const InstrStream a = InstrStream::fromRun(run, 32_KiB, 7);
    const InstrStream b = InstrStream::fromRun(run, 32_KiB, 7);
    const InstrStream c = InstrStream::fromRun(run, 32_KiB, 8);
    ASSERT_EQ(a.size(), b.size());
    bool same = true, differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].pc() == b[i].pc();
        differs = differs || a[i].pc() != c[i].pc();
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(differs);
}

TEST(PcSynthesis, RejectsTinyFootprint)
{
    EXPECT_THROW(InstrStream::fromRun(smallRun(), 64, 7),
                 FatalError);
}

MemSysConfig
ifetchMem(bool split)
{
    MemSysConfig m;
    m.mode = MemMode::Full;
    m.l1Size = 1_KiB;
    m.l1Block = 32;
    m.splitL1 = split;
    m.iL1Size = 1_KiB;
    m.l2Size = 16_KiB;
    m.l2Block = 64;
    return m;
}

TEST(IFetch, HitIsFree)
{
    MemorySystem mem(ifetchMem(true));
    const Addr pc = Addr{1} << 40;
    mem.ifetch(pc, 16, 0);              // cold miss
    EXPECT_EQ(mem.ifetch(pc, 16, 500), 500u); // warm: no penalty
    EXPECT_EQ(mem.stats().ifetches, 2u);
    EXPECT_EQ(mem.stats().iMisses, 1u);
}

TEST(IFetch, MissCostsMemoryLatency)
{
    MemorySystem mem(ifetchMem(true));
    const Cycle done = mem.ifetch(Addr{1} << 40, 16, 100);
    EXPECT_GT(done, 110u); // L2 + memory round trip
}

TEST(IFetch, UnifiedL1SharesLinesWithData)
{
    // In the unified configuration, an instruction block and a data
    // block that map to the same set evict each other.
    MemorySystem mem(ifetchMem(false));
    const Addr pc = Addr{1} << 40;   // maps to set 0 of the 1KB L1
    mem.ifetch(pc, 16, 0);
    mem.load(0x0, 4, 100);           // data block also in set 0
    // The I-block was evicted: re-fetch misses again.
    mem.ifetch(pc, 16, 1000);
    EXPECT_EQ(mem.stats().iMisses, 2u);
}

TEST(IFetch, SplitL1DoesNotInterfere)
{
    MemorySystem mem(ifetchMem(true));
    const Addr pc = Addr{1} << 40;
    mem.ifetch(pc, 16, 0);
    mem.load(0x0, 4, 100);
    mem.ifetch(pc, 16, 1000);
    EXPECT_EQ(mem.stats().iMisses, 1u); // still resident
}

TEST(IFetch, PerfectModeIsTransparent)
{
    MemSysConfig m = ifetchMem(true);
    m.mode = MemMode::Perfect;
    MemorySystem mem(m);
    EXPECT_EQ(mem.ifetch(Addr{1} << 40, 16, 42), 42u);
}

TEST(IFetch, CoreStallsOnColdCode)
{
    // A stream over a large code footprint must run slower than the
    // same stream with a tiny, hot footprint.
    const auto run = smallRun("Compress");
    const InstrStream hot = InstrStream::fromRun(run, 1_KiB, 7);
    const InstrStream cold = InstrStream::fromRun(run, 512_KiB, 7);
    const auto cfg = makeExperiment('A', false);
    EXPECT_LT(runPhase(hot, cfg, 2).cycles, runPhase(cold, cfg, 2).cycles);
}

} // namespace
} // namespace membw
