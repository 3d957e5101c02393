/**
 * @file
 * Unit tests for the DRAM interface models.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "cpu/experiment.hh"
#include "dram/dram.hh"
#include "workloads/workload.hh"

namespace membw {
namespace {

DramConfig
sdram()
{
    return DramConfig::preset(DramKind::Synchronous, 300.0);
}

TEST(DramConfig, PresetsAreOrderedByBandwidth)
{
    const auto fpm = DramConfig::preset(DramKind::FastPageMode, 300);
    const auto edo = DramConfig::preset(DramKind::EDO, 300);
    const auto sd = DramConfig::preset(DramKind::Synchronous, 300);
    const auto rd = DramConfig::preset(DramKind::Rambus, 300);

    auto bw = [](const DramConfig &c) {
        return static_cast<double>(c.beatBytes) / c.beatNs;
    };
    // FPM < EDO < {SDRAM, RDRAM}: the mid-90s progression.  (A
    // 64-bit 100MHz SDRAM module out-streams the byte-wide base
    // RDRAM channel; both dwarf FPM/EDO.)
    EXPECT_LT(bw(fpm), bw(edo));
    EXPECT_LT(bw(edo), bw(sd));
    EXPECT_LT(bw(edo), bw(rd));
    EXPECT_NE(fpm.describe(), rd.describe());
}

TEST(DramModel, ValidationRules)
{
    DramConfig c = sdram();
    c.banks = 3;
    EXPECT_THROW(DramModel{c}, FatalError);
    c = sdram();
    c.rowBytes = 1000;
    EXPECT_THROW(DramModel{c}, FatalError);
}

TEST(DramModel, RowBufferHitsAreFaster)
{
    DramModel dram(sdram());
    const DramAccess miss = dram.access(0x0, 64, 1000);
    const DramAccess hit = dram.access(0x40, 64, 10000);
    EXPECT_LT(hit.firstBeat - 10000, miss.firstBeat - 1000);
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_EQ(dram.stats().rowMisses, 1u);
}

TEST(DramModel, DifferentRowsMissAndPrecharge)
{
    DramModel dram(sdram());
    dram.access(0x0, 64, 0);          // open row 0 (cold activate)
    const Cycle cold =
        dram.access(0x0, 64, 100000).firstBeat - 100000; // hit
    // Same bank, different row: precharge + activate.
    const Addr other_row =
        static_cast<Addr>(sdram().rowBytes) * sdram().banks;
    const Cycle conflict =
        dram.access(other_row, 64, 200000).firstBeat - 200000;
    EXPECT_GT(conflict, cold);
}

TEST(DramModel, BanksServiceIndependentRows)
{
    DramModel dram(sdram());
    // Adjacent rows interleave across banks: opening four rows in
    // four banks leaves all of them open.
    for (unsigned b = 0; b < 4; ++b)
        dram.access(static_cast<Addr>(b) * sdram().rowBytes, 64,
                    b * 1000);
    for (unsigned b = 0; b < 4; ++b)
        dram.access(static_cast<Addr>(b) * sdram().rowBytes + 64, 64,
                    100000 + b * 1000);
    EXPECT_EQ(dram.stats().rowHits, 4u);
}

TEST(DramModel, BusyBankQueuesRequests)
{
    DramModel dram(sdram());
    const DramAccess first = dram.access(0x0, 512, 0);
    // Same bank immediately after: must wait for the transfer.
    const DramAccess second = dram.access(0x10, 64, 1);
    EXPECT_GE(second.firstBeat, first.done);
}

TEST(DramModel, TransfersScaleWithSize)
{
    DramModel dram(sdram());
    const DramAccess small = dram.access(0x0, 8, 0);
    DramModel dram2(sdram());
    const DramAccess big = dram2.access(0x0, 512, 0);
    EXPECT_GT(big.done - big.firstBeat,
              small.done - small.firstBeat);
}

TEST(DramIntegration, TimingModelRunsWithEveryKind)
{
    WorkloadParams p;
    p.scale = 0.02;
    const auto run = makeWorkload("Swm")->run(p);
    const InstrStream stream = InstrStream::fromRun(run);

    const ExperimentConfig base = makeExperiment('F', false);
    const Cycle flat = runPhase(stream, base, 2).cycles;

    for (DramKind kind : {DramKind::FastPageMode, DramKind::EDO,
                          DramKind::Synchronous, DramKind::Rambus}) {
        ExperimentConfig cfg = base;
        cfg.mem.dram = DramConfig::preset(kind, cfg.cpuMHz);
        const CoreResult r = runPhase(stream, cfg, 2);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.mem.dramRowHits + r.mem.dramRowMisses, 0u);
        // A banked DRAM is never faster than ideal flat memory by
        // more than rounding, and FPM should be clearly slower.
        if (kind == DramKind::FastPageMode) {
            EXPECT_GT(r.cycles, flat);
        }
    }
}

TEST(DramIntegration, DecompositionStaysConsistent)
{
    WorkloadParams p;
    p.scale = 0.02;
    const auto run = makeWorkload("Tomcatv")->run(p);
    const InstrStream stream = InstrStream::fromRun(run);
    ExperimentConfig cfg = makeExperiment('E', false);
    cfg.mem.dram =
        DramConfig::preset(DramKind::FastPageMode, cfg.cpuMHz);
    const DecompositionResult r = runDecomposition(stream, cfg);
    EXPECT_TRUE(r.split.consistent());
    // Slower DRAM is a bandwidth effect: it must show up as f_B,
    // not f_L (InfiniteWidth keeps the flat intrinsic latency).
    EXPECT_GT(r.split.fB(), 0.0);
}

} // namespace
} // namespace membw
