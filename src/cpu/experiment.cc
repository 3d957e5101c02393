#include "cpu/experiment.hh"

#include <cmath>

#include "common/log.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"

namespace membw {

namespace {

Cycle
nsToCycles(double ns, double mhz)
{
    return static_cast<Cycle>(std::ceil(ns * mhz / 1000.0));
}

} // namespace

std::string
ExperimentConfig::describe() const
{
    return std::string(1, letter) + (spec95 ? "/SPEC95" : "/SPEC92") +
           " " + (core.outOfOrder ? "OOO" : "in-order") +
           (mem.lockupFree ? " lockup-free" : " blocking") +
           (mem.taggedPrefetch ? " +prefetch" : "");
}

ExperimentConfig
makeExperiment(char letter, bool spec95)
{
    if (letter < 'A' || letter > 'F')
        fatal("experiment letter must be A-F");

    ExperimentConfig e;
    e.letter = letter;
    e.spec95 = spec95;

    // ---- clock (Table 5): A-E 300/400 MHz, F 300/600 MHz ----
    const bool is_f = letter == 'F';
    e.cpuMHz = spec95 ? (is_f ? 600.0 : 400.0) : 300.0;

    // ---- memory system (Table 4) ----
    MemSysConfig &m = e.mem;
    if (spec95) {
        m.l1Size = 64_KiB; // split: 64KB I + 64KB D (Table 4)
        m.splitL1 = true;
        m.iL1Size = 64_KiB;
        m.l2Size = 2_MiB;
        m.busRatio = 4;
    } else {
        m.l1Size = 128_KiB; // unified: I and D share the lines
        m.splitL1 = false;
        m.l2Size = 1_MiB;
        m.busRatio = 3;
    }
    m.l1Assoc = 1;
    m.l2Assoc = 4;
    m.l1l2BusBytes = 16; // 128 bits
    m.memBusBytes = 8;   // 64 bits
    m.l2AccessCycles = nsToCycles(30.0, e.cpuMHz);
    m.memAccessCycles = nsToCycles(90.0, e.cpuMHz);

    // Block sizes: B doubles them (Table 5 row "L1/L2 blocks").
    if (letter == 'B') {
        m.l1Block = 64;
        m.l2Block = 128;
    } else {
        m.l1Block = 32;
        m.l2Block = 64;
    }

    m.lockupFree = letter >= 'C';
    m.mshrs = 8;
    m.taggedPrefetch = letter >= 'E';

    // ---- core (Table 5) ----
    CoreConfig &c = e.core;
    c.issueWidth = 4;
    c.memPorts = 2;
    c.outOfOrder = letter >= 'D';
    c.speculativeLoads = c.outOfOrder;
    c.bpredEntries = c.outOfOrder ? 16384 : 8192;
    c.mispredictPenalty = 3;

    if (!c.outOfOrder) {
        c.windowSlots = 8;
        c.lsqSlots = 8;
    } else if (is_f) {
        c.windowSlots = spec95 ? 128 : 64;
        c.lsqSlots = spec95 ? 64 : 32;
    } else {
        c.windowSlots = spec95 ? 64 : 16;
        c.lsqSlots = spec95 ? 32 : 8;
    }
    return e;
}

CoreResult
runPhase(const InstrStream &stream, const ExperimentConfig &config,
         unsigned phase)
{
    return runPhase(stream, config, phase, MemSysHook(),
                    MemSysHook());
}

CoreResult
runPhase(const InstrStream &stream, const ExperimentConfig &config,
         unsigned phase, const MemSysHook &preRun,
         const MemSysHook &postRun)
{
    MemSysConfig m = config.mem;
    switch (phase) {
      case 0:
        m.mode = MemMode::Perfect;
        break;
      case 1:
        m.mode = MemMode::InfiniteWidth;
        break;
      case 2:
        m.mode = MemMode::Full;
        break;
      default:
        fatal("decomposition phase must be 0-2");
    }
    MEMBW_SPAN_D("phase", std::string(phaseName(phase)));
    MemorySystem mem(m);
    if (preRun)
        preRun(mem);
    CoreResult result = runCore(stream, config.core, mem);
    if (postRun)
        postRun(mem);
    return result;
}

const char *
phaseName(unsigned phase)
{
    switch (phase) {
      case 0: return "perfect";
      case 1: return "infinite-width";
      case 2: return "full";
      default: return "?";
    }
}

DecompositionResult
assembleDecomposition(const CoreResult &perfect,
                      const CoreResult &infinite,
                      const CoreResult &full)
{
    DecompositionResult result;
    result.perfect = perfect;
    result.infinite = infinite;
    result.full = full;
    result.split = decompose(perfect.cycles, infinite.cycles,
                             full.cycles);
    return result;
}

DecompositionResult
runDecomposition(const InstrStream &stream,
                 const ExperimentConfig &config)
{
    const CoreResult perfect = runPhase(stream, config, 0);
    const CoreResult infinite = runPhase(stream, config, 1);
    const CoreResult full = runPhase(stream, config, 2);
    return assembleDecomposition(perfect, infinite, full);
}

/** Shared body for the registry-rooted and group-rooted publishers;
 * Parent is StatsRegistry or StatsGroup (both expose group()). */
template <typename Parent>
static void
publishDecompositionInto(Parent &parent,
                         const DecompositionResult &result)
{
    StatsGroup decomp = parent.group("decomp");
    auto &tp = decomp.addCounter(
        "t_p", "T_P: cycles with a perfect memory system", "cycles");
    tp.set(result.split.perfectCycles);
    decomp
        .addCounter("t_i",
                    "T_I: cycles with intrinsic latencies only",
                    "cycles")
        .set(result.split.infiniteCycles);
    auto &t = decomp.addCounter("t", "T: cycles on the full system",
                                "cycles");
    t.set(result.split.fullCycles);
    decomp
        .addCounter("t_l", "latency stall cycles T_L = T_I - T_P",
                    "cycles")
        .set(result.split.latencyStall());
    decomp
        .addCounter("t_b", "bandwidth stall cycles T_B = T - T_I",
                    "cycles")
        .set(result.split.bandwidthStall());
    decomp.addScalar("f_p", "processing fraction T_P / T")
        .set(result.split.fP());
    decomp.addScalar("f_l", "latency-stall fraction T_L / T")
        .set(result.split.fL());
    decomp.addScalar("f_b", "bandwidth-stall fraction T_B / T")
        .set(result.split.fB());

    StatsGroup core = parent.group("core");
    publishCoreStats(core, result.full);
    StatsGroup mem = parent.group("mem");
    publishMemSysStats(mem, result.full.mem);
}

void
publishDecompositionStats(StatsRegistry &registry,
                          const DecompositionResult &result)
{
    publishDecompositionInto(registry, result);
}

void
publishDecompositionStats(StatsGroup &group,
                          const DecompositionResult &result)
{
    publishDecompositionInto(group, result);
}

} // namespace membw
