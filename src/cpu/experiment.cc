#include "cpu/experiment.hh"

#include <cmath>

#include "common/log.hh"
#include "cpu/phase_memo.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/watchdog.hh"

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

namespace {

MemMode
phaseMode(unsigned phase)
{
    switch (phase) {
      case 0: return MemMode::Perfect;
      case 1: return MemMode::InfiniteWidth;
      case 2: return MemMode::Full;
      default: fatal("decomposition phase must be 0-2");
    }
}

template <typename T>
void
appendKey(std::string &key, const T &value)
{
    key.append(reinterpret_cast<const char *>(&value), sizeof value);
}

} // namespace

ExperimentConfig
phaseConfig(const ExperimentConfig &config, unsigned phase)
{
    const MemMode mode = phaseMode(phase);
    ExperimentConfig out;
    out.core = config.core;
    out.core.progressEvery = 0;
    out.core.progress = nullptr;
    out.core.watchdogCycles = 0;
    out.core.watchdog = nullptr;
    if (mode == MemMode::Perfect)
        return out;
    out.mem = config.mem;
    if (mode == MemMode::InfiniteWidth) {
        const MemSysConfig defaults;
        out.mem.l1l2BusBytes = defaults.l1l2BusBytes;
        out.mem.memBusBytes = defaults.memBusBytes;
        out.mem.dram.reset();
    }
    return out;
}

// phaseKey() names every field by hand.  A field added to one of
// these structs changes its size and stops the build here: add it to
// the key (and to phaseConfig() if some phase does not read it), then
// update the size.  Sizes are those of an LP64 target.
static_assert(sizeof(void *) != 8 || sizeof(DramConfig) == 64,
              "DramConfig changed: revisit phaseKey()");
static_assert(sizeof(void *) != 8 ||
                  sizeof(MemSysConfig) ==
                      112 + sizeof(std::optional<DramConfig>),
              "MemSysConfig changed: revisit phaseKey()");
static_assert(sizeof(void *) != 8 ||
                  sizeof(CoreConfig) ==
                      64 + sizeof(decltype(CoreConfig::progress)),
              "CoreConfig changed: revisit phaseKey()");

std::string
phaseKey(const ExperimentConfig &config, unsigned phase)
{
    const ExperimentConfig canon = phaseConfig(config, phase);
    const CoreConfig &c = canon.core;
    const MemSysConfig &m = canon.mem;
    std::string key;
    appendKey(key, phase);
    appendKey(key, c.issueWidth);
    appendKey(key, c.memPorts);
    appendKey(key, c.outOfOrder);
    appendKey(key, c.speculativeLoads);
    appendKey(key, c.windowSlots);
    appendKey(key, c.lsqSlots);
    appendKey(key, c.bpredEntries);
    appendKey(key, c.mispredictPenalty);
    appendKey(key, c.fetchBlockBytes);
    appendKey(key, m.l1Size);
    appendKey(key, m.l1Block);
    appendKey(key, m.l1Assoc);
    appendKey(key, m.splitL1);
    appendKey(key, m.iL1Size);
    appendKey(key, m.l2Size);
    appendKey(key, m.l2Block);
    appendKey(key, m.l2Assoc);
    appendKey(key, m.lockupFree);
    appendKey(key, m.mshrs);
    appendKey(key, m.taggedPrefetch);
    appendKey(key, m.busRatio);
    appendKey(key, m.l1l2BusBytes);
    appendKey(key, m.memBusBytes);
    appendKey(key, m.l2AccessCycles);
    appendKey(key, m.memAccessCycles);
    appendKey(key, m.dram.has_value());
    if (m.dram) {
        const DramConfig &d = *m.dram;
        appendKey(key, d.kind);
        appendKey(key, d.banks);
        appendKey(key, d.rowBytes);
        appendKey(key, d.cpuMHz);
        appendKey(key, d.rowAccessNs);
        appendKey(key, d.pageHitNs);
        appendKey(key, d.prechargeNs);
        appendKey(key, d.beatNs);
        appendKey(key, d.beatBytes);
    }
    return key;
}

namespace {

/** runPhase(); @p memoize false runs the phase live even where a
 * memoized answer would do. */
CoreResult
runPhaseOn(const InstrStream &stream, const ExperimentConfig &config,
           unsigned phase, const MemSysHook &preRun,
           const MemSysHook &postRun, bool memoize)
{
    MemSysConfig m = config.mem;
    m.mode = phaseMode(phase);
    MEMBW_SPAN_D("phase", std::string(phaseName(phase)));

    // Observers need this phase's own MemorySystem, and the perfect
    // key stands only for caches whose blocks the stream never spans
    // (the other configs fail their span check): run those live.
    const bool live =
        !memoize || preRun || postRun ||
        (m.mode == MemMode::Perfect &&
         (config.mem.l1Block < stream.spanFreeBlock() ||
          config.core.fetchBlockBytes > config.mem.l1Block));
    if (live) {
        MemorySystem mem(m);
        if (preRun)
            preRun(mem);
        CoreResult result = runCore(stream, config.core, mem);
        if (postRun)
            postRun(mem);
        return result;
    }

    // The perfect key leaves out the cache geometry, so check it
    // here: a memoized answer must fail wherever a live run would.
    MemorySystem::validate(m);
    Watchdog *const callerWatchdog = config.core.watchdog;
    const Cycle budget = callerWatchdog ? callerWatchdog->budget()
                                        : config.core.watchdogCycles;
    const PhaseMemo::Run run = stream.phaseMemo().get(
        phaseKey(config, phase), budget, [&] {
            CoreConfig core = config.core;
            Watchdog local(core.watchdogCycles);
            if (!core.watchdog)
                core.watchdog = &local;
            MemorySystem mem(m);
            const CoreResult result = runCore(stream, core, mem);
            return PhaseMemo::Run{result, core.watchdog->maxGap()};
        });
    if (callerWatchdog)
        callerWatchdog->replay(run.result.cycles, run.maxGap);
    return run.result;
}

} // namespace

CoreResult
runPhase(const InstrStream &stream, const ExperimentConfig &config,
         unsigned phase, const MemSysHook &preRun,
         const MemSysHook &postRun)
{
    return runPhaseOn(stream, config, phase, preRun, postRun, true);
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
    const MemSysHook none;
    const CoreResult perfect =
        runPhaseOn(stream, config, 0, none, none, false);
    const CoreResult infinite =
        runPhaseOn(stream, config, 1, none, none, false);
    const CoreResult full =
        runPhaseOn(stream, config, 2, none, none, false);
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
