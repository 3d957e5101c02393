#include "cpu/core.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/registry.hh"
#include "resilience/checkpoint.hh"
#include "resilience/watchdog.hh"

namespace membw {

namespace {

/**
 * Bandwidth slotter: hands out at most @p width slots per cycle, at
 * or after the requested cycle.  Requests must be non-decreasing,
 * which program-order processing guarantees for fetch and retire.
 */
class Slotter
{
  public:
    explicit Slotter(unsigned width) : width_(width) {}

    Cycle
    take(Cycle earliest)
    {
        if (earliest > cycle_) {
            cycle_ = earliest;
            used_ = 0;
        }
        if (used_ >= width_) {
            ++cycle_;
            used_ = 0;
        }
        ++used_;
        return cycle_;
    }

  private:
    unsigned width_;
    Cycle cycle_ = 0;
    unsigned used_ = 0;
};

/**
 * The last N timestamps, for window/LSQ occupancy.  Retire cycles
 * arrive in non-decreasing order, so the ring read from pos_ (oldest
 * first) is sorted.
 */
class OccupancyRing
{
  public:
    explicit OccupancyRing(unsigned slots) : ring_(slots, 0) {}

    /** Time the oldest of the last N entries freed its slot. */
    Cycle oldest() const { return ring_[pos_]; }

    /**
     * Entries still occupied (not yet retired) at cycle @p t.  The
     * queries must be non-decreasing, as the fetch and memory-port
     * slotters that produce them are.  Then an entry found free
     * stays free, so only the newest live_ entries are candidates
     * and a forward-only pointer over them costs amortized O(1).
     */
    unsigned
    occupiedAt(Cycle t)
    {
        assert(t >= lastQuery_);
        lastQuery_ = t;
        const std::size_t n = ring_.size();
        std::size_t first = pos_ + n - live_;
        while (live_ && ring_[first >= n ? first - n : first] <= t) {
            --live_;
            ++first;
        }
        return static_cast<unsigned>(live_);
    }

    void
    push(Cycle t)
    {
        const std::size_t n = ring_.size();
        assert(t >= ring_[pos_ == 0 ? n - 1 : pos_ - 1]);
        ring_[pos_] = t;
        if (++pos_ == n)
            pos_ = 0;
        if (live_ < n)
            ++live_;
    }

  private:
    std::vector<Cycle> ring_;
    std::size_t pos_ = 0;  ///< oldest entry; next slot to overwrite
    std::size_t live_ = 0; ///< newest entries not yet seen retired
    Cycle lastQuery_ = 0;
};

} // namespace

CoreResult
runCore(const InstrStream &stream, const CoreConfig &core,
        MemorySystem &mem)
{
    if (core.issueWidth == 0 || core.memPorts == 0 ||
        core.windowSlots == 0 || core.lsqSlots == 0)
        fatal("core parameters must be non-zero");
    if (!isPowerOfTwo(core.fetchBlockBytes))
        fatal("fetch block size must be a non-zero power of two");

    // Branch outcomes do not depend on timing: one predictor run per
    // stream and table size serves every phase.
    const std::vector<std::uint64_t> &mispredicted =
        stream.mispredicts(core.bpredEntries);
    const Addr fetch_mask = ~(static_cast<Addr>(core.fetchBlockBytes) - 1);
    Slotter fetch(core.issueWidth);
    Slotter retire(core.issueWidth);
    Slotter memPort(core.memPorts);
    OccupancyRing window(core.windowSlots);
    OccupancyRing lsq(core.lsqSlots);

    Cycle fetch_earliest = 0;  ///< fetch redirect point
    Cycle last_retire = 0;
    Cycle last_start = 0;      ///< in-order issue point
    Cycle last_load_done = 0;  ///< most recent load's data
    Cycle last_compute_done = 0;
    Cycle last_dispatch = 0;   ///< stall-attribution baseline
    Addr last_load_addr = 0;
    std::uint64_t branch_index = 0;
    std::uint64_t mispredicts = 0;

    CoreStalls stalls;
    DistData window_occ;
    DistData lsq_occ;

    Addr cur_fetch_block = addrInvalid;
    std::size_t cur_op = 0;

    Watchdog localWatchdog(core.watchdogCycles);
    Watchdog &watchdog =
        core.watchdog ? *core.watchdog : localWatchdog;
    watchdog.setDiagnostic([&](StatsRegistry &reg) {
        StatsGroup g = reg.group("core");
        g.addCounter("op_index", "micro-op being processed", "ops")
            .set(cur_op);
        g.addCounter("ops_total", "micro-ops in the stream", "ops")
            .set(stream.size());
        g.addCounter("last_retire", "last in-order retire cycle",
                     "cycles")
            .set(last_retire);
        g.addCounter("last_dispatch", "last dispatch cycle", "cycles")
            .set(last_dispatch);
        g.addCounter("fetch_earliest", "fetch redirect point",
                     "cycles")
            .set(fetch_earliest);
        g.addCounter("last_load_done",
                     "most recent load completion cycle", "cycles")
            .set(last_load_done);
        StatsGroup stall = g.group("stall");
        stall.addCounter("fetch", "fetch stall cycles so far",
                         "cycles")
            .set(stalls.fetch);
        stall.addCounter("window", "window stall cycles so far",
                         "cycles")
            .set(stalls.window);
        stall.addCounter("data", "data stall cycles so far", "cycles")
            .set(stalls.data);
        stall.addCounter("mem_port", "memory-port stall cycles so far",
                         "cycles")
            .set(stalls.memPort);
    });

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const MicroOp &op = stream[i];
        cur_op = i;

        if (core.progressEvery && core.progress && i &&
            i % core.progressEvery == 0)
            core.progress(i, stream.size());

        // Instruction fetch: crossing into a new fetch group costs
        // an I-cache access (free on a hit; a miss stalls fetch).
        const Addr fetch_block = op.pc() & fetch_mask;
        if (fetch_block != cur_fetch_block) {
            cur_fetch_block = fetch_block;
            const Cycle at =
                std::max(fetch_earliest, window.oldest());
            const Cycle iready =
                mem.ifetch(fetch_block, core.fetchBlockBytes, at);
            if (iready > fetch_earliest)
                fetch_earliest = iready;
        }

        // Dispatch: fetch bandwidth, redirect point, window space.
        // Stall attribution measures how far each constraint pushed
        // the dispatch point past the previous one, fetch first.
        const Cycle after_fetch =
            std::max(last_dispatch, fetch_earliest);
        const Cycle constraint =
            std::max(after_fetch, window.oldest());
        stalls.fetch += after_fetch - last_dispatch;
        stalls.window += constraint - after_fetch;
        const Cycle dispatch = fetch.take(constraint);
        last_dispatch = dispatch;
        window_occ.record(window.occupiedAt(dispatch));

        // Operand readiness.
        const OpKind kind = op.kind();
        Cycle ready = dispatch;
        switch (kind) {
          case OpKind::Compute:
            ready = std::max(ready, last_load_done);
            break;
          case OpKind::Load:
            if (op.dependsOnPrevLoad())
                ready = std::max(ready, last_load_done);
            break;
          case OpKind::Store:
          case OpKind::Branch:
            ready = std::max(ready, last_compute_done);
            break;
        }

        stalls.data += ready - dispatch;

        // Issue: in-order cores cannot start an op before its
        // predecessors have started; OOO cores may.
        Cycle start = ready;
        if (!core.outOfOrder) {
            start = std::max(start, last_start);
            last_start = start;
        }
        if (kind == OpKind::Load || kind == OpKind::Store) {
            const Cycle before_port = start;
            start = std::max(start, lsq.oldest());
            start = memPort.take(start);
            stalls.memPort += start - before_port;
            lsq_occ.record(lsq.occupiedAt(start));
        }

        // Execute.
        Cycle complete = start + 1;
        switch (kind) {
          case OpKind::Compute:
            last_compute_done = complete;
            break;
          case OpKind::Load:
            complete = mem.load(op.addr(), op.size(), start);
            last_load_done = complete;
            last_load_addr = op.addr();
            break;
          case OpKind::Store:
            // Data buffered at completion; memory write at retire.
            break;
          case OpKind::Branch: {
            const std::uint64_t b = branch_index++;
            if (mispredicted[b / 64] >> (b % 64) & 1) {
                ++mispredicts;
                fetch_earliest = std::max(
                    fetch_earliest,
                    complete + core.mispredictPenalty);
                if (core.speculativeLoads) {
                    // Wrong-path speculation fetched and executed a
                    // load before the redirect: cache pollution plus
                    // wasted bandwidth (Section 2.1).
                    mem.wrongPathLoad(last_load_addr + wrongPathOffset,
                                      start);
                }
            }
            break;
          }
        }

        // Retire in order.  Each retirement is a forward-progress
        // event; a gap beyond the budget means the machine livelocked
        // (e.g. a memory model returned an absurd ready cycle).
        const Cycle retired =
            retire.take(std::max(complete, last_retire));
        watchdog.advance(retired);
        last_retire = retired;
        window.push(retired);
        if (kind == OpKind::Load || kind == OpKind::Store)
            lsq.push(retired);

        if (kind == OpKind::Store)
            mem.store(op.addr(), op.size(), retired);
    }

    CoreResult result;
    result.cycles = last_retire;
    result.instructions = stream.size();
    result.ipc = last_retire
                     ? static_cast<double>(stream.size()) / last_retire
                     : 0.0;
    result.branches = branch_index;
    result.mispredicts = mispredicts;
    result.stalls = stalls;
    result.windowOcc = window_occ;
    result.lsqOcc = lsq_occ;
    result.mem = mem.stats();
    return result;
}

void
publishCoreStats(StatsGroup &group, const CoreResult &result)
{
    auto &cycles =
        group.addCounter("cycles", "execution time", "cycles");
    cycles.set(result.cycles);
    auto &instructions = group.addCounter(
        "instructions", "retired micro-ops", "ops");
    instructions.set(result.instructions);
    group.addRatio("ipc", "instructions / cycles", instructions,
                   cycles);
    auto &branches = group.addCounter(
        "branches", "conditional branches executed", "ops");
    branches.set(result.branches);
    auto &mispredicts = group.addCounter(
        "mispredicts", "branch mispredictions", "events");
    mispredicts.set(result.mispredicts);
    group.addRatio("mispredict_rate", "mispredicts / branches",
                   mispredicts, branches);

    StatsGroup stall = group.group("stall");
    stall.addCounter("fetch",
                     "dispatch pushed by redirects and I-misses",
                     "cycles")
        .set(result.stalls.fetch);
    stall.addCounter("window", "dispatch pushed by a full window",
                     "cycles")
        .set(result.stalls.window);
    stall.addCounter("data", "issue waiting on operand data",
                     "cycles")
        .set(result.stalls.data);
    stall.addCounter("mem_port",
                     "issue waiting on LSQ space or a memory port",
                     "cycles")
        .set(result.stalls.memPort);

    group
        .addDistribution("window_occupancy",
                         "in-flight ops in the window at dispatch",
                         "ops")
        .set(result.windowOcc);
    group
        .addDistribution("lsq_occupancy",
                         "occupied LSQ slots at memory-op issue",
                         "ops")
        .set(result.lsqOcc);
}

namespace {

void
saveDist(ChkWriter &w, const DistData &d)
{
    w.u64(d.count);
    w.f64(d.sum);
    w.f64(d.sumSq);
    w.f64(d.minv);
    w.f64(d.maxv);
}

void
loadDist(ChkReader &r, DistData &d)
{
    d.count = r.u64();
    d.sum = r.f64();
    d.sumSq = r.f64();
    d.minv = r.f64();
    d.maxv = r.f64();
}

} // namespace

void
saveCoreResult(ChkWriter &w, const CoreResult &result)
{
    w.beginSection(chkTag("CORE"));
    w.u64(result.cycles);
    w.u64(result.instructions);
    w.f64(result.ipc);
    w.u64(result.branches);
    w.u64(result.mispredicts);
    w.u64(result.stalls.fetch);
    w.u64(result.stalls.window);
    w.u64(result.stalls.data);
    w.u64(result.stalls.memPort);
    saveDist(w, result.windowOcc);
    saveDist(w, result.lsqOcc);
    const MemSysStats &m = result.mem;
    w.u64(m.loads);
    w.u64(m.stores);
    w.u64(m.ifetches);
    w.u64(m.iMisses);
    w.u64(m.l1Misses);
    w.u64(m.l2Misses);
    w.u64(m.mshrMerges);
    w.u64(m.wrongPathLoads);
    w.u64(m.dramRowHits);
    w.u64(m.dramRowMisses);
    w.u64(m.dramBusyCycles);
    w.u64(m.l1l2BusBusy);
    w.u64(m.memBusBusy);
    w.u64(m.l1l2BusWait);
    w.u64(m.memBusWait);
    w.u64(m.l1l2BusTransfers);
    w.u64(m.memBusTransfers);
    w.endSection();
}

void
loadCoreResult(ChkReader &r, CoreResult &result)
{
    r.enterSection(chkTag("CORE"));
    result.cycles = r.u64();
    result.instructions = r.u64();
    result.ipc = r.f64();
    result.branches = r.u64();
    result.mispredicts = r.u64();
    result.stalls.fetch = r.u64();
    result.stalls.window = r.u64();
    result.stalls.data = r.u64();
    result.stalls.memPort = r.u64();
    loadDist(r, result.windowOcc);
    loadDist(r, result.lsqOcc);
    MemSysStats &m = result.mem;
    m.loads = r.u64();
    m.stores = r.u64();
    m.ifetches = r.u64();
    m.iMisses = r.u64();
    m.l1Misses = r.u64();
    m.l2Misses = r.u64();
    m.mshrMerges = r.u64();
    m.wrongPathLoads = r.u64();
    m.dramRowHits = r.u64();
    m.dramRowMisses = r.u64();
    m.dramBusyCycles = r.u64();
    m.l1l2BusBusy = r.u64();
    m.memBusBusy = r.u64();
    m.l1l2BusWait = r.u64();
    m.memBusWait = r.u64();
    m.l1l2BusTransfers = r.u64();
    m.memBusTransfers = r.u64();
    r.leaveSection();
}

} // namespace membw
