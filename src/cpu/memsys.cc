#include "cpu/memsys.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace membw {

namespace {

CacheConfig
l1Config(const MemSysConfig &c)
{
    CacheConfig cfg;
    cfg.name = "L1";
    cfg.size = c.l1Size;
    cfg.assoc = c.l1Assoc;
    cfg.blockBytes = c.l1Block;
    cfg.write = WritePolicy::WriteBack;
    cfg.alloc = AllocPolicy::WriteAllocate;
    cfg.repl = ReplPolicy::LRU;
    cfg.taggedPrefetch = c.taggedPrefetch;
    return cfg;
}

CacheConfig
l2Config(const MemSysConfig &c)
{
    CacheConfig cfg;
    cfg.name = "L2";
    cfg.size = c.l2Size;
    cfg.assoc = c.l2Assoc;
    cfg.blockBytes = c.l2Block;
    cfg.write = WritePolicy::WriteBack;
    cfg.alloc = AllocPolicy::WriteAllocate;
    cfg.repl = ReplPolicy::LRU;
    return cfg;
}

CacheConfig
il1Config(const MemSysConfig &c)
{
    CacheConfig cfg = l1Config(c);
    cfg.name = "IL1";
    cfg.size = c.iL1Size;
    cfg.taggedPrefetch = false; // data-side prefetcher only
    return cfg;
}

} // namespace

void
InFlightTable::set(Addr block, Cycle ready)
{
    if ((size_ + 1) * 2 > slots_.size())
        rehash(slots_.empty() ? 64 : slots_.size() * 2);
    std::size_t i = home(block);
    while (slots_[i].block != addrInvalid && slots_[i].block != block)
        i = (i + 1) & mask_;
    if (slots_[i].block == addrInvalid) {
        slots_[i].block = block;
        ++size_;
    }
    slots_[i].ready = ready;
}

bool
InFlightTable::takePresent(Addr block, Cycle &ready)
{
    std::size_t hole = home(block);
    while (slots_[hole].block != block) {
        if (slots_[hole].block == addrInvalid)
            return false;
        hole = (hole + 1) & mask_;
    }
    ready = slots_[hole].ready;
    // Backward shift: pull each later entry of the probe run into
    // the hole when the hole lies between its home and its slot.
    for (std::size_t j = (hole + 1) & mask_;
         slots_[j].block != addrInvalid; j = (j + 1) & mask_) {
        const std::size_t h = home(slots_[j].block);
        if (((j - h) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
}

void
InFlightTable::eraseUpTo(Cycle when)
{
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.size());
    size_ = 0;
    for (const Slot &s : old)
        if (s.block != addrInvalid && s.ready > when)
            set(s.block, s.ready);
}

void
InFlightTable::rehash(std::size_t slots)
{
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(slots);
    mask_ = slots - 1;
    shift_ = 64 - floorLog2(slots);
    size_ = 0;
    for (const Slot &s : old)
        if (s.block != addrInvalid)
            set(s.block, s.ready);
}

MemorySystem::MemorySystem(const MemSysConfig &config)
    : config_(config),
      l1l2Bus_(config.l1l2BusBytes, config.busRatio,
               config.mode != MemMode::Full),
      memBus_(config.memBusBytes, config.busRatio,
              config.mode != MemMode::Full)
{
    if (config.mode == MemMode::Perfect) {
        // Every access hits: no cache is built, but a geometry that
        // would not build still fails here.
        validate(config);
        return;
    }
    l1_ = std::make_unique<Cache>(l1Config(config));
    l2_ = std::make_unique<Cache>(l2Config(config));
    // L2's misses and write-backs go to main memory: accumulate the
    // byte counts so the enclosing L1 event can be costed.
    l2_->setBelow(&MemorySystem::memFetch,
                  &MemorySystem::memWriteback, this);

    if (config.splitL1)
        il1_ = std::make_unique<Cache>(il1Config(config));
    if (config.dram && config.mode == MemMode::Full)
        dram_ = std::make_unique<DramModel>(*config.dram);

    // L1 (and IL1) fills and write-backs run through the functional
    // L2 and are recorded as events for the timing interpreter.
    installBelow(*l1_);
    if (il1_)
        installBelow(*il1_);
}

void
MemorySystem::validate(const MemSysConfig &config)
{
    l1Config(config).validate();
    l2Config(config).validate();
    if (config.splitL1)
        il1Config(config).validate();
}

void
MemorySystem::installBelow(Cache &cache)
{
    cache.setBelow(&MemorySystem::l1Fetch,
                   &MemorySystem::l1Writeback, this);
}

void
MemorySystem::memFetch(void *ctx, Addr, Bytes bytes)
{
    static_cast<MemorySystem *>(ctx)->memFetchAcc_ += bytes;
}

void
MemorySystem::memWriteback(void *ctx, Addr, Bytes bytes)
{
    static_cast<MemorySystem *>(ctx)->memWritebackAcc_ += bytes;
}

void
MemorySystem::l1Fetch(void *ctx, Addr addr, Bytes bytes)
{
    auto *self = static_cast<MemorySystem *>(ctx);
    const Bytes mf0 = self->memFetchAcc_;
    const Bytes mw0 = self->memWritebackAcc_;
    const AccessResult r =
        self->l2_->access(MemRef{addr, bytes, RefKind::Load});
    FetchEvent ev;
    ev.addr = addr;
    ev.bytes = bytes;
    ev.l2Hit = r.hit;
    ev.memFetch = self->memFetchAcc_ - mf0;
    ev.memWriteback = self->memWritebackAcc_ - mw0;
    self->fetchEvents_.push_back(ev);
}

void
MemorySystem::l1Writeback(void *ctx, Addr addr, Bytes bytes)
{
    auto *self = static_cast<MemorySystem *>(ctx);
    const Bytes mf0 = self->memFetchAcc_;
    const Bytes mw0 = self->memWritebackAcc_;
    self->l2_->access(MemRef{addr, bytes, RefKind::Store});
    WritebackEvent ev;
    ev.bytes = bytes;
    ev.memFetch = self->memFetchAcc_ - mf0;
    ev.memWriteback = self->memWritebackAcc_ - mw0;
    self->writebackEvents_.push_back(ev);
}

MemorySystem::~MemorySystem() = default;

const CacheStats &
MemorySystem::noCacheStats()
{
    static const CacheStats zero{};
    return zero;
}

void
MemorySystem::checkPerfectRef(Addr addr, Bytes size, bool ifetch) const
{
    // Cache::access's span test and message, without the cache.
    const Addr block = ~(static_cast<Addr>(config_.l1Block) - 1);
    if ((addr & block) != ((addr + size - 1) & block))
        fatal(std::string(ifetch && config_.splitL1 ? "IL1" : "L1") +
              ": reference spans a block boundary");
}

AccessResult
MemorySystem::functionalAccess(Cache &cache, const MemRef &ref)
{
    fetchEvents_.clear();
    writebackEvents_.clear();
    return cache.access(ref);
}

Cycle
MemorySystem::acquireMissPort(Addr block, Cycle when, bool &merged,
                              Cycle &mergedReady)
{
    merged = false;
    if (!config_.lockupFree) {
        // Blocking cache: one outstanding miss; hits under miss are
        // still serviced (Section 3.1).
        return std::max(when, blockingFreeAt_);
    }

    // Lockup-free: merge with an in-flight miss to the same block.
    for (const Outstanding &o : outstanding_) {
        if (o.block == block && o.freeAt > when) {
            merged = true;
            mergedReady = std::max(o.dataReady, when);
            stats_.mshrMerges++;
            return when;
        }
    }

    // Drop retired entries; if all MSHRs are busy, wait for the
    // earliest to free.
    std::erase_if(outstanding_,
                  [when](const Outstanding &o) { return o.freeAt <= when; });
    if (outstanding_.size() >= config_.mshrs) {
        auto earliest = std::min_element(
            outstanding_.begin(), outstanding_.end(),
            [](const Outstanding &a, const Outstanding &b) {
                return a.freeAt < b.freeAt;
            });
        const Cycle wait = earliest->freeAt;
        outstanding_.erase(earliest);
        return std::max(when, wait);
    }
    return when;
}

void
MemorySystem::releaseMissPort(Addr block, Cycle dataReady, Cycle freeAt)
{
    if (!config_.lockupFree) {
        blockingFreeAt_ = freeAt;
        // Keep the single in-flight miss visible so hits to the
        // missing block itself wait for its data.
        outstanding_.clear();
        outstanding_.push_back(Outstanding{block, dataReady, freeAt});
        return;
    }
    outstanding_.push_back(Outstanding{block, dataReady, freeAt});
}

DramAccess
MemorySystem::dramService(Addr addr, Bytes bytes, Cycle ready)
{
    if (dram_)
        return dram_->access(addr, bytes, ready);
    DramAccess flat;
    flat.firstBeat = ready + config_.memAccessCycles;
    flat.done = flat.firstBeat;
    return flat;
}

Cycle
MemorySystem::missTiming(Cycle reqStart, const FetchEvent &demand)
{
    // Request trip to the (off-chip) L2 plus the L2 array access.
    Cycle at_l2 = reqStart + config_.busRatio + config_.l2AccessCycles;

    if (!demand.l2Hit) {
        // Multiplexed memory bus: one address beat, the DRAM access
        // (flat infinite-bank latency, or the banked row-buffer
        // model), then the data beats.
        const BusTransfer addr_tx = memBus_.transfer(at_l2, 0, 1);
        const DramAccess da = dramService(
            demand.addr, config_.l2Block,
            std::max(addr_tx.done, at_l2));
        const BusTransfer data_tx =
            memBus_.transfer(da.firstBeat, config_.l2Block);
        // Critical word forwards through the L2; the slower of the
        // chip interface and the bus governs it.
        at_l2 = std::max(data_tx.firstBeat, da.firstBeat + 1);
    }

    // L1 fill over the L1/L2 bus; critical word first.
    const BusTransfer fill_tx = l1l2Bus_.transfer(at_l2, demand.bytes);
    return fill_tx.firstBeat;
}

void
MemorySystem::backgroundTiming(Cycle when, bool skipFirstFetch)
{
    bool first = true;
    for (const FetchEvent &ev : fetchEvents_) {
        if (first && skipFirstFetch) {
            first = false;
            continue;
        }
        first = false;
        Cycle at_l2 = when + config_.busRatio + config_.l2AccessCycles;
        if (!ev.l2Hit) {
            const BusTransfer addr_tx = memBus_.transfer(at_l2, 0, 1);
            const DramAccess da = dramService(
                ev.addr, ev.memFetch, std::max(addr_tx.done, at_l2));
            const BusTransfer data_tx =
                memBus_.transfer(da.firstBeat, ev.memFetch);
            at_l2 = std::max(data_tx.done, da.done);
        }
        if (ev.memWriteback)
            memBus_.transfer(at_l2, ev.memWriteback, 1);
        const BusTransfer fill_tx = l1l2Bus_.transfer(at_l2, ev.bytes);

        // Remember when this (prefetch) fill actually lands so a
        // demand reference to it waits for the data, not one cycle.
        if (config_.taggedPrefetch) {
            if (prefetchInFlight_.size() > 4096)
                prefetchInFlight_.eraseUpTo(when);
            const Addr block =
                ev.addr &
                ~(static_cast<Addr>(config_.l1Block) - 1);
            prefetchInFlight_.set(block, fill_tx.done);
        }
    }

    for (const WritebackEvent &ev : writebackEvents_) {
        l1l2Bus_.transfer(when, ev.bytes);
        if (ev.memFetch)
            memBus_.transfer(when, ev.memFetch, 1);
        if (ev.memWriteback)
            memBus_.transfer(when, ev.memWriteback, 1);
    }
}

Cycle
MemorySystem::load(Addr addr, Bytes size, Cycle when)
{
    stats_.loads++;
    if (config_.mode == MemMode::Perfect) {
        checkPerfectRef(addr, size, false);
        return when + 1;
    }
    const AccessResult result =
        functionalAccess(*l1_, MemRef{addr, size, RefKind::Load});

    if (result.hit) {
        // Prefetches or partial activity triggered by a hit only
        // consume bandwidth.
        backgroundTiming(when + 1, false);

        const Addr hit_block =
            addr & ~(static_cast<Addr>(config_.l1Block) - 1);

        // A "hit" on a block whose demand miss is still in flight
        // (the functional fill is instantaneous) completes when the
        // data actually lands — an MSHR merge.
        for (const Outstanding &o : outstanding_) {
            if (o.block == hit_block && o.dataReady > when + 1) {
                stats_.mshrMerges++;
                return o.dataReady;
            }
        }

        // Likewise for a block the prefetcher is still bringing in.
        Cycle ready = 0;
        if (prefetchInFlight_.take(hit_block, ready) && ready > when + 1)
            return ready;
        return when + 1;
    }

    stats_.l1Misses++;
    const Addr block = addr & ~(static_cast<Addr>(config_.l1Block) - 1);

    bool merged = false;
    Cycle merged_ready = 0;
    const Cycle req_start =
        acquireMissPort(block, when + 1, merged, merged_ready);
    if (merged) {
        backgroundTiming(when + 1, false);
        return merged_ready;
    }

    if (fetchEvents_.empty())
        panic("L1 miss produced no fetch event");
    const FetchEvent &demand = fetchEvents_.front();
    if (!demand.l2Hit)
        stats_.l2Misses++;

    const Cycle data_ready = missTiming(req_start, demand);
    // The miss port is held until the full block has been filled; the
    // critical word unblocks the consumer earlier.
    const Cycle full_fill =
        data_ready +
        (config_.mode == MemMode::Full
             ? divCeil(config_.l1Block, config_.l1l2BusBytes) *
                   config_.busRatio
             : 0);
    releaseMissPort(block, data_ready, full_fill);

    // Cost the non-demand events (victim write-backs, prefetches).
    backgroundTiming(data_ready, true);
    return data_ready;
}

Cycle
MemorySystem::ifetch(Addr addr, Bytes bytes, Cycle when)
{
    stats_.ifetches++;
    if (config_.mode == MemMode::Perfect) {
        checkPerfectRef(addr, bytes, true);
        return when;
    }
    Cache &icache = il1_ ? *il1_ : *l1_;
    const AccessResult result = functionalAccess(
        icache, MemRef{addr, bytes, RefKind::Load});

    if (result.hit) {
        backgroundTiming(when, false);
        const Addr hit_block =
            addr & ~(static_cast<Addr>(config_.l1Block) - 1);
        for (const Outstanding &o : outstanding_) {
            if (o.block == hit_block && o.dataReady > when)
                return o.dataReady;
        }
        return when; // covered by the fetch pipeline
    }

    stats_.iMisses++;
    const Addr block = addr & ~(static_cast<Addr>(config_.l1Block) - 1);
    bool merged = false;
    Cycle merged_ready = 0;
    const Cycle req_start =
        acquireMissPort(block, when + 1, merged, merged_ready);
    if (merged) {
        backgroundTiming(when + 1, false);
        return merged_ready;
    }
    if (fetchEvents_.empty())
        panic("I-miss produced no fetch event");
    const FetchEvent &demand = fetchEvents_.front();
    if (!demand.l2Hit)
        stats_.l2Misses++;
    const Cycle data_ready = missTiming(req_start, demand);
    const Cycle full_fill =
        data_ready + (config_.mode == MemMode::Full
                          ? divCeil(config_.l1Block,
                                    config_.l1l2BusBytes) *
                                config_.busRatio
                          : 0);
    releaseMissPort(block, data_ready, full_fill);
    backgroundTiming(data_ready, true);
    return data_ready;
}

void
MemorySystem::store(Addr addr, Bytes size, Cycle when)
{
    stats_.stores++;
    if (config_.mode == MemMode::Perfect) {
        checkPerfectRef(addr, size, false);
        return;
    }
    functionalAccess(*l1_, MemRef{addr, size, RefKind::Store});
    // Infinitely deep write buffer: the store never stalls the core,
    // but its fills and write-backs consume bus bandwidth.
    backgroundTiming(when, false);
}

void
MemorySystem::wrongPathLoad(Addr addr, Cycle when)
{
    stats_.wrongPathLoads++;
    if (config_.mode == MemMode::Perfect) {
        checkPerfectRef(addr, wordBytes, false);
        return;
    }
    functionalAccess(*l1_, MemRef{addr, wordBytes, RefKind::Load});
    backgroundTiming(when, false);
}

MemSysStats
MemorySystem::stats() const
{
    MemSysStats s = stats_;
    s.l1l2BusBusy = l1l2Bus_.busyCycles();
    s.memBusBusy = memBus_.busyCycles();
    s.l1l2BusWait = l1l2Bus_.waitCycles();
    s.memBusWait = memBus_.waitCycles();
    s.l1l2BusTransfers = l1l2Bus_.transfers();
    s.memBusTransfers = memBus_.transfers();
    if (dram_) {
        s.dramRowHits = dram_->stats().rowHits;
        s.dramRowMisses = dram_->stats().rowMisses;
        s.dramBusyCycles = dram_->stats().busyCycles;
    }
    return s;
}

namespace {

void
publishBus(StatsGroup &group, Cycle busy, Cycle wait,
           std::uint64_t transfers)
{
    auto &busyStat = group.addCounter(
        "busy_cycles", "cycles the bus was transferring", "cycles");
    busyStat.set(busy);
    auto &waitStat = group.addCounter(
        "wait_cycles", "cycles transfers queued for the bus",
        "cycles");
    waitStat.set(wait);
    auto &transferStat =
        group.addCounter("transfers", "transfers granted", "events");
    transferStat.set(transfers);
    group.addRatio("mean_queue_wait",
                   "wait_cycles / transfers (mean queue depth proxy)",
                   waitStat, transferStat, "cycles");
}

} // namespace

void
publishMemSysStats(StatsGroup &group, const MemSysStats &stats)
{
    group.addCounter("loads", "timed demand loads", "refs")
        .set(stats.loads);
    group.addCounter("stores", "timed stores", "refs")
        .set(stats.stores);
    group.addCounter("ifetches", "instruction-group fetches", "refs")
        .set(stats.ifetches);
    group.addCounter("i_misses", "instruction fetch misses", "refs")
        .set(stats.iMisses);
    group.addCounter("l1_misses", "L1 data misses", "refs")
        .set(stats.l1Misses);
    group.addCounter("l2_misses", "L2 misses", "refs")
        .set(stats.l2Misses);
    group.addCounter("mshr_merges",
                     "misses merged into an outstanding MSHR",
                     "events")
        .set(stats.mshrMerges);
    group.addCounter("wrong_path_loads",
                     "speculative wrong-path loads issued", "refs")
        .set(stats.wrongPathLoads);

    StatsGroup dram = group.group("dram");
    auto &rowHits = dram.addCounter(
        "row_hits", "accesses hitting an open row", "events");
    rowHits.set(stats.dramRowHits);
    dram.addCounter("row_misses",
                    "accesses needing precharge+activate", "events")
        .set(stats.dramRowMisses);
    auto &rowAccesses = dram.addCounter(
        "accesses", "banked-DRAM accesses (0 = flat-latency model)",
        "events");
    rowAccesses.set(stats.dramRowHits + stats.dramRowMisses);
    dram.addRatio("row_hit_rate", "row_hits / accesses", rowHits,
                  rowAccesses);
    dram.addCounter("busy_cycles", "bank busy time", "cycles")
        .set(stats.dramBusyCycles);

    StatsGroup bus = group.group("bus");
    StatsGroup l1l2 = bus.group("l1l2");
    publishBus(l1l2, stats.l1l2BusBusy, stats.l1l2BusWait,
               stats.l1l2BusTransfers);
    StatsGroup mem = bus.group("mem");
    publishBus(mem, stats.memBusBusy, stats.memBusWait,
               stats.memBusTransfers);
}

} // namespace membw
