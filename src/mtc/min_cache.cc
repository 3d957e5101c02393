#include "mtc/min_cache.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "common/bitops.hh"
#include "common/log.hh"
#include "mtc/next_use.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/checkpoint.hh"

namespace membw {

void
MinCacheConfig::validate() const
{
    if (blockBytes < wordBytes || !isPowerOfTwo(blockBytes))
        fatal("MTC block size must be a power of two >= 4B");
    if (blockBytes > 64 * wordBytes)
        fatal("MTC block size above 256B is unsupported");
    if (size == 0 || size % blockBytes != 0)
        fatal("MTC size must be a non-zero multiple of the block");
    if (alloc == AllocPolicy::WriteNoAllocate)
        fatal("MTC does not support write-no-allocate");
}

std::string
MinCacheConfig::describe() const
{
    return formatSize(size) + "/full/" + formatSize(blockBytes) +
           " MIN-" + toString(alloc) + (allowBypass ? "+bypass" : "");
}

MinCacheSim::MinCacheSim(const Trace &trace, const MinCacheConfig &config)
    : MinCacheSim(trace, config,
                  makeNextUseTable(trace, config.blockBytes))
{
}

MinCacheSim::MinCacheSim(const Trace &trace, const MinCacheConfig &config,
                         NextUseTable nextUse)
    : trace_(trace), config_(config), nextUse_(std::move(nextUse))
{
    config_.validate();
    if (!nextUse_ || nextUse_->ticks.size() != trace_.size())
        fatal("MTC shared next-use table does not match the trace");

    const unsigned words_per_block =
        static_cast<unsigned>(config_.blockBytes / wordBytes);
    fullMask_ = words_per_block == 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << words_per_block) - 1;
    capacity_ = config_.blocks();
    resetResident();
}

Bytes
MinCacheSim::writebackSize(const Slot &slot) const
{
    if (slot.dirtyMask == 0)
        return 0;
    if (config_.alloc == AllocPolicy::WriteValidate)
        return static_cast<Bytes>(std::popcount(slot.dirtyMask)) *
               wordBytes;
    return config_.blockBytes;
}

void
MinCacheSim::resetResident()
{
    slots_.clear();
    // Residency is bounded by both the capacity and the number of
    // distinct blocks the trace can touch (the pool still grows on
    // demand if a restore exceeds the estimate).
    slots_.reserve(std::min<std::size_t>(capacity_, trace_.size()));
    freeList_.clear();
    resident_ = 0;
    nuBits_.init(trace_.size());
    nuOwner_.assign(trace_.size(), 0);
    deadBits_.init(nextUse_->deadRank.size());
    deadOwner_.assign(nextUse_->deadRank.size(), 0);
}

std::uint32_t
MinCacheSim::allocSlot()
{
    std::uint32_t i;
    if (!freeList_.empty()) {
        i = freeList_.back();
        freeList_.pop_back();
    } else {
        i = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[i] = Slot{};
    slots_[i].used = true;
    resident_++;
    return i;
}

void
MinCacheSim::freeSlot(std::uint32_t i)
{
    slots_[i].used = false;
    freeList_.push_back(i);
    resident_--;
}

void
MinCacheSim::MaxBitmap::init(std::size_t bits)
{
    levels_.clear();
    std::size_t words = (bits + 63) / 64;
    if (words == 0)
        words = 1;
    for (;;) {
        levels_.emplace_back(words, 0);
        if (words == 1)
            break;
        words = (words + 63) / 64;
    }
}

void
MinCacheSim::MaxBitmap::set(std::size_t i)
{
    for (auto &level : levels_) {
        level[i >> 6] |= std::uint64_t{1} << (i & 63);
        i >>= 6;
    }
}

void
MinCacheSim::MaxBitmap::clear(std::size_t i)
{
    for (auto &level : levels_) {
        std::uint64_t &word = level[i >> 6];
        word &= ~(std::uint64_t{1} << (i & 63));
        if (word != 0)
            break;
        i >>= 6;
    }
}

bool
MinCacheSim::MaxBitmap::test(std::size_t i) const
{
    return levels_[0][i >> 6] & (std::uint64_t{1} << (i & 63));
}

bool
MinCacheSim::MaxBitmap::findMax(std::size_t &out) const
{
    if (levels_.back()[0] == 0)
        return false;
    std::size_t i = 0;
    for (std::size_t l = levels_.size(); l-- > 0;) {
        const std::uint64_t word = levels_[l][i];
        i = (i << 6) +
            (63 - static_cast<std::size_t>(std::countl_zero(word)));
    }
    out = i;
    return true;
}

bool
MinCacheSim::MaxBitmap::findBelow(std::size_t i, std::size_t &out) const
{
    // Climb until some level has a set bit below i's ancestor in the
    // same word, then descend along the highest set bits.
    for (std::size_t l = 0; l < levels_.size(); ++l, i >>= 6) {
        const std::uint64_t word =
            levels_[l][i >> 6] & ((std::uint64_t{1} << (i & 63)) - 1);
        if (word == 0)
            continue;
        i = (i & ~std::size_t{63}) +
            (63 - static_cast<std::size_t>(std::countl_zero(word)));
        while (l-- > 0)
            i = (i << 6) + (63 - static_cast<std::size_t>(
                                     std::countl_zero(levels_[l][i])));
        out = i;
        return true;
    }
    return false;
}

void
MinCacheSim::keyInsert(Tick nu, std::uint32_t rank, std::uint32_t slot)
{
    if (nu == tickInfinity) {
        deadBits_.set(rank);
        deadOwner_[rank] = slot;
    } else {
        nuBits_.set(static_cast<std::size_t>(nu));
        nuOwner_[static_cast<std::size_t>(nu)] = slot;
    }
}

void
MinCacheSim::accessOne(const MemRef &ref, Tick nu)
{
    const Bytes block_bytes = config_.blockBytes;
    const Addr block = alignDown(ref.addr, block_bytes);
    if (alignDown(ref.addr + ref.size - 1, block_bytes) != block)
        fatal("MTC reference spans a block boundary");

    auto words_mask = [&] {
        const unsigned first =
            static_cast<unsigned>((ref.addr - block) / wordBytes);
        const unsigned last = static_cast<unsigned>(
            (ref.addr + ref.size - 1 - block) / wordBytes);
        std::uint64_t mask = 0;
        for (unsigned w = first; w <= last; ++w)
            mask |= std::uint64_t{1} << w;
        return mask;
    };
    const std::uint64_t words = words_mask();

    stats_.accesses++;
    stats_.requestBytes += ref.size;

    // A dead position takes the next address rank in trace order,
    // whether the block ends up cached or bypassed.
    std::uint32_t rank = 0;
    if (nu == tickInfinity)
        rank = nextUse_->deadRank[deadOrdinal_++];

    // Residency test without a lookup: the current position is, by
    // construction, the recorded next use of the block it references
    // — so the reference hits iff the victim-order bit for this very
    // tick is set, and nuOwner_ names the resident copy.
    if (nuBits_.test(cursor_)) {
        const std::uint32_t idx = nuOwner_[cursor_];
        Slot &entry = slots_[idx];
        assert(entry.used && entry.addr == block &&
               entry.nextUse == static_cast<Tick>(cursor_));
        nuBits_.clear(cursor_);
        entry.nextUse = nu;
        keyInsert(nu, rank, idx);

        if (ref.isLoad()) {
            const std::uint64_t missing = words & ~entry.validMask;
            if (missing) {
                const Bytes bytes =
                    static_cast<Bytes>(std::popcount(missing)) *
                    wordBytes;
                stats_.fetchBytes += bytes;
                entry.validMask |= missing;
            }
        } else {
            entry.validMask |= words;
            entry.dirtyMask |= words;
        }
        stats_.hits++;
        return;
    }

    stats_.misses++;

    if (resident_ == capacity_) {
        // The furthest-referenced resident block: any
        // never-referenced-again block outranks every finite key,
        // with the highest address (rank) first among them;
        // otherwise the owner of the highest finite tick.
        std::size_t top = 0;
        const bool dead = deadBits_.findMax(top);
        if (!dead) {
            const bool any = nuBits_.findMax(top);
            assert(any);
            (void)any;
        }

        if (config_.allowBypass && !dead && nu > static_cast<Tick>(top)) {
            // The incoming block is the lowest-priority block:
            // service the request without caching it.
            stats_.bypasses++;
            if (ref.isLoad())
                stats_.fetchBytes += ref.size;
            else
                stats_.writebackBytes += ref.size;
            return;
        }

        std::uint32_t victim;
        if (dead) {
            // The write-aware scan walks down from the victim through
            // up to 31 runners-up in descending address order, looking
            // for a clean block whose eviction saves a write-back
            // without adding any future miss.  Without a clean one
            // the top candidate goes.
            std::size_t chosen = top;
            std::size_t scanned = 1;
            if (config_.writeAware) {
                for (std::size_t r = top;;) {
                    if (slots_[deadOwner_[r]].dirtyMask == 0) {
                        chosen = r;
                        break;
                    }
                    if (scanned == 32 || !deadBits_.findBelow(r, r))
                        break;
                    scanned++;
                }
            }
            victim = deadOwner_[chosen];
            deadBits_.clear(chosen);
            victimScanPops_ += scanned;
            MEMBW_PROBE(probe_, onMtcScan(scanned));
        } else {
            victim = nuOwner_[top];
            nuBits_.clear(top);
        }

        stats_.writebackBytes += writebackSize(slots_[victim]);
        freeSlot(victim);
    }

    const std::uint32_t idx = allocSlot();
    Slot &entry = slots_[idx];
    entry.addr = block;
    entry.nextUse = nu;
    if (ref.isLoad()) {
        entry.validMask = fullMask_;
        stats_.fetchBytes += config_.blockBytes;
    } else if (config_.alloc == AllocPolicy::WriteAllocate) {
        entry.validMask = fullMask_;
        entry.dirtyMask = words;
        stats_.fetchBytes += config_.blockBytes;
    } else { // WriteValidate: allocate without fetching.
        entry.validMask = words;
        entry.dirtyMask = words;
        stats_.validates++;
    }
    keyInsert(nu, rank, idx);
}

void
MinCacheSim::step(std::size_t n)
{
    const std::size_t end =
        cursor_ + std::min(n, trace_.size() - cursor_);
    const std::vector<Tick> &nextUse = nextUse_->ticks;
    auto advance = [&] {
        for (; cursor_ < end; ++cursor_)
            accessOne(trace_[cursor_], nextUse[cursor_]);
    };
    // Trace only the slices that cross a counter stride or finish
    // the trace, so small slices cannot flood the thread's ring.
    if (!crossesCounterStride(cursor_, end) && end != trace_.size()) {
        advance();
        return;
    }
    MEMBW_SPAN("mtc.step");
    advance();
    tracingCounter("mtc.victim_scan_pops",
                   static_cast<double>(victimScanPops_));
}

MinCacheStats
MinCacheSim::finalize() const
{
    // Program completion: flush all dirty data (Section 4.1).
    MinCacheStats stats = stats_;
    for (const Slot &slot : slots_)
        if (slot.used)
            stats.flushWritebackBytes += writebackSize(slot);
    return stats;
}

MinCacheStats
MinCacheSim::run()
{
    step(trace_.size() - cursor_);
    return finalize();
}

void
MinCacheSim::saveState(ChkWriter &w) const
{
    w.beginSection(chkTag("MTCS"));

    // Identity guard: the checkpoint only restores over the same
    // trace and configuration.
    w.u64(config_.size);
    w.u64(config_.blockBytes);
    w.u8(static_cast<std::uint8_t>(config_.alloc));
    w.u8(config_.allowBypass ? 1 : 0);
    w.u8(config_.writeAware ? 1 : 0);
    w.u64(trace_.size());

    w.u64(cursor_);
    w.u64(stats_.accesses);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    w.u64(stats_.bypasses);
    w.u64(stats_.validates);
    w.u64(stats_.requestBytes);
    w.u64(stats_.fetchBytes);
    w.u64(stats_.writebackBytes);
    w.u64(stats_.flushWritebackBytes);
    w.u64(victimScanPops_);

    // Resident set sorted by (nextUse, addr): the image is
    // deterministic (and matches what the earlier ordered-set
    // implementation wrote) even though neither backing container
    // iterates in that order.
    std::vector<std::array<std::uint64_t, 4>> rows;
    rows.reserve(resident_);
    for (const Slot &slot : slots_)
        if (slot.used)
            rows.push_back({slot.nextUse, slot.addr, slot.validMask,
                            slot.dirtyMask});
    std::sort(rows.begin(), rows.end());
    w.u64(rows.size());
    for (const auto &row : rows)
        for (const std::uint64_t v : row)
            w.u64(v);

    w.endSection();
}

void
MinCacheSim::loadState(ChkReader &r)
{
    r.enterSection(chkTag("MTCS"));

    const std::uint64_t size = r.u64();
    const std::uint64_t block = r.u64();
    const std::uint8_t alloc = r.u8();
    const std::uint8_t bypass = r.u8();
    const std::uint8_t aware = r.u8();
    const std::uint64_t refs = r.u64();
    if (r.failed())
        return;
    if (size != config_.size || block != config_.blockBytes ||
        alloc != static_cast<std::uint8_t>(config_.alloc) ||
        bypass != (config_.allowBypass ? 1 : 0) ||
        aware != (config_.writeAware ? 1 : 0)) {
        r.fail(Errc::Mismatch,
               "MTC checkpoint was taken with a different "
               "configuration (" +
                   config_.describe() + " expected)");
        return;
    }
    if (refs != trace_.size()) {
        r.fail(Errc::Mismatch,
               "MTC checkpoint covers a " + std::to_string(refs) +
                   "-reference trace; this trace has " +
                   std::to_string(trace_.size()));
        return;
    }

    cursor_ = static_cast<std::size_t>(r.u64());
    stats_ = MinCacheStats{};
    stats_.accesses = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    stats_.bypasses = r.u64();
    stats_.validates = r.u64();
    stats_.requestBytes = r.u64();
    stats_.fetchBytes = r.u64();
    stats_.writebackBytes = r.u64();
    stats_.flushWritebackBytes = r.u64();
    victimScanPops_ = r.u64();
    if (cursor_ > trace_.size()) {
        r.fail(Errc::Corrupt,
               "MTC cursor lies beyond the end of the trace");
        return;
    }

    const std::uint64_t resident = r.u64();
    if (r.failed())
        return;
    if (resident > capacity_ || resident > r.remaining() / 32) {
        r.fail(Errc::Corrupt,
               "MTC resident count " + std::to_string(resident) +
                   " exceeds the cache capacity");
        return;
    }
    resetResident();
    std::vector<Addr> seen;
    seen.reserve(static_cast<std::size_t>(resident));
    // Dead blocks wait for their ranks: (address, slot).
    std::vector<std::pair<Addr, std::uint32_t>> dead;
    for (std::uint64_t i = 0; i < resident && !r.failed(); ++i) {
        const Tick nu = r.u64();
        const Addr addr = r.u64();
        const std::uint64_t valid = r.u64();
        const std::uint64_t dirty = r.u64();
        // The victim-order structures rely on finite next uses being
        // in-range and unique (position t references one block);
        // anything else is not a state this simulation can produce.
        if (nu != tickInfinity &&
            (nu >= trace_.size() ||
             nuBits_.test(static_cast<std::size_t>(nu)))) {
            r.fail(Errc::Corrupt,
                   "MTC checkpoint has an invalid next-use key");
            return;
        }
        const std::uint32_t idx = allocSlot();
        Slot &slot = slots_[idx];
        slot.addr = addr;
        slot.nextUse = nu;
        slot.validMask = valid;
        slot.dirtyMask = dirty;
        if (nu == tickInfinity)
            dead.emplace_back(addr, idx);
        else
            keyInsert(nu, 0, idx);
        seen.push_back(addr);
    }
    if (r.failed())
        return;
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
        r.fail(Errc::Corrupt,
               "MTC checkpoint repeats a resident block");
        return;
    }

    // Recount the cursor's ordinal into deadRank and give each dead
    // block the rank of its last reference, which must lie before
    // the cursor: a block still to be referenced is not dead.
    const std::vector<Tick> &ticks = nextUse_->ticks;
    const auto &ranks = nextUse_->deadRank;
    std::sort(dead.begin(), dead.end());
    std::size_t placed = 0;
    deadOrdinal_ = 0;
    for (std::size_t k = 0; k < cursor_; ++k) {
        if (ticks[k] != tickInfinity)
            continue;
        const Addr block = alignDown(trace_[k].addr, config_.blockBytes);
        auto it = std::lower_bound(
            dead.begin(), dead.end(),
            std::make_pair(block, std::uint32_t{0}));
        if (it != dead.end() && it->first == block) {
            keyInsert(tickInfinity, ranks[deadOrdinal_], it->second);
            placed++;
        }
        deadOrdinal_++;
    }
    if (placed != dead.size()) {
        r.fail(Errc::Corrupt,
               "MTC checkpoint keys a block as never used again, but "
               "the trace uses it again or never used it before the "
               "cursor");
        return;
    }

    r.leaveSection();
}

MinCacheStats
runMinCache(const Trace &trace, const MinCacheConfig &config)
{
    return MinCacheSim(trace, config).run();
}

MinCacheStats
runMinCache(const Trace &trace, const MinCacheConfig &config,
            NextUseTable nextUse)
{
    return MinCacheSim(trace, config, std::move(nextUse)).run();
}

void
publishMinCacheStats(StatsGroup &group, const MinCacheStats &stats)
{
    auto &accesses = group.addCounter(
        "accesses", "references presented to the MTC", "refs");
    accesses.set(stats.accesses);
    group.addCounter("hits", "MIN-cache hits", "refs")
        .set(stats.hits);
    auto &misses =
        group.addCounter("misses", "MIN-cache misses", "refs");
    misses.set(stats.misses);
    group.addCounter("bypasses",
                     "misses serviced without caching (footnote 2)",
                     "refs")
        .set(stats.bypasses);
    group.addCounter("validates",
                     "write-validate allocations without a fetch",
                     "events")
        .set(stats.validates);
    group.addRatio("miss_rate", "misses / accesses", misses,
                   accesses);

    StatsGroup bytes = group.group("bytes");
    auto &request = bytes.addCounter(
        "request", "traffic above the MTC (D_0)", "bytes");
    request.set(stats.requestBytes);
    bytes.addCounter("fetch", "fills and bypass load transfers",
                     "bytes")
        .set(stats.fetchBytes);
    bytes.addCounter("writeback",
                     "dirty evictions and bypassed stores", "bytes")
        .set(stats.writebackBytes);
    bytes.addCounter("flush_writeback", "end-of-run dirty flush",
                     "bytes")
        .set(stats.flushWritebackBytes);
    auto &below = bytes.addCounter(
        "below", "minimal traffic below the cache", "bytes");
    below.set(stats.trafficBelow());
    group.addRatio("traffic_ratio",
                   "minimal R = bytes.below / bytes.request", below,
                   request);
}

MinCacheConfig
canonicalMtc(Bytes size)
{
    MinCacheConfig config;
    config.size = size;
    config.blockBytes = wordBytes;
    config.alloc = AllocPolicy::WriteValidate;
    config.allowBypass = true;
    return config;
}

} // namespace membw
