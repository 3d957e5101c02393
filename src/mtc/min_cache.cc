#include "mtc/min_cache.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>
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

namespace {

/** Every word of a block of @p blockBytes (1 to 64 words). */
std::uint64_t
fullMask(Bytes blockBytes)
{
    return ~std::uint64_t{0} >> (64 - blockBytes / wordBytes);
}

/** Bytes written back when a block with dirty words @p dirty leaves. */
Bytes
writebackSize(std::uint64_t dirty, bool validate, Bytes blockBytes)
{
    if (dirty == 0)
        return 0;
    return validate ? static_cast<Bytes>(std::popcount(dirty)) * wordBytes
                    : blockBytes;
}

/** A resident block's valid and dirty words. */
struct Masks
{
    std::uint64_t valid;
    std::uint64_t dirty;
};

/** Word blocks: a one-word block is wholly valid, so its state is
 * its dirty bit.  A key is stored once between resets (one trace
 * position leads to each), so a store sets a zero bit. */
struct WordCells
{
    static constexpr std::size_t bitsPerKey = 1;

    static Masks
    load(const std::uint64_t *s, std::size_t k)
    {
        return {1, (s[k >> 6] >> (k & 63)) & 1};
    }
    static void
    store(std::uint64_t *s, std::size_t k, Masks m)
    {
        s[k >> 6] |= std::uint64_t{m.dirty != 0} << (k & 63);
    }
};

/** Blocks of several words: both masks, as bytes for blocks of up to
 * eight words (the paper's 32 B blocks) and as words above that. */
template <class M>
struct MaskCells
{
    static constexpr std::size_t bitsPerKey = 16 * sizeof(M);

    static Masks
    load(const std::uint64_t *s, std::size_t k)
    {
        M m[2] = {};
        std::memcpy(m, reinterpret_cast<const char *>(s) + k * sizeof m,
                    sizeof m);
        return {m[0], m[1]};
    }
    static void
    store(std::uint64_t *s, std::size_t k, Masks v)
    {
        const M m[2] = {static_cast<M>(v.valid), static_cast<M>(v.dirty)};
        std::memcpy(reinterpret_cast<char *>(s) + k * sizeof m, m,
                    sizeof m);
    }
};

/** Call @p f with the cell layout of @p blockBytes blocks. */
template <class F>
void
withCells(Bytes blockBytes, F &&f)
{
    const Bytes words = blockBytes / wordBytes;
    if (words == 1)
        f(WordCells{});
    else if (words <= 8)
        f(MaskCells<std::uint8_t>{});
    else
        f(MaskCells<std::uint64_t>{});
}

} // namespace

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
    capacity_ = config_.blocks();
    resetResident();
}

void
MinCacheSim::resetResident()
{
    resident_ = 0;
    nuBits_.init(trace_.size());
    deadBits_.init(nextUse_->deadRank.size());
    std::size_t bits = 0;
    withCells(config_.blockBytes,
              [&](auto cells) { bits = decltype(cells)::bitsPerKey; });
    state_.assign(
        ((trace_.size() + nextUse_->deadRank.size()) * bits + 63) / 64, 0);
}

template <class Cells>
void
MinCacheSim::replay(std::size_t end)
{
    const MemRef *const refs = trace_.data();
    const Tick *const ticks = nextUse_->ticks.data();
    const std::uint32_t *const ranks = nextUse_->deadRank.data();
    std::uint64_t *const state = state_.data();
    const std::size_t deadBase = trace_.size(); // key of dead rank 0
    const Bytes blockBytes = config_.blockBytes;
    const std::uint64_t full = fullMask(blockBytes);
    const bool validate = config_.alloc == AllocPolicy::WriteValidate;

    // The slice runs on locals, stored back at its end, so stats()
    // stays monotonic between slices.
    MinCacheStats s = stats_;
    std::uint64_t pops = victimScanPops_;
    std::size_t resident = resident_;
    std::size_t ordinal = deadOrdinal_;
    std::size_t i = cursor_;
    for (; i < end; ++i) {
        const MemRef &ref = refs[i];
        const Addr block = alignDown(ref.addr, blockBytes);
        if (alignDown(ref.addr + ref.size - 1, blockBytes) != block)
            break; // fatal once the locals are stored
        std::uint64_t words = 1;
        if constexpr (!std::is_same_v<Cells, WordCells>) {
            // Words first..last of the block (last <= 63: blocks are
            // at most 64 words).
            const unsigned first =
                static_cast<unsigned>((ref.addr - block) / wordBytes);
            const unsigned last = static_cast<unsigned>(
                (ref.addr + ref.size - 1 - block) / wordBytes);
            words = (~std::uint64_t{0} >> (63 - last)) &
                    (~std::uint64_t{0} << first);
        }
        const bool load = ref.isLoad();
        s.requestBytes += ref.size;

        // The block's key after this reference.  A dead position
        // takes the next address rank in trace order, whether the
        // block ends up cached or bypassed.
        const Tick nu = ticks[i];
        const bool dead = nu == tickInfinity;
        const std::size_t key =
            dead ? deadBase + ranks[ordinal++] : static_cast<std::size_t>(nu);

        Masks m{};
        if (nuBits_.test(i)) {
            // Residency test without a lookup: position i is, by
            // construction, the recorded next use of the block it
            // references, so the bit at i is set iff that block is
            // resident, and its state is at i.
            nuBits_.clear(i);
            m = Cells::load(state, i);
            if (load)
                s.fetchBytes +=
                    static_cast<Bytes>(std::popcount(words & ~m.valid)) *
                    wordBytes;
            else
                m.dirty |= words;
            m.valid |= words;
            s.hits++;
        } else {
            s.misses++;
            if (resident == capacity_) {
                // The furthest-referenced resident block: any
                // never-referenced-again block outranks every finite
                // key, with the highest address (rank) first among
                // them; otherwise the highest finite tick.
                std::size_t top = 0;
                const bool topDead = deadBits_.findMax(top);
                if (!topDead)
                    nuBits_.findMax(top); // a full cache holds a key

                if (config_.allowBypass && !topDead &&
                    nu > static_cast<Tick>(top)) {
                    // The incoming block is the lowest-priority block:
                    // service the request without caching it.
                    s.bypasses++;
                    (load ? s.fetchBytes : s.writebackBytes) += ref.size;
                    continue;
                }

                std::size_t victim = top;
                if (topDead) {
                    // The write-aware scan walks down from the victim
                    // through up to 31 runners-up in descending
                    // address order, looking for a clean block whose
                    // eviction saves a write-back without adding any
                    // future miss.  Without a clean one the top
                    // candidate goes.
                    std::size_t chosen = top;
                    std::size_t scanned = 1;
                    if (config_.writeAware) {
                        for (std::size_t r = top;;) {
                            if (!Cells::load(state, deadBase + r).dirty) {
                                chosen = r;
                                break;
                            }
                            if (scanned == 32 || !deadBits_.findBelow(r, r))
                                break;
                            scanned++;
                        }
                    }
                    deadBits_.clear(chosen);
                    victim = deadBase + chosen;
                    pops += scanned;
                    MEMBW_PROBE(probe_, onMtcScan(scanned));
                } else {
                    nuBits_.clear(top);
                }
                s.writebackBytes += writebackSize(
                    Cells::load(state, victim).dirty, validate, blockBytes);
                resident--;
            }
            resident++;
            if (load || !validate) {
                m = {full, load ? 0 : words};
                s.fetchBytes += blockBytes;
            } else { // WriteValidate: allocate without fetching.
                m = {words, words};
                s.validates++;
            }
        }
        if (dead)
            deadBits_.set(key - deadBase);
        else
            nuBits_.set(key);
        Cells::store(state, key, m);
    }

    s.accesses += i - cursor_;
    stats_ = s;
    victimScanPops_ = pops;
    resident_ = resident;
    deadOrdinal_ = ordinal;
    cursor_ = i;
    if (i != end)
        fatal("MTC reference spans a block boundary");
}

void
MinCacheSim::step(std::size_t n)
{
    const std::size_t end =
        cursor_ + std::min(n, trace_.size() - cursor_);
    auto advance = [&] {
        withCells(config_.blockBytes,
                  [&](auto cells) { replay<decltype(cells)>(end); });
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
    const bool validate = config_.alloc == AllocPolicy::WriteValidate;
    withCells(config_.blockBytes, [&](auto cells) {
        auto flush = [&](std::size_t key) {
            stats.flushWritebackBytes += writebackSize(
                decltype(cells)::load(state_.data(), key).dirty, validate,
                config_.blockBytes);
        };
        nuBits_.forEach(flush);
        deadBits_.forEach(
            [&](std::size_t r) { flush(trace_.size() + r); });
    });
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
    for (const std::uint64_t v :
         {stats_.accesses, stats_.hits, stats_.misses, stats_.bypasses,
          stats_.validates, stats_.requestBytes, stats_.fetchBytes,
          stats_.writebackBytes, stats_.flushWritebackBytes,
          victimScanPops_})
        w.u64(v);

    // Resident set as (nextUse, addr, valid, dirty) rows sorted by
    // (nextUse, addr), the order the checkpoint format fixes.  A
    // finite key's block is the one its position references; a dead
    // block is the one whose last reference, a dead position before
    // the cursor, carries its rank.
    std::vector<std::array<std::uint64_t, 4>> rows;
    rows.reserve(resident_);
    withCells(config_.blockBytes, [&](auto cells) {
        auto row = [&](Tick nu, std::size_t pos, std::size_t key) {
            const Masks m = decltype(cells)::load(state_.data(), key);
            rows.push_back({nu,
                            alignDown(trace_[pos].addr, config_.blockBytes),
                            m.valid, m.dirty});
        };
        nuBits_.forEach([&](std::size_t t) { row(t, t, t); });
        for (std::size_t k = 0, ordinal = 0; k < cursor_; ++k) {
            if (nextUse_->ticks[k] != tickInfinity)
                continue;
            const std::uint32_t rank = nextUse_->deadRank[ordinal++];
            if (deadBits_.test(rank))
                row(tickInfinity, k, trace_.size() + rank);
        }
    });
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
    for (std::uint64_t *v :
         {&stats_.accesses, &stats_.hits, &stats_.misses, &stats_.bypasses,
          &stats_.validates, &stats_.requestBytes, &stats_.fetchBytes,
          &stats_.writebackBytes, &stats_.flushWritebackBytes,
          &victimScanPops_})
        *v = r.u64();
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
    const Bytes bb = config_.blockBytes;
    auto place = [&](std::size_t key, Masks m) {
        withCells(bb, [&](auto cells) {
            decltype(cells)::store(state_.data(), key, m);
        });
    };
    // A finite key is its block's next use from the cursor on: no
    // position at or after the cursor leads to it.
    std::vector<bool> later(trace_.size());
    for (std::size_t k = cursor_; k < trace_.size(); ++k)
        if (nextUse_->ticks[k] != tickInfinity)
            later[nextUse_->ticks[k]] = true;
    std::vector<Addr> seen;
    seen.reserve(static_cast<std::size_t>(resident));
    // Dead blocks wait for their ranks.
    std::vector<std::pair<Addr, Masks>> dead;
    for (std::uint64_t i = 0; i < resident && !r.failed(); ++i) {
        const Tick nu = r.u64();
        const Addr addr = r.u64();
        const Masks m{r.u64(), r.u64()};
        // The victim order relies on finite next uses being unique
        // positions at or after the cursor that reference their
        // blocks next, and the state layout on masks within the
        // block; anything else is not a state this simulation can
        // produce.
        if (nu != tickInfinity &&
            (nu < cursor_ || nu >= trace_.size() || later[nu] ||
             nuBits_.test(static_cast<std::size_t>(nu)) ||
             alignDown(trace_[nu].addr, bb) != addr)) {
            r.fail(Errc::Corrupt,
                   "MTC checkpoint has an invalid next-use key");
            return;
        }
        if (m.valid == 0 || (m.valid & ~fullMask(bb)) ||
            (m.dirty & ~m.valid)) {
            r.fail(Errc::Corrupt,
                   "MTC checkpoint has word masks outside its block");
            return;
        }
        if (nu == tickInfinity) {
            dead.emplace_back(addr, m);
        } else {
            nuBits_.set(static_cast<std::size_t>(nu));
            place(static_cast<std::size_t>(nu), m);
        }
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
    std::sort(dead.begin(), dead.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::size_t placed = 0;
    deadOrdinal_ = 0;
    for (std::size_t k = 0; k < cursor_; ++k) {
        if (nextUse_->ticks[k] != tickInfinity)
            continue;
        const Addr addr = alignDown(trace_[k].addr, bb);
        auto it = std::lower_bound(
            dead.begin(), dead.end(), addr,
            [](const auto &row, Addr a) { return row.first < a; });
        if (it != dead.end() && it->first == addr) {
            const std::uint32_t rank = nextUse_->deadRank[deadOrdinal_];
            deadBits_.set(rank);
            place(trace_.size() + rank, it->second);
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
    resident_ = static_cast<std::size_t>(resident);

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
