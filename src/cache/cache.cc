#include "cache/cache.hh"

#include <array>
#include <bit>
#include <cassert>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/registry.hh"
#include "resilience/checkpoint.hh"

namespace membw {

void
saveCacheStats(ChkWriter &w, const CacheStats &s)
{
    w.u64(s.accesses);
    w.u64(s.loads);
    w.u64(s.stores);
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.loadMisses);
    w.u64(s.storeMisses);
    w.u64(s.evictions);
    w.u64(s.writebacks);
    w.u64(s.partialFills);
    w.u64(s.prefetches);
    w.u64(s.streamHits);
    w.u64(s.streamAllocs);
    w.u64(s.requestBytes);
    w.u64(s.demandFetchBytes);
    w.u64(s.partialFillBytes);
    w.u64(s.prefetchFetchBytes);
    w.u64(s.streamFetchBytes);
    w.u64(s.writebackBytes);
    w.u64(s.writeThroughBytes);
    w.u64(s.flushWritebackBytes);
}

void
loadCacheStats(ChkReader &r, CacheStats &s)
{
    s.accesses = r.u64();
    s.loads = r.u64();
    s.stores = r.u64();
    s.hits = r.u64();
    s.misses = r.u64();
    s.loadMisses = r.u64();
    s.storeMisses = r.u64();
    s.evictions = r.u64();
    s.writebacks = r.u64();
    s.partialFills = r.u64();
    s.prefetches = r.u64();
    s.streamHits = r.u64();
    s.streamAllocs = r.u64();
    s.requestBytes = r.u64();
    s.demandFetchBytes = r.u64();
    s.partialFillBytes = r.u64();
    s.prefetchFetchBytes = r.u64();
    s.streamFetchBytes = r.u64();
    s.writebackBytes = r.u64();
    s.writeThroughBytes = r.u64();
    s.flushWritebackBytes = r.u64();
}

/**
 * Sets this narrow are probed faster by scanning the ways (a handful
 * of tag compares in one or two cache lines) than by hashing into the
 * per-set index map.  Wider sets — notably fully-associative
 * geometries, where ways == blocks — keep the map.
 */
static constexpr unsigned linearScanWays = 8;

Cache::Cache(const CacheConfig &config)
    : config_(config),
      blockBytes_(config.blockBytes),
      blockShift_(static_cast<unsigned>(
          std::countr_zero(config.blockBytes))),
      wordsPerBlock_(static_cast<unsigned>(config.blockBytes / wordBytes)),
      nsets_(config.sets()),
      setMask_(nsets_ - 1),
      useIndex_(config.ways() > linearScanWays),
      rng_(config.seed)
{
    config_.validate();
    sets_.resize(nsets_);
    const unsigned ways = config_.ways();
    for (Set &set : sets_) {
        set.ways.resize(ways);
        if (useIndex_)
            set.index.reserve(ways * 2);
    }
}

void
Cache::setBelow(DownstreamFn fetch, DownstreamFn writeback, void *ctx)
{
    fetchBelow_ = fetch;
    writebackBelow_ = writeback;
    belowCtx_ = ctx;
}

std::uint64_t
Cache::wordsMask(Addr addr, Bytes size) const
{
    const Addr block = blockAddr(addr);
    const unsigned first =
        static_cast<unsigned>((addr - block) / wordBytes);
    const unsigned last =
        static_cast<unsigned>((addr + size - 1 - block) / wordBytes);
    assert(last < wordsPerBlock_);
    std::uint64_t mask = 0;
    for (unsigned w = first; w <= last; ++w)
        mask |= std::uint64_t{1} << w;
    return mask;
}

std::uint64_t
Cache::fullMask() const
{
    return wordsPerBlock_ == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << wordsPerBlock_) - 1;
}

std::uint64_t
Cache::sectorExpand(std::uint64_t words) const
{
    if (config_.sectorBytes == 0)
        return words ? fullMask() : 0;
    const unsigned sector_words =
        static_cast<unsigned>(config_.sectorBytes / wordBytes);
    const std::uint64_t sector_mask =
        sector_words == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << sector_words) - 1;
    std::uint64_t out = 0;
    for (unsigned s = 0; s * sector_words < wordsPerBlock_; ++s) {
        const std::uint64_t in_sector =
            (words >> (s * sector_words)) & sector_mask;
        if (in_sector)
            out |= sector_mask << (s * sector_words);
    }
    return out;
}

Cache::Line *
Cache::findLine(Addr block_addr)
{
    Set &set = sets_[setIndex(block_addr)];
    if (!useIndex_) {
        for (Line &line : set.ways)
            if (line.valid && line.blockAddr == block_addr)
                return &line;
        return nullptr;
    }
    auto it = set.index.find(block_addr);
    if (it == set.index.end())
        return nullptr;
    Line &line = set.ways[it->second];
    assert(line.valid && line.blockAddr == block_addr);
    return &line;
}

unsigned
Cache::pickVictim(Set &set)
{
    const unsigned ways = static_cast<unsigned>(set.ways.size());

    // Prefer an invalid way.
    for (unsigned w = 0; w < ways; ++w)
        if (!set.ways[w].valid)
            return w;

    switch (config_.repl) {
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng_.below(ways));
      case ReplPolicy::LRU: {
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w)
            if (set.ways[w].lastUse < set.ways[best].lastUse)
                best = w;
        return best;
      }
      case ReplPolicy::FIFO: {
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w)
            if (set.ways[w].insertSeq < set.ways[best].insertSeq)
                best = w;
        return best;
      }
    }
    panic("unreachable replacement policy");
}

Bytes
Cache::writebackSize(const Line &line) const
{
    if (line.dirtyMask == 0)
        return 0;
    if (config_.alloc == AllocPolicy::WriteValidate)
        return static_cast<Bytes>(std::popcount(line.dirtyMask)) *
               wordBytes;
    // Sectored caches write back dirty sectors; plain caches the
    // whole block (sectorExpand degenerates to the full mask).
    return static_cast<Bytes>(
               std::popcount(sectorExpand(line.dirtyMask))) *
           wordBytes;
}

Bytes
Cache::evict(Set &set, unsigned way, bool to_flush)
{
    Line &line = set.ways[way];
    if (!line.valid)
        return 0;

    stats_.evictions++;
    MEMBW_PROBE(probe_,
                onEvict(probeLevel_,
                        static_cast<std::size_t>(&set -
                                                 sets_.data())));
    const Bytes wb = writebackSize(line);
    if (wb) {
        stats_.writebacks++;
        if (to_flush)
            stats_.flushWritebackBytes += wb;
        else
            stats_.writebackBytes += wb;
        sendWriteback(line.blockAddr, wb);
    }
    if (useIndex_)
        set.index.erase(line.blockAddr);
    line = Line{};
    return wb;
}

Cache::Line &
Cache::insert(Addr block_addr)
{
    Set &set = sets_[setIndex(block_addr)];
    const unsigned way = pickVictim(set);
    evict(set, way, false);

    Line &line = set.ways[way];
    line.blockAddr = block_addr;
    line.valid = true;
    line.lastUse = ++seq_;
    line.insertSeq = seq_;
    line.validMask = 0;
    line.dirtyMask = 0;
    line.prefetchTag = false;
    if (useIndex_)
        set.index.emplace(block_addr, way);
    return line;
}

void
Cache::sendFetch(Addr addr, Bytes bytes)
{
    MEMBW_PROBE(probe_, onBelowTraffic(probeLevel_, addr, bytes));
    if (fetchBelow_)
        fetchBelow_(belowCtx_, addr, bytes);
}

void
Cache::sendWriteback(Addr addr, Bytes bytes)
{
    MEMBW_PROBE(probe_, onBelowTraffic(probeLevel_, addr, bytes));
    if (writebackBelow_)
        writebackBelow_(belowCtx_, addr, bytes);
}

void
Cache::maybePrefetch(Addr demand_block)
{
    if (!config_.taggedPrefetch || inPrefetch_)
        return;

    const Addr next = demand_block + blockBytes_;
    if (next < demand_block) // address wrap
        return;
    if (findLine(next))
        return;

    inPrefetch_ = true;
    Line &line = insert(next);
    line.validMask = fullMask();
    line.prefetchTag = true;
    stats_.prefetches++;
    stats_.prefetchFetchBytes += blockBytes_;
    sendFetch(next, blockBytes_);
    inPrefetch_ = false;
}

bool
Cache::streamLookup(Addr block)
{
    if (config_.streamBuffers == 0)
        return false;

    // Head hit: consume the entry and extend the stream by one.
    for (Stream &s : streams_) {
        if (s.head < s.fifo.size() && s.fifo[s.head] == block) {
            ++s.head;
            const Addr tail_next =
                s.fifo.back() + blockBytes_;
            if (tail_next > s.fifo.back()) { // no address wrap
                s.fifo.push_back(tail_next);
                stats_.streamFetchBytes += blockBytes_;
                sendFetch(tail_next, blockBytes_);
            }
            if (s.head > 64) { // compact the consumed prefix
                s.fifo.erase(s.fifo.begin(),
                             s.fifo.begin() +
                                 static_cast<std::ptrdiff_t>(s.head));
                s.head = 0;
            }
            s.lastUse = ++seq_;
            stats_.streamHits++;
            return true;
        }
    }

    // No hit: (re)allocate the LRU stream at block+1..block+depth.
    if (streams_.size() < config_.streamBuffers)
        streams_.emplace_back();
    Stream *victim = &streams_[0];
    for (Stream &s : streams_)
        if (s.lastUse < victim->lastUse)
            victim = &s;
    victim->fifo.clear();
    victim->head = 0;
    victim->lastUse = ++seq_;
    for (unsigned d = 1; d <= config_.streamDepth; ++d) {
        const Addr next = block + d * blockBytes_;
        if (next < block)
            break;
        victim->fifo.push_back(next);
        stats_.streamFetchBytes += blockBytes_;
        sendFetch(next, blockBytes_);
    }
    stats_.streamAllocs++;
    return false;
}

AccessResult
Cache::access(const MemRef &ref)
{
    if (blockAddr(ref.addr) != blockAddr(ref.addr + ref.size - 1))
        fatal(config_.name + ": reference spans a block boundary");

    AccessResult result;
    const Addr block = blockAddr(ref.addr);
    const std::uint64_t words = wordsMask(ref.addr, ref.size);

    stats_.accesses++;
    stats_.requestBytes += ref.size;
    if (ref.isLoad())
        stats_.loads++;
    else
        stats_.stores++;

    Line *line = findLine(block);

    // Tagged prefetch: first demand touch of a prefetched line
    // triggers the next sequential prefetch (Gindele [17]).
    if (line && line->prefetchTag) {
        line->prefetchTag = false;
        maybePrefetch(block);
    }

    if (ref.isLoad()) {
        if (line) {
            const std::uint64_t missing = words & ~line->validMask;
            if (missing) {
                // Partially-valid line: write-validate fills only
                // the missing words; a sectored cache fills the
                // missing sectors.
                const std::uint64_t fill =
                    config_.sectorBytes
                        ? sectorExpand(missing) & ~line->validMask
                        : missing;
                const Bytes bytes =
                    static_cast<Bytes>(std::popcount(fill)) *
                    wordBytes;
                stats_.partialFills++;
                stats_.partialFillBytes += bytes;
                result.fetchedBytes += bytes;
                sendFetch(ref.addr, bytes);
                line->validMask |= fill;
            }
            stats_.hits++;
            result.hit = true;
            line->lastUse = ++seq_;
        } else {
            stats_.misses++;
            stats_.loadMisses++;
            const bool from_stream = streamLookup(block);
            Line &nl = insert(block);
            if (from_stream) {
                // The block was waiting in a stream buffer: its
                // fill traffic was paid when the stream fetched it.
                nl.validMask = fullMask();
            } else {
                const std::uint64_t fill = sectorExpand(words);
                const Bytes bytes =
                    static_cast<Bytes>(std::popcount(fill)) *
                    wordBytes;
                nl.validMask = fill;
                stats_.demandFetchBytes += bytes;
                result.fetchedBytes += bytes;
                sendFetch(block, bytes);
            }
            // A demand miss prefetches the next sequential block [17].
            maybePrefetch(block);
        }
        return result;
    }

    // Store.
    if (line) {
        stats_.hits++;
        result.hit = true;
        line->lastUse = ++seq_;
        line->validMask |= words;
        if (config_.write == WritePolicy::WriteBack) {
            line->dirtyMask |= words;
        } else {
            stats_.writeThroughBytes += ref.size;
            result.writeThroughBytes = ref.size;
            sendWriteback(ref.addr, ref.size);
        }
        return result;
    }

    stats_.misses++;
    stats_.storeMisses++;
    switch (config_.alloc) {
      case AllocPolicy::WriteAllocate: {
        Line &nl = insert(block);
        const std::uint64_t fill = sectorExpand(words);
        const Bytes bytes =
            static_cast<Bytes>(std::popcount(fill)) * wordBytes;
        nl.validMask = fill;
        stats_.demandFetchBytes += bytes;
        result.fetchedBytes += bytes;
        sendFetch(block, bytes);
        if (config_.write == WritePolicy::WriteBack) {
            nl.dirtyMask |= words;
        } else {
            stats_.writeThroughBytes += ref.size;
            result.writeThroughBytes = ref.size;
            sendWriteback(ref.addr, ref.size);
        }
        maybePrefetch(block);
        break;
      }
      case AllocPolicy::WriteNoAllocate: {
        stats_.writeThroughBytes += ref.size;
        result.writeThroughBytes = ref.size;
        sendWriteback(ref.addr, ref.size);
        break;
      }
      case AllocPolicy::WriteValidate: {
        // Allocate without fetching; written words become valid+dirty.
        Line &nl = insert(block);
        nl.validMask = words;
        nl.dirtyMask = words;
        break;
      }
    }
    return result;
}

Bytes
Cache::flush()
{
    Bytes total = 0;
    for (Set &set : sets_) {
        for (unsigned w = 0; w < set.ways.size(); ++w)
            total += evict(set, w, true);
    }
    return total;
}

void
Cache::publishStats(StatsGroup &group) const
{
    publishCacheStats(group, stats_);
}

void
publishCacheStats(StatsGroup &group, const CacheStats &stats)
{
    auto &accesses = group.addCounter(
        "accesses", "references presented to this level", "refs");
    accesses.set(stats.accesses);
    group.addCounter("loads", "load references", "refs")
        .set(stats.loads);
    group.addCounter("stores", "store references", "refs")
        .set(stats.stores);
    group.addCounter("hits", "references satisfied in place", "refs")
        .set(stats.hits);
    auto &misses = group.addCounter(
        "demand_misses", "demand references that missed", "refs");
    misses.set(stats.misses);
    group.addCounter("load_misses", "demand load misses", "refs")
        .set(stats.loadMisses);
    group.addCounter("store_misses", "demand store misses", "refs")
        .set(stats.storeMisses);
    group.addCounter("partial_fills",
                     "word-granularity fills into valid lines",
                     "events")
        .set(stats.partialFills);
    group.addCounter("prefetches", "tagged-prefetch fills issued",
                     "events")
        .set(stats.prefetches);
    group.addCounter("stream_hits",
                     "misses served from a stream buffer", "events")
        .set(stats.streamHits);
    group.addCounter("stream_allocs", "stream (re)allocations",
                     "events")
        .set(stats.streamAllocs);
    group.addCounter("evictions", "valid lines displaced or flushed",
                     "events")
        .set(stats.evictions);
    group.addCounter("writebacks", "evictions that wrote data below",
                     "events")
        .set(stats.writebacks);
    group.addRatio("miss_rate", "demand_misses / accesses", misses,
                   accesses);

    StatsGroup bytes = group.group("bytes");
    auto &request = bytes.addCounter(
        "request", "traffic above this level (D_{i-1})", "bytes");
    request.set(stats.requestBytes);
    bytes.addCounter("demand_fetch", "full-block demand fills",
                     "bytes")
        .set(stats.demandFetchBytes);
    bytes.addCounter("partial_fill", "word-granularity fills (WV)",
                     "bytes")
        .set(stats.partialFillBytes);
    bytes.addCounter("prefetch_fetch", "tagged-prefetch fills",
                     "bytes")
        .set(stats.prefetchFetchBytes);
    bytes.addCounter("stream_fetch", "stream-buffer fills", "bytes")
        .set(stats.streamFetchBytes);
    bytes.addCounter("writeback", "dirty evictions", "bytes")
        .set(stats.writebackBytes);
    bytes.addCounter("write_through", "stores propagated (WT/WNA)",
                     "bytes")
        .set(stats.writeThroughBytes);
    bytes.addCounter("flush_writeback", "end-of-run dirty flush",
                     "bytes")
        .set(stats.flushWritebackBytes);
    auto &below = bytes.addCounter(
        "below", "total traffic below this level (D_i)", "bytes");
    below.set(stats.trafficBelow());
    group.addRatio("traffic_ratio",
                   "R = bytes.below / bytes.request (Equation 4)",
                   below, request);
}

void
Cache::saveState(ChkWriter &w) const
{
    w.beginSection(chkTag("CACH"));

    // Geometry guard: a checkpoint only restores into an identically
    // shaped cache.
    w.u32(nsets_);
    w.u32(config_.ways());
    w.u64(blockBytes_);

    w.u64(seq_);
    for (std::uint64_t word : rng_.state())
        w.u64(word);
    saveCacheStats(w, stats_);

    for (const Set &set : sets_) {
        for (const Line &line : set.ways) {
            w.u8(line.valid ? 1 : 0);
            w.u64(line.blockAddr);
            w.u64(line.lastUse);
            w.u64(line.insertSeq);
            w.u64(line.validMask);
            w.u64(line.dirtyMask);
            w.u8(line.prefetchTag ? 1 : 0);
        }
    }

    w.u64(streams_.size());
    for (const Stream &s : streams_) {
        w.u64(s.lastUse);
        w.u64(s.head);
        w.u64(s.fifo.size());
        for (Addr a : s.fifo)
            w.u64(a);
    }

    w.endSection();
}

void
Cache::loadState(ChkReader &r)
{
    r.enterSection(chkTag("CACH"));

    const std::uint32_t nsets = r.u32();
    const std::uint32_t ways = r.u32();
    const std::uint64_t block = r.u64();
    if (r.failed())
        return;
    if (nsets != nsets_ || ways != config_.ways() ||
        block != blockBytes_) {
        r.fail(Errc::Mismatch,
               config_.name + ": checkpoint geometry " +
                   std::to_string(nsets) + "x" + std::to_string(ways) +
                   "x" + std::to_string(block) +
                   "B does not match the configured " +
                   std::to_string(nsets_) + "x" +
                   std::to_string(config_.ways()) + "x" +
                   std::to_string(blockBytes_) + "B cache");
        return;
    }

    seq_ = r.u64();
    std::array<std::uint64_t, 4> rstate;
    for (std::uint64_t &word : rstate)
        word = r.u64();
    rng_.setState(rstate);
    loadCacheStats(r, stats_);

    for (Set &set : sets_) {
        set.index.clear();
        for (unsigned way = 0; way < set.ways.size(); ++way) {
            Line &line = set.ways[way];
            line.valid = r.u8() != 0;
            line.blockAddr = r.u64();
            line.lastUse = r.u64();
            line.insertSeq = r.u64();
            line.validMask = r.u64();
            line.dirtyMask = r.u64();
            line.prefetchTag = r.u8() != 0;
            if (r.failed())
                return;
            if (line.valid &&
                !set.index.emplace(line.blockAddr, way).second) {
                r.fail(Errc::Corrupt,
                       config_.name +
                           ": duplicate resident block in set");
                return;
            }
        }
        // The map above doubles as the duplicate detector; linear-
        // scan geometries don't keep it at runtime.
        if (!useIndex_)
            set.index.clear();
    }

    const std::uint64_t nstreams = r.u64();
    if (nstreams > config_.streamBuffers) {
        r.fail(Errc::Corrupt,
               config_.name + ": checkpoint carries " +
                   std::to_string(nstreams) +
                   " stream buffers but the config allows " +
                   std::to_string(config_.streamBuffers));
        return;
    }
    streams_.clear();
    streams_.resize(static_cast<std::size_t>(nstreams));
    for (Stream &s : streams_) {
        s.lastUse = r.u64();
        s.head = static_cast<std::size_t>(r.u64());
        const std::uint64_t depth = r.u64();
        if (r.failed())
            return;
        if (depth > r.remaining() / 8 || s.head > depth) {
            r.fail(Errc::Corrupt,
                   config_.name + ": malformed stream buffer");
            return;
        }
        s.fifo.resize(static_cast<std::size_t>(depth));
        for (Addr &a : s.fifo)
            a = r.u64();
    }

    r.leaveSection();
}

bool
Cache::contains(Addr addr) const
{
    // findLine is logically const; use a const_cast shim.
    return const_cast<Cache *>(this)->findLine(blockAddr(addr)) !=
           nullptr;
}

} // namespace membw
