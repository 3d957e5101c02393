#include "exec/ladder_kernel.hh"

namespace membw {
namespace ladder {

namespace {

template <bool Filtered>
ChunkKernel
pickKernel(unsigned ways)
{
    switch (ways) {
    case 1:
        return &runChunk<1, Filtered>;
    case 2:
        return &runChunk<2, Filtered>;
    case 4:
        return &runChunk<4, Filtered>;
    case 8:
        return &runChunk<8, Filtered>;
    default:
        return &runChunk<0, Filtered>;
    }
}

template <bool Filtered>
WordKernel
pickWordKernel(unsigned ways)
{
    switch (ways) {
    case 1:
        return &runWordChunk<1, Filtered>;
    case 2:
        return &runWordChunk<2, Filtered>;
    case 4:
        return &runWordChunk<4, Filtered>;
    case 8:
        return &runWordChunk<8, Filtered>;
    default:
        return &runWordChunk<0, Filtered>;
    }
}

} // namespace

ChunkKernel
selectKernel(unsigned ways, bool filtered)
{
    return filtered ? pickKernel<true>(ways) : pickKernel<false>(ways);
}

WordKernel
selectWordKernel(unsigned ways, bool filtered)
{
    return filtered ? pickWordKernel<true>(ways)
                    : pickWordKernel<false>(ways);
}

void
mergeStats(CacheStats &into, const CacheStats &from)
{
    into.accesses += from.accesses;
    into.loads += from.loads;
    into.stores += from.stores;
    into.hits += from.hits;
    into.misses += from.misses;
    into.loadMisses += from.loadMisses;
    into.storeMisses += from.storeMisses;
    into.evictions += from.evictions;
    into.writebacks += from.writebacks;
    into.partialFills += from.partialFills;
    into.prefetches += from.prefetches;
    into.streamHits += from.streamHits;
    into.streamAllocs += from.streamAllocs;
    into.requestBytes += from.requestBytes;
    into.demandFetchBytes += from.demandFetchBytes;
    into.partialFillBytes += from.partialFillBytes;
    into.prefetchFetchBytes += from.prefetchFetchBytes;
    into.streamFetchBytes += from.streamFetchBytes;
    into.writebackBytes += from.writebackBytes;
    into.writeThroughBytes += from.writeThroughBytes;
    into.flushWritebackBytes += from.flushWritebackBytes;
}

TrafficResult
ladderTraffic(const BlockStream &stream, CacheStats stats)
{
    return ladderTraffic(stream.refs, stream.loads, stream.stores,
                         stream.requestBytes, stats);
}

TrafficResult
ladderTraffic(std::size_t refs, std::uint64_t loads,
              std::uint64_t stores, std::uint64_t requestBytes,
              CacheStats stats)
{
    stats.accesses = refs;
    stats.loads = loads;
    stats.stores = stores;
    stats.requestBytes = requestBytes;

    TrafficResult r;
    r.requestBytes = stats.requestBytes;
    r.pinBytes = stats.trafficBelow();
    r.trafficRatio = stats.trafficRatio();
    r.levelRatios = {stats.trafficRatio()};
    r.levelTraffic = {stats.trafficBelow()};
    r.levels = {stats};
    r.l1 = stats;
    return r;
}

} // namespace ladder
} // namespace membw
