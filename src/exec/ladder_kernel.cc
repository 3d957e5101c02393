#include "exec/ladder_kernel.hh"

namespace membw {
namespace ladder {

namespace {

template <bool Masked, bool Filtered>
ChunkKernel
pickKernel(unsigned ways)
{
    switch (ways) {
    case 1:
        return &runChunk<1, Masked, Filtered>;
    case 2:
        return &runChunk<2, Masked, Filtered>;
    case 4:
        return &runChunk<4, Masked, Filtered>;
    case 8:
        return &runChunk<8, Masked, Filtered>;
    default:
        return &runChunk<0, Masked, Filtered>;
    }
}

template <bool Masked, bool Filtered>
WordKernel
pickWordKernel(unsigned ways)
{
    switch (ways) {
    case 1:
        return &runWordChunk<1, Masked, Filtered>;
    case 2:
        return &runWordChunk<2, Masked, Filtered>;
    case 4:
        return &runWordChunk<4, Masked, Filtered>;
    case 8:
        return &runWordChunk<8, Masked, Filtered>;
    default:
        return &runWordChunk<0, Masked, Filtered>;
    }
}

} // namespace

ChunkKernel
selectKernel(unsigned ways, bool masked, bool filtered)
{
    if (masked)
        return filtered ? pickKernel<true, true>(ways)
                        : pickKernel<true, false>(ways);
    return filtered ? pickKernel<false, true>(ways)
                    : pickKernel<false, false>(ways);
}

WordKernel
selectWordKernel(unsigned ways, bool masked, bool filtered)
{
    if (masked)
        return filtered ? pickWordKernel<true, true>(ways)
                        : pickWordKernel<true, false>(ways);
    return filtered ? pickWordKernel<false, true>(ways)
                    : pickWordKernel<false, false>(ways);
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
