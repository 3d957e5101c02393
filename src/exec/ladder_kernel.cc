#include "exec/ladder_kernel.hh"

namespace membw {
namespace ladder {

namespace {

template <bool ReadList, bool Emit>
ChunkKernel
pickKernel(unsigned ways)
{
    switch (ways) {
    case 1:
        return &runChunk<1, ReadList, Emit>;
    case 2:
        return &runChunk<2, ReadList, Emit>;
    case 4:
        return &runChunk<4, ReadList, Emit>;
    case 8:
        return &runChunk<8, ReadList, Emit>;
    default:
        return &runChunk<0, ReadList, Emit>;
    }
}

} // namespace

ChunkKernel
selectKernel(unsigned ways, bool readList, bool emit)
{
    if (readList)
        return emit ? pickKernel<true, true>(ways)
                    : pickKernel<true, false>(ways);
    return emit ? pickKernel<false, true>(ways)
                : pickKernel<false, false>(ways);
}

TrafficResult
ladderTraffic(const BlockStream &stream, CacheStats stats)
{
    stats.accesses = stream.refs;
    stats.loads = stream.loads;
    stats.stores = stream.stores;
    stats.requestBytes = stream.requestBytes;

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
