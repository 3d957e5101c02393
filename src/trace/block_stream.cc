#include "trace/block_stream.hh"

#include <string>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/trace_span.hh"

namespace membw {

BlockStream
buildBlockStream(const Trace &trace, Bytes blockBytes)
{
    if (blockBytes < wordBytes || !isPowerOfTwo(blockBytes))
        fatal("block stream needs a power-of-two block size >= 4B");

    MEMBW_SPAN_D("block_stream.decode",
                 "block=" + std::to_string(blockBytes) +
                     "B refs=" + std::to_string(trace.size()));

    BlockStream s;
    s.blockBytes = blockBytes;
    s.blockShift = floorLog2(blockBytes);
    s.refs = trace.size();
    s.blockNum.resize(s.refs);
    s.isStore.resize(s.refs);
    s.size.resize(s.refs);

    // Raw-pointer stores into the pre-sized arrays: the three
    // per-reference push_backs (capacity check each) were a
    // measurable fraction of a decode that otherwise runs at memory
    // speed, and this loop sits on the timed path of every ladder
    // pass.
    std::uint64_t *const bnOut = s.blockNum.data();
    std::uint8_t *const stOut = s.isStore.data();
    std::uint16_t *const szOut = s.size.data();
    const unsigned shift = s.blockShift;
    std::uint64_t stores = 0;
    std::uint64_t requestBytes = 0;
    bool spansBlock = false;

    for (std::size_t i = 0; i < s.refs; ++i) {
        const MemRef &ref = trace[i];
        const Addr block = alignDown(ref.addr, blockBytes);
        spansBlock |=
            ref.size == 0 ||
            alignDown(ref.addr + ref.size - 1, blockBytes) != block;

        const bool isStore = !ref.isLoad();
        bnOut[i] = ref.addr >> shift;
        stOut[i] = isStore ? 1 : 0;
        szOut[i] = static_cast<std::uint16_t>(
            ref.size <= blockBytes ? ref.size : blockBytes);
        stores += isStore;
        requestBytes += ref.size;
    }

    s.stores = stores;
    s.loads = s.refs - stores;
    s.requestBytes = requestBytes;
    s.spansBlock = spansBlock;
    return s;
}

} // namespace membw
