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
    s.wordMask.resize(s.refs);

    // Raw-pointer stores into the pre-sized arrays: the four
    // per-reference push_backs (capacity check each) were a
    // measurable fraction of a decode that otherwise runs at memory
    // speed, and this loop sits on the timed path of every
    // partitioned pass.
    std::uint64_t *const bnOut = s.blockNum.data();
    std::uint8_t *const stOut = s.isStore.data();
    std::uint16_t *const szOut = s.size.data();
    std::uint64_t *const wmOut = s.wordMask.data();
    const unsigned shift = s.blockShift;
    std::uint64_t stores = 0;
    std::uint64_t requestBytes = 0;
    bool spansBlock = false;

    for (std::size_t i = 0; i < s.refs; ++i) {
        const MemRef &ref = trace[i];
        const Addr block = alignDown(ref.addr, blockBytes);
        const bool spans =
            ref.size == 0 ||
            alignDown(ref.addr + ref.size - 1, blockBytes) != block;
        spansBlock |= spans;

        const bool isStore = !ref.isLoad();
        bnOut[i] = ref.addr >> shift;
        stOut[i] = isStore ? 1 : 0;
        szOut[i] = static_cast<std::uint16_t>(
            ref.size <= blockBytes ? ref.size : blockBytes);
        stores += isStore;
        requestBytes += ref.size;

        // Word mask within the block, exactly as Cache::wordsMask
        // computes it (a contiguous run of set bits).  Spanning
        // references make the stream ineligible for one-pass
        // kernels, so an empty mask is fine there.
        std::uint64_t mask = 0;
        if (!spans) {
            const unsigned first =
                static_cast<unsigned>((ref.addr - block) / wordBytes);
            const unsigned last = static_cast<unsigned>(
                (ref.addr + ref.size - 1 - block) / wordBytes);
            if (last < 64) {
                const unsigned count = last - first + 1;
                mask = (count >= 64
                            ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << count) - 1)
                       << first;
            } else {
                for (unsigned w = first; w <= last; ++w)
                    mask |= std::uint64_t{1} << w;
            }
        }
        wmOut[i] = mask;
    }

    s.stores = stores;
    s.loads = s.refs - stores;
    s.requestBytes = requestBytes;
    s.spansBlock = spansBlock;
    return s;
}

} // namespace membw
