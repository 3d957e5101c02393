#include "exec/ladder_sweep.hh"

#include <algorithm>
#include <cstdint>

#include "common/bitops.hh"
#include "common/log.hh"
#include "exec/ladder_kernel.hh"

namespace membw {

bool
ladderKernelSupported(const CacheConfig &cfg)
{
    if (cfg.blockBytes < wordBytes || !isPowerOfTwo(cfg.blockBytes) ||
        cfg.blockBytes > 64 * wordBytes)
        return false;
    if (cfg.size == 0 || cfg.size % cfg.blockBytes != 0)
        return false;
    if (cfg.assoc < 1 || cfg.assoc > ladderMaxWays)
        return false;
    const std::uint64_t nblocks = cfg.size / cfg.blockBytes;
    if (cfg.assoc > nblocks || nblocks % cfg.assoc != 0 ||
        !isPowerOfTwo(nblocks / cfg.assoc))
        return false;
    if (cfg.repl != ReplPolicy::LRU || cfg.taggedPrefetch ||
        cfg.sectorBytes != 0 || cfg.streamBuffers != 0)
        return false;
    // Write-validate's per-word valid and dirty bits need Cache.
    return cfg.alloc != AllocPolicy::WriteValidate;
}

bool
ladderCollapsible(const BlockStream &stream,
                  const std::vector<CacheConfig> &configs)
{
    if (configs.empty() || stream.spansBlock)
        return false;
    for (const CacheConfig &cfg : configs) {
        if (cfg.blockBytes != stream.blockBytes ||
            !ladderKernelSupported(cfg))
            return false;
    }
    return true;
}

std::vector<TrafficResult>
ladderSweep(const BlockStream &stream,
            const std::vector<CacheConfig> &configs)
{
    if (!ladderCollapsible(stream, configs))
        fatal("ladderSweep: configs are outside the one-pass regime "
              "(check ladderCollapsible first)");

    std::vector<ladder::ConfigSim> sims;
    sims.reserve(configs.size());
    for (const CacheConfig &cfg : configs) {
        ladder::ConfigSim &sim = sims.emplace_back(cfg);
        sim.kernel = ladder::selectKernel(sim.ways, /*filtered=*/false);
    }

    for (std::size_t begin = 0; begin < stream.refs;
         begin += BlockStream::chunkRefs) {
        const std::size_t end =
            std::min(begin + BlockStream::chunkRefs, stream.refs);
        for (ladder::ConfigSim &sim : sims)
            sim.kernel(sim, stream, begin, end);
    }

    std::vector<TrafficResult> out;
    out.reserve(sims.size());
    for (ladder::ConfigSim &sim : sims) {
        sim.flush();
        out.push_back(ladder::ladderTraffic(stream, sim.stats));
    }
    return out;
}

} // namespace membw
