#include "exec/ladder_sweep.hh"

#include <algorithm>
#include <cstdint>
#include <utility>

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
            const std::vector<CacheConfig> &configs,
            std::uint64_t *visits)
{
    if (!ladderCollapsible(stream, configs))
        fatal("ladderSweep: configs are outside the one-pass regime "
              "(check ladderCollapsible first)");
    static_assert(BlockStream::chunkRefs <= 65536,
                  "survivor offsets are 16-bit");

    std::vector<ladder::ConfigSim> sims;
    sims.reserve(configs.size());
    for (const CacheConfig &cfg : configs)
        sims.emplace_back(cfg);

    // Chains: write-allocate configs by write policy, each ordered by
    // (sets, ways); a no-allocate config is a chain of its own.
    std::vector<std::vector<std::size_t>> chains;
    std::size_t chainOf[2] = {SIZE_MAX, SIZE_MAX};
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].alloc != AllocPolicy::WriteAllocate) {
            chains.push_back({i});
            continue;
        }
        std::size_t &c = chainOf[sims[i].writeBack];
        if (c == SIZE_MAX) {
            c = chains.size();
            chains.emplace_back();
        }
        chains[c].push_back(i);
    }
    for (std::vector<std::size_t> &chain : chains) {
        std::stable_sort(chain.begin(), chain.end(),
                         [&](std::size_t a, std::size_t b) {
                             return std::pair(configs[a].sets(),
                                              sims[a].ways) <
                                    std::pair(configs[b].sets(),
                                              sims[b].ways);
                         });
        // A dropped reference is dropped for every later config, so a
        // dirty-store skip needs none of them to have fewer ways.
        unsigned laterWays = ladderMaxWays;
        for (std::size_t k = chain.size(); k-- > 0;) {
            ladder::ConfigSim &sim = sims[chain[k]];
            sim.skipDirtyStores = sim.writeBack && laterWays >= sim.ways;
            laterWays = std::min(laterWays, sim.ways);
            sim.kernel = ladder::selectKernel(
                sim.ways, /*filtered=*/false, /*readList=*/k > 0,
                /*emit=*/k + 1 < chain.size());
        }
    }

    std::vector<std::uint16_t> survivors(BlockStream::chunkRefs);
    std::uint64_t visited = 0;
    for (std::size_t begin = 0; begin < stream.refs;
         begin += BlockStream::chunkRefs) {
        const std::size_t end =
            std::min(begin + BlockStream::chunkRefs, stream.refs);
        for (const std::vector<std::size_t> &chain : chains) {
            ladder::ChunkRefs refs{begin, end, survivors.data(),
                                   end - begin};
            for (std::size_t i : chain) {
                visited += refs.listLen;
                sims[i].kernel(sims[i], stream, refs);
            }
        }
    }
    if (visits)
        *visits = visited;

    std::vector<TrafficResult> out;
    out.reserve(sims.size());
    for (ladder::ConfigSim &sim : sims) {
        sim.flush();
        out.push_back(ladder::ladderTraffic(stream, sim.stats));
    }
    return out;
}

} // namespace membw
