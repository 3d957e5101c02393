#include "exec/collapsed_sweep.hh"

#include <map>
#include <string>

#include "cache/stack_distance.hh"
#include "common/bitops.hh"
#include "exec/fa_sweep.hh"
#include "exec/ladder_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "obs/trace_span.hh"
#include "trace/block_stream.hh"

namespace membw {

const char *
cellRouteName(CellRoute route)
{
    switch (route) {
    case CellRoute::Ladder:
        return "ladder";
    case CellRoute::Mattson:
        return "mattson";
    case CellRoute::Direct:
        break;
    }
    return "direct";
}

namespace {

/** The configs of one group, keyed by (block size, engine): true for
 * the Mattson pass, false for the ladder kernel. */
struct Group
{
    std::vector<std::size_t> indices;
    std::vector<CacheConfig> configs;
    std::vector<TrafficResult> results; ///< empty = uncovered
};

/** Per-config half of the faLruCollapsible() guard; the trace half
 * (load-only, no block-spanning refs) is checked once per group. */
bool
faCandidate(const CacheConfig &cfg)
{
    return cfg.assoc == 0 && cfg.repl == ReplPolicy::LRU &&
           !cfg.taggedPrefetch && cfg.sectorBytes == 0 &&
           cfg.streamBuffers == 0 && cfg.size >= cfg.blockBytes &&
           isPowerOfTwo(cfg.blockBytes);
}

} // namespace

CollapsedSweep::CollapsedSweep(const Trace &trace,
                               const std::vector<CacheConfig> &configs,
                               const CollapseOptions &options)
{
    results_.resize(configs.size());
    routes_.assign(configs.size(), CellRoute::Direct);

    // Group candidate configs by (block size, engine).  std::map
    // keeps group order deterministic.
    std::map<std::pair<Bytes, bool>, Group> grouped;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CacheConfig &cfg = configs[i];
        bool mattson = false;
        if (ladderKernelSupported(cfg))
            mattson = false;
        else if (faCandidate(cfg))
            mattson = true;
        else
            continue;
        Group &g = grouped[{cfg.blockBytes, mattson}];
        g.indices.push_back(i);
        g.configs.push_back(cfg);
    }

    std::vector<decltype(grouped)::value_type *> groups;
    groups.reserve(grouped.size());
    for (auto &entry : grouped)
        groups.push_back(&entry);

    auto makeStream =
        [&](Bytes blockBytes) -> std::shared_ptr<const BlockStream> {
        if (options.streamProvider)
            return options.streamProvider(blockBytes);
        return std::make_shared<const BlockStream>(
            buildBlockStream(trace, blockBytes));
    };
    auto runMattson = [&](Bytes blockBytes,
                          const Group &g) -> std::vector<TrafficResult> {
        if (!faLruCollapsible(trace, g.configs))
            return {};
        if (options.profileProvider) {
            const auto profile = options.profileProvider(blockBytes);
            return faLruSizeSweep(trace, g.configs, *profile);
        }
        return faLruSizeSweep(trace, g.configs);
    };

    // One unit per side unit and per group, in one fan-out.  A group
    // whose guard fails at run time (e.g. an FA group over a trace
    // with stores, or a ladder group over block-spanning references)
    // simply stays uncovered.
    const std::size_t nSide = options.sideUnits.size();
    SweepOptions sopt;
    sopt.jobs = options.jobs;
    sopt.pool = options.pool;
    parallelSweep(nSide + groups.size(), sopt, [&](std::size_t u) {
        if (u < nSide) {
            options.sideUnits[u]();
            return 0;
        }
        auto &[key, g] = *groups[u - nSide];
        const auto [blockBytes, mattson] = key;
        const auto detail = [&] {
            return "block=" + std::to_string(blockBytes) +
                   "B cells=" + std::to_string(g.configs.size());
        };
        if (mattson) {
            MEMBW_SPAN_D("collapse.mattson_pass", detail());
            g.results = runMattson(blockBytes, g);
            return 0;
        }
        MEMBW_SPAN_D("collapse.ladder_pass", detail());
        const auto stream = makeStream(blockBytes);
        if (!ladderCollapsible(*stream, g.configs))
            return 0;
        std::uint64_t visits = 0;
        g.results = ladderSweep(*stream, g.configs, &visits);
        // The share of (reference, config) pairs the filter cascade
        // replayed.
        const std::uint64_t pairs = stream->refs * g.configs.size();
        if (tracingActive() && pairs > 0)
            tracingSetSpanDetail((detail() + " visits=" +
                                  std::to_string(visits * 100 / pairs) +
                                  "%")
                                     .c_str());
        return 0;
    });

    for (const auto &[key, g] : grouped) {
        const bool mattson = key.second;
        if (g.results.empty())
            continue;
        if (mattson)
            mattsonPasses_++;
        else
            ladderPasses_++;
        for (std::size_t k = 0; k < g.indices.size(); ++k) {
            results_[g.indices[k]] = g.results[k];
            routes_[g.indices[k]] =
                mattson ? CellRoute::Mattson : CellRoute::Ladder;
            covered_++;
        }
    }
}

} // namespace membw
