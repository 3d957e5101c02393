#include "exec/collapsed_sweep.hh"

#include <algorithm>
#include <map>
#include <string>

#include "cache/stack_distance.hh"
#include "common/bitops.hh"
#include "exec/fa_sweep.hh"
#include "exec/ladder_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "exec/time_partition.hh"
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

struct Group
{
    Bytes blockBytes = 0;
    bool mattson = false; ///< false = ladder kernel
    std::vector<std::size_t> indices;
    std::vector<CacheConfig> configs;
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
                               unsigned jobs)
    : CollapsedSweep(trace, configs, CollapseOptions{jobs})
{
}

CollapsedSweep::CollapsedSweep(const Trace &trace,
                               const std::vector<CacheConfig> &configs,
                               const CollapseOptions &options)
{
    results_.resize(configs.size());
    routes_.assign(configs.size(), CellRoute::Direct);
    const unsigned jobs = std::max(options.jobs, 1u);

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
        g.blockBytes = cfg.blockBytes;
        g.mattson = mattson;
        g.indices.push_back(i);
        g.configs.push_back(cfg);
    }

    std::vector<Group> groups;
    groups.reserve(grouped.size());
    for (auto &[key, g] : grouped)
        groups.push_back(std::move(g));
    if (groups.empty())
        return;

    auto makeStream =
        [&](Bytes blockBytes) -> std::shared_ptr<const BlockStream> {
        if (options.streamProvider)
            return options.streamProvider(blockBytes);
        return std::make_shared<const BlockStream>(
            buildBlockStream(trace, blockBytes));
    };
    auto runMattson = [&](const Group &g) -> std::vector<TrafficResult> {
        if (!faLruCollapsible(trace, g.configs))
            return {};
        if (options.profileProvider) {
            const auto profile = options.profileProvider(g.blockBytes);
            return faLruSizeSweep(trace, g.configs, *profile);
        }
        return faLruSizeSweep(trace, g.configs);
    };

    // With fewer groups than workers, fanning groups across the pool
    // leaves workers idle — the single-big-config case at --jobs N is
    // exactly one group.  There the ladder groups run sequentially
    // through the set-partitioned kernel instead, which spreads ONE
    // pass over every worker and stays byte-identical to the serial
    // kernel (see time_partition.hh).
    const bool partition = jobs > 1 && groups.size() < jobs;

    std::vector<std::vector<TrafficResult>> passResults;
    std::vector<char> partitioned(groups.size(), 0);
    if (partition) {
        passResults.resize(groups.size());
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            const Group &g = groups[gi];
            MEMBW_SPAN_D(
                g.mattson ? "collapse.mattson_pass"
                          : "collapse.partitioned_ladder_pass",
                "block=" + std::to_string(g.blockBytes) +
                    "B cells=" + std::to_string(g.configs.size()));
            if (g.mattson) {
                passResults[gi] = runMattson(g);
                continue;
            }
            const auto stream = makeStream(g.blockBytes);
            if (!ladderCollapsible(*stream, g.configs))
                continue;
            PartitionOptions popt;
            popt.jobs = jobs;
            auto res =
                partitionedLadderSweep(*stream, g.configs, popt);
            if (res) {
                passResults[gi] = std::move(*res);
                partitioned[gi] = 1;
            }
        }
    } else {
        // One pass per group, fanned across the sweep workers.  A
        // group whose guard fails at run time (e.g. an FA group over
        // a trace with stores) simply stays uncovered.
        SweepOptions sopt;
        sopt.jobs = jobs;
        sopt.pool = options.pool;
        auto sweep = parallelSweep(
            groups.size(), sopt,
            [&](std::size_t gi) -> std::vector<TrafficResult> {
                const Group &g = groups[gi];
                MEMBW_SPAN_D(
                    g.mattson ? "collapse.mattson_pass"
                              : "collapse.ladder_pass",
                    "block=" + std::to_string(g.blockBytes) +
                        "B cells=" +
                        std::to_string(g.configs.size()));
                if (g.mattson)
                    return runMattson(g);
                const auto stream = makeStream(g.blockBytes);
                if (!ladderCollapsible(*stream, g.configs))
                    return {};
                return ladderSweep(*stream, g.configs);
            });
        passResults = std::move(sweep.cells);
    }

    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const Group &g = groups[gi];
        const auto &res = passResults[gi];
        if (res.empty())
            continue;
        if (g.mattson) {
            mattsonPasses_++;
        } else {
            ladderPasses_++;
            if (partitioned[gi])
                partitionedPasses_++;
        }
        for (std::size_t k = 0; k < g.indices.size(); ++k) {
            results_[g.indices[k]] = res[k];
            routes_[g.indices[k]] =
                g.mattson ? CellRoute::Mattson : CellRoute::Ladder;
            covered_++;
        }
    }
}

} // namespace membw
