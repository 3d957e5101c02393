#include "exec/collapsed_sweep.hh"

#include <algorithm>
#include <map>
#include <string>

#include "cache/stack_distance.hh"
#include "common/bitops.hh"
#include "exec/fa_sweep.hh"
#include "exec/ladder_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "exec/thread_pool.hh"
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

    /** Set-range parts; empty = one fused pass. */
    std::vector<LadderPart> parts;
    std::shared_ptr<const BlockStream> stream; ///< decoded for parts
    std::vector<CacheStats> partStats;
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
        g.blockBytes = cfg.blockBytes;
        g.mattson = mattson;
        g.indices.push_back(i);
        g.configs.push_back(cfg);
    }

    std::vector<Group> groups;
    groups.reserve(grouped.size());
    for (auto &[key, g] : grouped)
        groups.push_back(std::move(g));

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

    // Plan the units.  Every Mattson group and side unit takes one
    // worker; the workers left over go to the ladder groups.  A
    // ladder group with two or more of them runs as set-range parts
    // (exact, see time_partition.hh), so a sweep of one big group
    // still uses every worker; otherwise each group is one fused pass.
    const unsigned workers = options.pool ? options.pool->threads()
                                          : std::max(options.jobs, 1u);
    const std::size_t nLadder = static_cast<std::size_t>(
        std::count_if(groups.begin(), groups.end(),
                      [](const Group &g) { return !g.mattson; }));
    const std::size_t fixed =
        groups.size() - nLadder + options.sideUnits.size();
    const std::size_t spare = workers > fixed ? workers - fixed : 0;
    const unsigned share =
        nLadder > 0 && spare > nLadder
            ? static_cast<unsigned>((spare + nLadder - 1) / nLadder)
            : 1;

    /** One unit: a side unit, a whole group, or one part of one. */
    struct Unit
    {
        std::size_t group = 0; ///< or the side unit's index
        std::size_t part = 0;
        bool side = false;
    };
    std::vector<Unit> units;
    for (std::size_t k = 0; k < options.sideUnits.size(); ++k)
        units.push_back(Unit{k, 0, true});
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        Group &g = groups[gi];
        if (g.mattson || share == 1) {
            units.push_back(Unit{gi, 0, false});
            continue;
        }
        // Every part replays the whole stream, so it is decoded (or
        // fetched) once, here on the calling thread, before any part
        // starts.  A group outside the one-pass regime stays
        // uncovered and gets no unit.
        g.stream = makeStream(g.blockBytes);
        if (!ladderCollapsible(*g.stream, g.configs))
            continue;
        g.parts = ladderParts(g.configs, share, 0);
        g.partStats.resize(g.parts.size());
        for (std::size_t k = 0; k < g.parts.size(); ++k)
            units.push_back(Unit{gi, k, false});
    }

    // One fan-out over every unit.  A group whose guard fails at run
    // time (e.g. an FA group over a trace with stores) simply stays
    // uncovered.
    SweepOptions sopt;
    sopt.jobs = workers;
    sopt.pool = options.pool;
    parallelSweep(units.size(), sopt, [&](std::size_t u) {
        const Unit &unit = units[u];
        if (unit.side) {
            options.sideUnits[unit.group]();
            return 0;
        }
        Group &g = groups[unit.group];
        if (g.mattson) {
            MEMBW_SPAN_D("collapse.mattson_pass",
                         "block=" + std::to_string(g.blockBytes) +
                             "B cells=" +
                             std::to_string(g.configs.size()));
            g.results = runMattson(g);
        } else if (g.parts.empty()) {
            const auto detail = [&] {
                return "block=" + std::to_string(g.blockBytes) +
                       "B cells=" + std::to_string(g.configs.size());
            };
            MEMBW_SPAN_D("collapse.ladder_pass", detail());
            const auto stream = makeStream(g.blockBytes);
            if (ladderCollapsible(*stream, g.configs)) {
                std::uint64_t visits = 0;
                g.results = ladderSweep(*stream, g.configs, &visits);
                // The share of (reference, config) pairs the filter
                // cascade replayed.
                const std::uint64_t pairs =
                    stream->refs * g.configs.size();
                if (tracingActive() && pairs > 0)
                    tracingSetSpanDetail(
                        (detail() + " visits=" +
                         std::to_string(visits * 100 / pairs) + "%")
                            .c_str());
            }
        } else {
            const LadderPart &part = g.parts[unit.part];
            MEMBW_SPAN_D("collapse.ladder_part",
                         "block=" + std::to_string(g.blockBytes) +
                             "B cell=" + std::to_string(part.cfg) +
                             " sets=" + std::to_string(part.setLo) +
                             "+" + std::to_string(part.setSpan));
            g.partStats[unit.part] =
                runLadderPart(*g.stream, g.configs[part.cfg], part);
        }
        return 0;
    });

    for (Group &g : groups) {
        if (!g.parts.empty())
            g.results = mergeLadderParts(*g.stream, g.configs.size(),
                                         g.parts, g.partStats);
        if (g.results.empty())
            continue;
        if (g.mattson) {
            mattsonPasses_++;
        } else {
            ladderPasses_++;
            if (!g.parts.empty())
                partitionedPasses_++;
        }
        for (std::size_t k = 0; k < g.indices.size(); ++k) {
            results_[g.indices[k]] = g.results[k];
            routes_[g.indices[k]] =
                g.mattson ? CellRoute::Mattson : CellRoute::Ladder;
            covered_++;
        }
    }
}

} // namespace membw
