#include "serve/sweep_service.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/exit_codes.hh"
#include "resilience/fault_injection.hh"

namespace membw {

std::vector<Bytes>
resolveSweepBlocks(const SweepRequest &req)
{
    return req.blocks.empty() ? std::vector<Bytes>{req.l1.blockBytes}
                              : req.blocks;
}

CacheConfig
sweepConfigFor(const SweepRequest &req, const std::vector<Bytes> &blocks,
               std::size_t cell)
{
    CacheConfig cfg = req.l1;
    cfg.size = req.sizes[cell / blocks.size()];
    cfg.blockBytes = blocks[cell % blocks.size()];
    return cfg;
}

std::string
sweepRequestKey(const SweepRequest &req)
{
    // Every field that changes the stable response bytes, joined with
    // an unambiguous separator.  scale goes through the JSON number
    // formatter so 0.05 and 0.050 collide (they render identically).
    std::string key = "sweep|";
    key += req.workload;
    key += '|';
    key += req.label.empty() ? req.workload : req.label;
    key += '|';
    key += formatJsonNumber(req.scale);
    key += '|';
    key += std::to_string(req.seed);
    key += '|';
    key += req.l1.describe();
    key += '|';
    for (Bytes b : req.sizes) {
        key += formatSize(b);
        key += ',';
    }
    key += '|';
    for (Bytes b : resolveSweepBlocks(req)) {
        key += formatSize(b);
        key += ',';
    }
    key += '|';
    key += req.runMtc ? "mtc" : "-";
    key += req.stableJson ? "|stable" : "|full";
    key += req.noCollapse ? "|nocollapse" : "|collapse";
    key += '|';
    key += std::to_string(req.eventBudget);
    return key;
}

namespace {

/** A hierarchy cell no one-pass engine covered: a fresh hierarchy
 * over the shared trace, honouring the per-reference watchdog
 * budget. */
TrafficResult
runHierarchyCell(const Trace &trace,
                 const std::vector<CacheConfig> &levels,
                 std::uint64_t eventBudget)
{
    MEMBW_SPAN_D("cache.run_trace", describeLevels(levels));
    CacheHierarchy hier(levels);
    hier.setEventBudget(eventBudget);
    for (const MemRef &ref : trace)
        hier.access(ref);
    hier.flush();
    return hier.summarize();
}

} // namespace

TraceCellsOut
traceCells(const Trace &trace, const std::vector<TraceCell> &cells,
           const TraceCellOptions &opt)
{
    // The single-level hierarchy cells are the collapse candidates:
    // slot[i] is cell i's index among them.  MIN cells of one block
    // size share a next-use table (pass one of the two-pass MIN
    // simulation depends only on the trace and the granularity):
    // table[i] is cell i's index into grains.
    const std::size_t none = cells.size();
    std::vector<CacheConfig> cfgs;
    std::vector<std::size_t> slot(cells.size(), none);
    std::vector<Bytes> grains;
    std::vector<std::size_t> table(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (const auto *min = std::get_if<MinCacheConfig>(&cells[i])) {
            const auto it =
                std::find(grains.begin(), grains.end(), min->blockBytes);
            table[i] = static_cast<std::size_t>(it - grains.begin());
            if (it == grains.end())
                grains.push_back(min->blockBytes);
            continue;
        }
        const auto &levels = std::get<std::vector<CacheConfig>>(cells[i]);
        if (levels.size() == 1 && !opt.noCollapse) {
            slot[i] = cfgs.size();
            cfgs.push_back(levels.front());
        }
    }

    // Route every coverable cell to an exact one-pass engine: FA-LRU
    // groups over load-only traces collapse into Mattson
    // stack-distance passes and set-associative LRU groups into
    // chunked ladder-kernel passes.  The next-use tables build
    // beside them, in the same fan-out.
    std::vector<NextUseTable> tables(grains.size());
    CollapseOptions copt;
    copt.jobs = opt.sweep.jobs;
    copt.pool = opt.sweep.pool;
    copt.streamProvider = opt.streamProvider;
    copt.profileProvider = opt.profileProvider;
    for (std::size_t g = 0; g < grains.size(); ++g)
        copt.sideUnits.push_back([&, g] {
            tables[g] = opt.nextUseProvider
                            ? opt.nextUseProvider(grains[g])
                            : makeNextUseTable(trace, grains[g]);
        });
    TraceCellsOut out;
    out.collapsed = CollapsedSweep(trace, cfgs, copt);
    if (opt.onPlan)
        opt.onPlan(out.collapsed);
    const CollapsedSweep &collapsed = out.collapsed;

    // Per-cell span detail: config, routing decision, and a short
    // config digest so Perfetto rows tie back to exact cells.
    [[maybe_unused]] auto cellDetail = [&](std::size_t i) {
        char buf[traceDetailBytes];
        if (const auto *min = std::get_if<MinCacheConfig>(&cells[i])) {
            std::snprintf(buf, sizeof(buf),
                          "cfg=%s/mtc route=mtc d=%08llx",
                          formatSize(min->size).c_str(),
                          static_cast<unsigned long long>(
                              fnv1a64(min->describe()) & 0xffffffffu));
        } else {
            const auto &levels =
                std::get<std::vector<CacheConfig>>(cells[i]);
            std::snprintf(buf, sizeof(buf),
                          "cfg=%s/%s route=%s d=%08llx",
                          formatSize(levels.front().size).c_str(),
                          formatSize(levels.front().blockBytes).c_str(),
                          cellRouteName(collapsed.route(slot[i])),
                          static_cast<unsigned long long>(
                              fnv1a64(describeLevels(levels)) &
                              0xffffffffu));
        }
        return std::string(buf);
    };

    static_cast<SweepResult<SweepCellOut> &>(out) = parallelSweep(
        cells.size(), opt.sweep, [&](std::size_t i) -> SweepCellOut {
            MEMBW_SPAN_D("cell", cellDetail(i));
            // First thing in the cell so an injected fault covers
            // every route (ladder/Mattson lookups included), keyed by
            // index so 'cell:at=N' hits cell N-1 at any --jobs value.
            if (MEMBW_FAULT_POINT_AT("cell", i))
                fatal("injected cell fault (cell " +
                      std::to_string(i) + ")");
            SweepCellOut cell;
            if (const auto *min = std::get_if<MinCacheConfig>(&cells[i]))
                cell.mtc = runMinCache(trace, *min, tables[table[i]]);
            else if (collapsed.has(slot[i]))
                cell.traffic = collapsed.result(slot[i]);
            else
                cell.traffic = runHierarchyCell(
                    trace, std::get<std::vector<CacheConfig>>(cells[i]),
                    opt.eventBudget);
            return cell;
        });
    return out;
}

SweepOutcome
executeSweep(const SweepRequest &req, const Trace &trace,
             const SweepExecOptions &opts)
{
    SweepOutcome out;
    out.blocks = resolveSweepBlocks(req);
    out.nHier = req.sizes.size() * out.blocks.size();
    out.nCells = out.nHier + (req.runMtc ? req.sizes.size() : 0);

    // The hierarchy cells, then the MTC cells.  Every geometry is
    // validated up front: one clear diagnostic on the calling thread
    // instead of an exception out of a worker.
    std::vector<TraceCell> cells;
    cells.reserve(out.nCells);
    for (std::size_t i = 0; i < out.nHier; ++i) {
        const CacheConfig cfg = sweepConfigFor(req, out.blocks, i);
        cfg.validate();
        cells.push_back(std::vector<CacheConfig>{cfg});
    }
    if (req.runMtc)
        for (Bytes size : req.sizes)
            cells.push_back(canonicalMtc(size));

    TraceCellOptions topt;
    topt.sweep.jobs = opts.jobs;
    topt.sweep.pool = opts.pool;
    // Degraded mode: a failing cell is recorded and the sweep carries
    // on (exit 5), but a watchdog trip is a simulator bug and must
    // still abort the whole run with exit 4.
    topt.sweep.tolerateCellFailures = true;
    topt.sweep.abortAnyway = [](const std::exception &e) {
        return dynamic_cast<const WatchdogError *>(&e) != nullptr;
    };
    topt.sweep.cancel = opts.cancel;
    topt.sweep.onPrefix = opts.onPrefix;
    topt.noCollapse = req.noCollapse;
    topt.eventBudget = req.eventBudget;
    if (opts.onPlan)
        topt.onPlan = [&](const CollapsedSweep &collapsed) {
            opts.onPlan(collapsed, out.nHier, out.nCells);
        };
    topt.streamProvider = opts.streamProvider;
    topt.profileProvider = opts.profileProvider;
    topt.nextUseProvider = opts.nextUseProvider;

    MEMBW_SPAN("run");
    WallTimer timer;
    TraceCellsOut run = traceCells(trace, cells, topt);
    out.collapsed = std::move(run.collapsed);

    // --sigterm-after fires once the completed prefix reaches N, but
    // with jobs > 1 in-flight cells drain past it; truncate to
    // exactly N so every --jobs value reports the same cells.
    const bool sigFired =
        opts.sigtermAfter && run.completed >= opts.sigtermAfter;
    out.completed = run.completed;
    out.usable = run.completed;
    if (sigFired && out.usable > opts.sigtermAfter)
        out.usable = static_cast<std::size_t>(opts.sigtermAfter);
    out.interrupted = run.interrupted || sigFired;

    // Tolerated failures inside the usable prefix degrade the run:
    // their cells render as "fail", their stats are omitted, and the
    // caller exits with code 5.
    out.cells = std::move(run.cells);
    out.failedCells = std::move(run.failedCells);
    out.cellFailed.assign(out.nCells, 0);
    for (const CellFailure &f : out.failedCells)
        if (f.cell < out.usable) {
            out.cellFailed[f.cell] = 1;
            ++out.nFailed;
        }
    out.degraded = out.nFailed > 0;
    out.wallSeconds = timer.seconds();
    return out;
}

std::string
renderSweepStatsJson(const SweepRequest &req, std::size_t traceRefs,
                     const SweepOutcome &o)
{
    const std::vector<Bytes> &blocks = o.blocks;
    StatsRegistry registry;
    for (std::size_t i = 0; i < o.usable && i < o.nHier; ++i) {
        if (o.cellFailed[i])
            continue;
        const CacheConfig cfg = sweepConfigFor(req, blocks, i);
        StatsGroup g =
            registry.group("sweep." + formatSize(cfg.size) + "." +
                           formatSize(cfg.blockBytes));
        publishStats(g, o.cells[i].traffic);
    }
    for (std::size_t i = o.nHier; i < o.usable; ++i) {
        if (o.cellFailed[i])
            continue;
        StatsGroup g = registry.group(
            "sweep.mtc." + formatSize(req.sizes[i - o.nHier]));
        publishMinCacheStats(g, o.cells[i].mtc);
    }

    RunManifest manifest;
    manifest.tool = "membw_sim";
    manifest.workload = req.label.empty() ? req.workload : req.label;
    manifest.config = req.l1.describe() + " [sweep]";
    manifest.seed = req.seed;
    manifest.scale = req.scale;
    manifest.refs = traceRefs;
    manifest.wallSeconds = o.wallSeconds;
    manifest.interrupted = o.interrupted;
    manifest.degraded = o.degraded;
    manifest.omitTiming = req.stableJson;
    // --jobs is deliberately not recorded: the JSON must be
    // byte-identical at any worker count.
    auto joinSizes = [](const std::vector<Bytes> &v) {
        std::string s;
        for (Bytes b : v) {
            if (!s.empty())
                s += ',';
            s += formatSize(b);
        }
        return s;
    };
    manifest.set("sweep_sizes", joinSizes(req.sizes));
    manifest.set("sweep_blocks", joinSizes(blocks));
    manifest.set("sweep_cells", std::to_string(o.nCells));
    manifest.set("sweep_completed", std::to_string(o.usable));
    if (o.collapsed.mattsonPasses() > 0)
        manifest.set("fa_collapse", "stack-distance");
    // Run attribution: how the trace reached the simulator.  It
    // describes this execution rather than the computed result, so —
    // like wall_seconds — it is omitted under --stable-json.
    if (!req.stableJson)
        manifest.set("trace_format", req.traceFormat);

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    manifest.write(w);
    // Tolerated failures, in cell-index order.  Deterministic
    // (the fault plan and cell geometry are), so it stays in the
    // --stable-json output and the equivalence tests can
    // byte-diff degraded runs across --jobs values.
    if (o.degraded) {
        w.key("failed_cells");
        w.beginArray();
        for (const CellFailure &f : o.failedCells) {
            if (f.cell >= o.usable)
                continue;
            w.beginObject();
            w.field("cell", static_cast<std::uint64_t>(f.cell));
            w.field("config",
                    f.cell >= o.nHier
                        ? canonicalMtc(req.sizes[f.cell - o.nHier])
                              .describe()
                        : sweepConfigFor(req, blocks, f.cell)
                              .describe());
            w.field("error", f.message);
            w.endObject();
        }
        w.endArray();
    }
    // Per-cell kernel routing.  Describes how this run executed
    // rather than what it computed, so — like wall_seconds — it
    // is omitted under --stable-json (the equivalence tests
    // byte-diff that output across --jobs and --no-collapse).
    if (!req.stableJson) {
        std::size_t nLadder = 0, nMattson = 0, nDirect = 0;
        for (std::size_t i = 0; i < o.usable && i < o.nHier; ++i) {
            switch (o.collapsed.route(i)) {
            case CellRoute::Ladder:
                nLadder++;
                break;
            case CellRoute::Mattson:
                nMattson++;
                break;
            case CellRoute::Direct:
                nDirect++;
                break;
            }
        }
        const std::size_t nMtc =
            o.usable > o.nHier ? o.usable - o.nHier : 0;
        w.key("routing");
        w.beginObject();
        w.field("ladder", static_cast<std::uint64_t>(nLadder));
        w.field("mattson", static_cast<std::uint64_t>(nMattson));
        w.field("direct", static_cast<std::uint64_t>(nDirect));
        w.field("mtc", static_cast<std::uint64_t>(nMtc));
        w.field("ladder_passes",
                static_cast<std::uint64_t>(
                    o.collapsed.ladderPasses()));
        w.field("mattson_passes",
                static_cast<std::uint64_t>(
                    o.collapsed.mattsonPasses()));
        w.endObject();
    }
    w.key("stats");
    writeStatsArray(registry, w);
    w.endObject();
    return w.str();
}

} // namespace membw
