#include "serve/decompose_service.hh"

#include "common/log.hh"
#include "dram/dram.hh"
#include "obs/epoch_profiler.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/fault_injection.hh"

namespace membw {

void
applyDecomposeOverrides(ExperimentConfig &cfg,
                        const DecomposeOverrides &ov)
{
    if (ov.mshrs > 0)
        cfg.mem.mshrs = static_cast<unsigned>(ov.mshrs);
    if (ov.window > 0)
        cfg.core.windowSlots = static_cast<unsigned>(ov.window);
    if (ov.width > 0)
        cfg.core.issueWidth = static_cast<unsigned>(ov.width);
    if (ov.noPrefetch)
        cfg.mem.taggedPrefetch = false;
    if (ov.l1l2 > 0)
        cfg.mem.l1l2BusBytes = static_cast<Bytes>(ov.l1l2);
    if (ov.membus > 0)
        cfg.mem.memBusBytes = static_cast<Bytes>(ov.membus);
    if (!ov.dram.empty()) {
        const DramKind kind =
            ov.dram == "fpm"     ? DramKind::FastPageMode
            : ov.dram == "edo"   ? DramKind::EDO
            : ov.dram == "sdram" ? DramKind::Synchronous
            : ov.dram == "rdram"
                ? DramKind::Rambus
                : (fatal("invalid value '" + ov.dram +
                         "' for --dram: expected fpm, edo, "
                         "sdram, or rdram"),
                   DramKind::FastPageMode);
        cfg.mem.dram = DramConfig::preset(kind, cfg.cpuMHz);
    }
}

ExperimentConfig
decomposeConfig(const DecomposeRequest &req)
{
    ExperimentConfig cfg = makeExperiment(req.letter, req.spec95);
    applyDecomposeOverrides(cfg, req.overrides);
    return cfg;
}

InstrStream
buildDecomposeStream(const std::string &workload, double scale,
                     std::uint64_t seed)
{
    MEMBW_SPAN_D("stream.build", workload);
    WorkloadParams p;
    p.scale = scale;
    p.seed = seed;
    const auto run = makeWorkload(workload)->run(p);
    return InstrStream::fromRun(run, codeFootprintBytes(workload),
                                seed);
}

std::string
decomposeRequestKey(const DecomposeRequest &req)
{
    std::string key = "decompose|";
    key += req.workload;
    key += '|';
    key += decomposeConfig(req).describe();
    key += '|';
    key += std::string(1, req.letter);
    key += req.spec95 ? "|spec95|" : "|spec92|";
    key += formatJsonNumber(req.scale);
    key += '|';
    key += std::to_string(req.seed);
    key += req.stableJson ? "|stable|" : "|full|";
    key += std::to_string(req.watchdogCycles);
    return key;
}

SweepResult<CoreResult>
decomposeCells(const InstrStream &stream,
               const std::vector<ExperimentConfig> &configs,
               const SweepOptions &opt)
{
    return parallelSweep(
        configs.size() * decompositionPhases, opt,
        [&](std::size_t i) {
            MEMBW_SPAN_D("cell", decomposeCellLabel(configs, i));
            // Keyed by index, like executeSweep's cells, so
            // 'cell:at=N' hits cell N-1 at any --jobs value.
            if (MEMBW_FAULT_POINT_AT("cell", i))
                fatal("injected cell fault (cell " +
                      std::to_string(i) + ")");
            return runPhase(stream, configs[i / decompositionPhases],
                            static_cast<unsigned>(
                                i % decompositionPhases));
        });
}

std::string
decomposeCellLabel(const std::vector<ExperimentConfig> &configs,
                   std::size_t cell)
{
    return std::string("exp=") +
           configs[cell / decompositionPhases].letter + " phase=" +
           phaseName(static_cast<unsigned>(cell % decompositionPhases));
}

std::vector<DecompositionResult>
decomposeEach(const InstrStream &stream,
              const std::vector<ExperimentConfig> &configs,
              unsigned jobs)
{
    SweepOptions opt;
    opt.jobs = jobs;
    const std::vector<CoreResult> cells =
        decomposeCells(stream, configs, opt).cells;
    std::vector<DecompositionResult> out;
    out.reserve(configs.size());
    for (std::size_t e = 0; e < configs.size(); ++e)
        out.push_back(assembleDecomposition(
            cells[e * decompositionPhases],
            cells[e * decompositionPhases + 1],
            cells[e * decompositionPhases + 2]));
    return out;
}

DecompositionResult
executeDecompose(const DecomposeRequest &req, const InstrStream &stream)
{
    ExperimentConfig cfg = decomposeConfig(req);
    cfg.core.watchdogCycles = req.watchdogCycles;
    return decomposeEach(stream, {cfg}, 1).front();
}

std::string
renderDecomposeStatsJson(const DecomposeRequest &req,
                         std::size_t streamRefs,
                         const DecompositionResult &r,
                         double wallSeconds)
{
    StatsRegistry registry;
    publishDecompositionStats(registry, r);

    RunManifest manifest;
    manifest.tool = "membw_decompose";
    manifest.experiment = std::string(1, req.letter);
    manifest.workload = req.workload;
    manifest.config = decomposeConfig(req).describe();
    manifest.seed = req.seed;
    manifest.scale = req.scale;
    manifest.refs = streamRefs;
    manifest.wallSeconds = wallSeconds;
    manifest.omitTiming = req.stableJson;
    writeProfileManifest(manifest, req.stableJson);

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    manifest.write(w);
    w.key("stats");
    writeStatsArray(registry, w);
    w.endObject();
    return w.str();
}

} // namespace membw
