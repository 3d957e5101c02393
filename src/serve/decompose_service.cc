#include "serve/decompose_service.hh"

#include "common/log.hh"
#include "dram/dram.hh"
#include "obs/epoch_profiler.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/watchdog.hh"

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

DecompositionResult
executeDecompose(const DecomposeRequest &req, const InstrStream &stream,
                 const std::function<void(std::size_t, std::size_t)>
                     &progress)
{
    ExperimentConfig cfg = decomposeConfig(req);
    cfg.core.progressEvery = 65536;
    cfg.core.progress = progress;

    CoreResult results[decompositionPhases];
    for (unsigned phase = 0; phase < decompositionPhases; ++phase) {
        // Per-phase watchdog; the cycle domain restarts at zero each
        // phase, so the guard must too.
        Watchdog watchdog(req.watchdogCycles);
        cfg.core.watchdog = &watchdog;
        results[phase] = runPhase(stream, cfg, phase);
        cfg.core.watchdog = nullptr;
    }
    return assembleDecomposition(results[0], results[1], results[2]);
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
