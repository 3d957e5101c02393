/**
 * @file
 * membw_sim — DineroIII-style command-line trace-driven simulator.
 *
 * Drives the membw functional cache (and optionally the
 * minimal-traffic cache) over a synthetic workload or a saved trace:
 *
 *   membw_sim --workload Compress --size 64K --assoc 1 --block 32
 *   membw_sim --workload Swm --l2-size 1M --l2-block 64 --l2-assoc 4
 *   membw_sim --load-trace refs.mbwt --size 8K --mtc
 *   membw_sim --workload Eqntott --save-trace refs.mbwt
 *
 * Saved traces use the one membw binary format (varint-compact,
 * see trace/trace_io.hh); a loaded trace then runs exactly like a
 * generated one.
 *
 * Long runs are fault tolerant: --checkpoint/--checkpoint-every
 * snapshot the full simulation state at reference granularity,
 * --resume restarts from a snapshot (producing output byte-identical
 * to an uninterrupted run with --stable-json), and SIGINT/SIGTERM
 * drain the current reference, write a final checkpoint plus partial
 * stats, and exit with a distinct code (see --help).
 *
 * Run with --help for the full flag list.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "exec/collapsed_sweep.hh"
#include "exec/thread_pool.hh"
#include "mtc/min_cache.hh"
#include "obs/build_info.hh"
#include "obs/emit.hh"
#include "obs/epoch_profiler.hh"
#include "obs/export.hh"
#include "obs/manifest.hh"
#include "obs/profile_sources.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace_export.hh"
#include "obs/trace_span.hh"
#include "resilience/checkpoint.hh"
#include "resilience/exit_codes.hh"
#include "resilience/fault_injection.hh"
#include "resilience/signals.hh"
#include "serve/sweep_service.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "membw_sim — trace-driven cache simulator "
        "(Burger/Goodman/Kagi ISCA'96 reproduction)\n\n"
        "Trace source (choose one):\n"
        "  --workload NAME     synthetic kernel (see --list)\n"
        "  --load-trace FILE   previously saved binary trace\n"
        "  --list              list workload names and exit\n\n"
        "Generation:\n"
        "  --scale S           trace-length scale (default 1.0)\n"
        "  --seed N            generation seed (default 42)\n"
        "  --save-trace FILE   write the trace (varint-compact "
        "binary) and exit\n\n"
        "L1 cache (defaults: 64K/1way/32B WB-WA LRU):\n"
        "  --size BYTES        e.g. 64K, 1M, 8192\n"
        "  --assoc N           0 = fully associative\n"
        "  --block BYTES\n"
        "  --sector BYTES      sub-block transfer size (0 = off)\n"
        "  --repl lru|fifo|random\n"
        "  --write wb|wt\n"
        "  --alloc wa|wna|wv\n"
        "  --prefetch          tagged sequential prefetch\n"
        "  --stream-buffers N  Jouppi stream buffers\n"
        "  --stream-depth N    blocks per stream (default 4)\n\n"
        "Optional L2 (enables a two-level hierarchy):\n"
        "  --l2-size BYTES --l2-assoc N --l2-block BYTES\n\n"
        "Analysis:\n"
        "  --mtc               also run the same-size minimal-traffic "
        "cache\n"
        "  --pin-bandwidth MBs physical pin bandwidth for E_pin "
        "(default 800)\n\n"
        "Sweep mode (multi-config, one shared trace):\n"
        "  --sweep-sizes LIST  comma-separated L1 sizes "
        "(e.g. 1K,64K,1M);\n"
        "                      one cell per size x block, fanned "
        "across --jobs\n"
        "                      workers; with --mtc, one extra MTC "
        "cell per size.\n"
        "                      Fully-associative LRU load-only "
        "sweeps collapse\n"
        "                      into a single stack-distance pass; "
        "set-associative\n"
        "                      LRU cells (except write-validate) "
        "collapse into\n"
        "                      one-pass ladder kernels.\n"
        "  --no-collapse       force direct per-cell simulation "
        "(disable the\n"
        "                      exact one-pass sweep engines)\n"
        "  --sweep-blocks LIST comma-separated block sizes "
        "(default: --block)\n"
        "  --jobs N            sweep workers (default: hardware "
        "concurrency,\n"
        "                      max 256).  Output is byte-identical "
        "at any N.\n"
        "                      --jobs 0 and oversubscribed counts "
        "are rejected\n"
        "                      as invalid input (exit 1).  Sweep "
        "mode excludes\n"
        "                      --checkpoint/--resume and --l2-*.\n\n"
        "Fault tolerance:\n"
        "  --checkpoint FILE   snapshot simulation state to FILE\n"
        "  --checkpoint-every N  snapshot every N references "
        "(default 1000000 when --checkpoint is given)\n"
        "  --resume FILE       restore state from FILE and continue\n"
        "  --watchdog N        per-reference downstream-event budget "
        "(default 1000000; 0 disables)\n"
        "  --sigterm-after N   raise SIGTERM after N references "
        "(deterministic shutdown testing;\n"
        "                      in sweep mode N counts completed "
        "cells and output is\n"
        "                      truncated to exactly N cells at any "
        "--jobs value)\n"
        "  --fault-inject SPEC arm deterministic fault injection; "
        "SPEC is a comma-\n"
        "                      separated list of site:trigger=value "
        "clauses, e.g.\n"
        "                      'enospc:at=1' or "
        "'crash:at=5000,seed=7' (sites and\n"
        "                      triggers: docs/resilience.md)\n\n"
        "Telemetry:\n"
        "  --stats-json FILE   write manifest + full stats as JSON\n"
        "  --stable-json       omit wall-clock fields from the JSON "
        "(byte-identical across reruns)\n"
        "  --stats-every N     stderr progress line every N refs\n"
        "  --trace-out FILE    write a Chrome trace-event JSON "
        "(load in Perfetto;\n"
        "                      inspect with membw_report)\n"
        "  --profile-out FILE  write per-epoch model telemetry JSON "
        "(per-level\n"
        "                      traffic, R_i, heatmaps; inspect with "
        "membw_report)\n"
        "  --profile-epoch N   simulated references per epoch "
        "(default 65536)\n\n"
        "Provenance:\n"
        "  --version           print tool version and git describe\n"
        "  --build-info        print build flags (tracing, "
        "sanitizer)\n\n"
        "%s",
        exitCodeHelp);
    std::exit(code);
}

/** Report a malformed flag value and die: names the flag, echoes the
 * offending value, and shows a working example. */
[[noreturn]] void
badFlag(const std::string &flag, const std::string &value,
        const Error &error, const std::string &example)
{
    fatal("invalid value '" + value + "' for " + flag + ": " +
          error.message + " (example: " + flag + " " + example + ")");
}

Bytes
sizeFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseSize(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "64K");
    return r.value();
}

std::uint64_t
countFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseU64(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "100000");
    return r.value();
}

unsigned
smallFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseInt(value, 0, 1 << 20);
    if (!r.ok())
        badFlag(flag, value, r.error(), "4");
    return static_cast<unsigned>(r.value());
}

double
scaleFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseScale(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "1.0");
    return r.value();
}

double
doubleFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseDouble(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "1.0");
    return r.value();
}

std::vector<Bytes>
sizeListFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseSizeList(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "1K,64K,1M");
    return r.value();
}

unsigned
jobsFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseJobs(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "4");
    return r.value();
}

struct Options
{
    std::string workload;
    std::string loadTrace;
    std::string saveTrace;
    double scale = 1.0;
    std::uint64_t seed = 42;
    CacheConfig l1;
    bool haveL2 = false;
    CacheConfig l2;
    bool runMtc = false;
    bool noCollapse = false;
    double pinBandwidthMBs = 800.0;
    std::vector<Bytes> sweepSizes;  ///< non-empty = sweep mode
    std::vector<Bytes> sweepBlocks; ///< default: the single --block
    unsigned jobs = defaultJobs();
    std::string statsJson;
    bool stableJson = false;
    std::uint64_t statsEvery = 0;
    std::string traceOut;
    std::string profileOut;
    std::uint64_t profileEpoch = 0;
    std::string checkpoint;
    std::uint64_t checkpointEvery = 0;
    std::string resume;
    std::uint64_t eventBudget = 1'000'000;
    std::uint64_t sigtermAfter = 0;
    std::string faultInject;
    /// How the trace reached the simulator ("generated" or
    /// "binary"); recorded in non-stable stats-JSON manifests.
    std::string traceFormat = "generated";
};

Options
parse(int argc, char **argv)
{
    Options o;
    o.l1.name = "L1";
    o.l1.size = 64_KiB;
    o.l2.name = "L2";
    o.l2.size = 1_MiB;
    o.l2.assoc = 4;
    o.l2.blockBytes = 64;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            emitLinef("missing value for %s (run --help for the "
                      "flag list)",
                      argv[i]);
            std::exit(exitUsage);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(exitOk);
        } else if (a == "--version") {
            std::printf("%s\n",
                        formatVersionLine("membw_sim").c_str());
            std::exit(exitOk);
        } else if (a == "--build-info") {
            std::printf("%s", formatBuildInfo("membw_sim").c_str());
            std::exit(exitOk);
        } else if (a == "--list") {
            for (const auto &n : allWorkloadNames())
                std::printf("%s\n", n.c_str());
            std::exit(exitOk);
        } else if (a == "--workload") {
            o.workload = need(i);
        } else if (a == "--load-trace") {
            o.loadTrace = need(i);
        } else if (a == "--save-trace") {
            o.saveTrace = need(i);
        } else if (a == "--scale") {
            o.scale = scaleFlag(a, need(i));
        } else if (a == "--seed") {
            o.seed = countFlag(a, need(i));
        } else if (a == "--size") {
            o.l1.size = sizeFlag(a, need(i));
        } else if (a == "--assoc") {
            o.l1.assoc = smallFlag(a, need(i));
        } else if (a == "--block") {
            o.l1.blockBytes = sizeFlag(a, need(i));
        } else if (a == "--sector") {
            o.l1.sectorBytes = sizeFlag(a, need(i));
        } else if (a == "--repl") {
            const std::string v = need(i);
            o.l1.repl = v == "lru"    ? ReplPolicy::LRU
                        : v == "fifo" ? ReplPolicy::FIFO
                        : v == "random"
                            ? ReplPolicy::Random
                            : (fatal("invalid value '" + v +
                                     "' for --repl: expected lru, "
                                     "fifo, or random"),
                               ReplPolicy::LRU);
        } else if (a == "--write") {
            const std::string v = need(i);
            o.l1.write = v == "wb"   ? WritePolicy::WriteBack
                         : v == "wt" ? WritePolicy::WriteThrough
                                     : (fatal("invalid value '" + v +
                                              "' for --write: "
                                              "expected wb or wt"),
                                        WritePolicy::WriteBack);
        } else if (a == "--alloc") {
            const std::string v = need(i);
            o.l1.alloc = v == "wa"    ? AllocPolicy::WriteAllocate
                         : v == "wna" ? AllocPolicy::WriteNoAllocate
                         : v == "wv"  ? AllocPolicy::WriteValidate
                                      : (fatal("invalid value '" + v +
                                               "' for --alloc: "
                                               "expected wa, wna, or "
                                               "wv"),
                                         AllocPolicy::WriteAllocate);
        } else if (a == "--prefetch") {
            o.l1.taggedPrefetch = true;
        } else if (a == "--stream-buffers") {
            o.l1.streamBuffers = smallFlag(a, need(i));
        } else if (a == "--stream-depth") {
            o.l1.streamDepth = smallFlag(a, need(i));
        } else if (a == "--l2-size") {
            o.l2.size = sizeFlag(a, need(i));
            o.haveL2 = true;
        } else if (a == "--l2-assoc") {
            o.l2.assoc = smallFlag(a, need(i));
            o.haveL2 = true;
        } else if (a == "--l2-block") {
            o.l2.blockBytes = sizeFlag(a, need(i));
            o.haveL2 = true;
        } else if (a == "--mtc") {
            o.runMtc = true;
        } else if (a == "--no-collapse") {
            o.noCollapse = true;
        } else if (a == "--sweep-sizes") {
            o.sweepSizes = sizeListFlag(a, need(i));
        } else if (a == "--sweep-blocks") {
            o.sweepBlocks = sizeListFlag(a, need(i));
        } else if (a == "--jobs") {
            o.jobs = jobsFlag(a, need(i));
        } else if (a == "--pin-bandwidth") {
            o.pinBandwidthMBs = doubleFlag(a, need(i));
        } else if (a == "--stats-json") {
            o.statsJson = need(i);
        } else if (a == "--stable-json") {
            o.stableJson = true;
        } else if (a == "--stats-every") {
            o.statsEvery = countFlag(a, need(i));
        } else if (a == "--trace-out") {
            o.traceOut = need(i);
        } else if (a == "--profile-out") {
            o.profileOut = need(i);
        } else if (a == "--profile-epoch") {
            o.profileEpoch = countFlag(a, need(i));
        } else if (a == "--checkpoint") {
            o.checkpoint = need(i);
        } else if (a == "--checkpoint-every") {
            o.checkpointEvery = countFlag(a, need(i));
        } else if (a == "--resume") {
            o.resume = need(i);
        } else if (a == "--watchdog") {
            o.eventBudget = countFlag(a, need(i));
        } else if (a == "--sigterm-after") {
            o.sigtermAfter = countFlag(a, need(i));
        } else if (a == "--fault-inject") {
            o.faultInject = need(i);
        } else {
            emitLinef("unknown flag '%s' (run --help for the flag "
                      "list)",
                      a.c_str());
            std::exit(exitUsage);
        }
    }
    if (o.workload.empty() && o.loadTrace.empty())
        usage(exitUsage);
    if (!o.checkpoint.empty() && o.checkpointEvery == 0)
        o.checkpointEvery = 1'000'000;
    if (o.profileEpoch && o.profileOut.empty())
        fatal("--profile-epoch requires --profile-out");
    if (!o.profileOut.empty() && o.profileEpoch == 0)
        o.profileEpoch = 65536;
    return o;
}

/** Simulation phases, in execution order. */
enum : std::uint8_t
{
    phaseHierarchy = 0,
    phaseMtc = 1,
};

/**
 * Everything the run needs to persist and verify.  The identity
 * fields (trace CRC + config digest) prove a --resume replays the
 * same input under the same configuration.
 */
struct RunState
{
    std::uint32_t traceCrc = 0;
    std::uint64_t configDigest = 0;
    std::uint8_t phase = phaseHierarchy;
    std::uint64_t cursor = 0; ///< refs consumed in the active phase
    TrafficResult hierResult; ///< valid once phase > phaseHierarchy
};

void
writeCheckpoint(const Options &o, const RunState &state,
                const CacheHierarchy *hier, const MinCacheSim *mtc)
{
    MEMBW_SPAN("checkpoint.write");
    ChkWriter w;
    w.beginSection(chkTag("META"));
    w.str("membw_sim");
    w.u32(state.traceCrc);
    w.u64(state.configDigest);
    w.u8(state.phase);
    w.u64(state.cursor);
    w.endSection();

    if (state.phase == phaseHierarchy) {
        hier->saveState(w);
    } else {
        saveTrafficResult(w, state.hierResult);
        mtc->saveState(w);
    }
    if (const EpochProfiler *prof = profilerActive())
        prof->saveState(w);

    auto result = w.writeFile(o.checkpoint);
    if (!result.ok())
        fatal("checkpoint failed: " + result.error().describe());
}

void
loadCheckpoint(const Options &o, RunState &state, CacheHierarchy &hier,
               MinCacheSim *mtc)
{
    MEMBW_SPAN("checkpoint.load");
    auto opened = ChkReader::fromFile(o.resume);
    if (!opened.ok())
        fatal("cannot resume from '" + o.resume +
              "': " + opened.error().describe());
    ChkReader r = std::move(opened.value());

    r.enterSection(chkTag("META"));
    const std::string tool = r.str();
    const std::uint32_t crc = r.u32();
    const std::uint64_t digest = r.u64();
    state.phase = r.u8();
    state.cursor = r.u64();
    r.leaveSection();

    if (r.failed())
        fatal("cannot resume from '" + o.resume +
              "': " + r.error().describe());
    if (tool != "membw_sim")
        fatal("cannot resume from '" + o.resume +
              "': checkpoint was written by '" + tool + "'");
    if (crc != state.traceCrc)
        fatal("cannot resume from '" + o.resume +
              "': checkpoint was taken over a different trace "
              "(CRC mismatch — same workload/scale/seed or trace "
              "file required)");
    if (digest != state.configDigest)
        fatal("cannot resume from '" + o.resume +
              "': checkpoint was taken under a different cache "
              "configuration");
    if (state.phase == phaseMtc && !o.runMtc)
        fatal("cannot resume from '" + o.resume +
              "': checkpoint is in the MTC phase but --mtc was not "
              "given");

    if (state.phase == phaseHierarchy) {
        hier.loadState(r);
    } else {
        loadTrafficResult(r, state.hierResult);
        if (mtc)
            mtc->loadState(r);
    }
    if (EpochProfiler *prof = profilerActive()) {
        if (r.remaining() == 0)
            fatal("cannot resume from '" + o.resume +
                  "': checkpoint carries no profiler state (was "
                  "the interrupted run started without "
                  "--profile-out?)");
        prof->loadState(r);
    } else if (r.remaining() != 0) {
        fatal("cannot resume from '" + o.resume +
              "': checkpoint carries profiler state; rerun with "
              "the interrupted run's --profile-out/--profile-epoch");
    }
    if (r.failed())
        fatal("cannot resume from '" + o.resume +
              "': " + r.error().describe());
}

void
writeStatsJson(const Options &o, const RunState &state,
               const Trace &trace, const TrafficResult *traffic,
               const MinCacheStats *mtc, double wallSeconds,
               bool interrupted)
{
    StatsRegistry registry;
    if (traffic)
        publishStats(registry, *traffic);
    if (mtc) {
        StatsGroup mtcGroup = registry.group("mtc");
        publishMinCacheStats(mtcGroup, *mtc);
    }

    RunManifest manifest;
    manifest.tool = "membw_sim";
    manifest.workload = o.workload.empty() ? o.loadTrace : o.workload;
    manifest.config = o.l1.describe();
    if (o.haveL2)
        manifest.config += " + " + o.l2.describe();
    manifest.seed = o.seed;
    manifest.scale = o.scale;
    manifest.refs = trace.size();
    manifest.wallSeconds = wallSeconds;
    manifest.interrupted = interrupted;
    manifest.omitTiming = o.stableJson;
    if (interrupted) {
        manifest.set("interrupted_phase",
                     state.phase == phaseHierarchy ? "hierarchy"
                                                   : "mtc");
    }
    if (o.runMtc)
        manifest.set("mtc_config", canonicalMtc(o.l1.size).describe());
    // Execution provenance (how the trace arrived) describes this run
    // rather than what it computed, so it is omitted under
    // --stable-json like wall_seconds.
    if (!o.stableJson)
        manifest.set("trace_format", o.traceFormat);
    writeProfileManifest(manifest, o.stableJson);

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    manifest.write(w);
    w.key("stats");
    writeStatsArray(registry, w);
    w.endObject();
    writeFileOrDie(o.statsJson, w.str());
}

/**
 * Drain point: called between references once a SIGINT/SIGTERM has
 * been latched.  Persists a final checkpoint and partial stats, then
 * exits with the interrupted code.
 */
[[noreturn]] void
shutdownNow(const Options &o, const RunState &state, const Trace &trace,
            const CacheHierarchy *hier, const MinCacheSim *mtc,
            double wallSeconds)
{
    tracingInstant("shutdown", shutdownSignalName());
    tracingCounter("sim.refs", static_cast<double>(state.cursor));
    emitLinef("\n%s received: drained reference %llu, shutting "
              "down",
              shutdownSignalName(),
              static_cast<unsigned long long>(state.cursor));
    if (!o.checkpoint.empty()) {
        writeCheckpoint(o, state, hier, mtc);
        emitLinef("final checkpoint: %s", o.checkpoint.c_str());
    }
    if (!o.statsJson.empty()) {
        // Partial snapshot: hierarchy stats straight off the live
        // caches (no flush), or the completed hierarchy result plus
        // a conservative MTC snapshot.
        if (state.phase == phaseHierarchy) {
            const TrafficResult partial = hier->summarize();
            writeStatsJson(o, state, trace, &partial, nullptr,
                           wallSeconds, true);
        } else {
            const MinCacheStats partial = mtc->finalize();
            writeStatsJson(o, state, trace, &state.hierResult,
                           &partial, wallSeconds, true);
        }
        emitLinef("partial stats: %s", o.statsJson.c_str());
    }
    std::exit(exitInterrupted);
}

/**
 * Multi-config sweep mode: one cell per (size, block) pair — plus one
 * MTC cell per size with --mtc — fanned across --jobs workers over
 * the shared read-only trace.  Results are consumed in submission
 * order, so stdout and --stats-json are byte-identical at any --jobs
 * value; --sigterm-after N truncates output to exactly N completed
 * cells for jobs-independent shutdown testing.
 *
 * The engine is the shared serve-layer pair
 * executeSweep()/renderSweepStatsJson() — the same calls the
 * membw_served daemon makes, which is what keeps served responses
 * byte-identical to this tool's --stats-json output.  The tool owns
 * only stdout narration, telemetry sampling, the SIGTERM wiring, and
 * exit codes.
 */
int
runSweep(const Options &o, const Trace &trace)
{
    if (!o.checkpoint.empty() || !o.resume.empty())
        fatal("sweep mode does not support --checkpoint/--resume: "
              "individual cells are cheap to rerun, so drop those "
              "flags (or run single-config)");
    if (o.haveL2)
        fatal("sweep mode is single-level: drop the --l2-* flags");
    if (!o.profileOut.empty())
        fatal("sweep mode does not support --profile-out: cells run "
              "concurrently and share no reference clock (profile a "
              "single-config run instead)");

    SweepRequest req;
    req.workload = o.workload;
    req.label = o.workload.empty() ? o.loadTrace : o.workload;
    req.scale = o.scale;
    req.seed = o.seed;
    req.l1 = o.l1;
    req.runMtc = o.runMtc;
    req.sizes = o.sweepSizes;
    req.blocks = o.sweepBlocks;
    req.stableJson = o.stableJson;
    req.noCollapse = o.noCollapse;
    req.eventBudget = o.eventBudget;
    req.traceFormat = o.traceFormat;

    const std::vector<Bytes> blocks = resolveSweepBlocks(req);
    const std::size_t nHier = req.sizes.size() * blocks.size();
    const std::size_t nCells =
        nHier + (o.runMtc ? req.sizes.size() : 0);

    // Pre-validate every cell geometry so the diagnostic lands
    // before any sweep banner (executeSweep validates again; both
    // passes are cheap).
    for (std::size_t i = 0; i < nHier; ++i)
        sweepConfigFor(req, blocks, i).validate();

    // The worker count goes to stderr: stdout must stay
    // byte-identical at any --jobs value.
    std::printf("\nsweep: %zu cells (%zu sizes x %zu blocks%s)\n",
                nCells, req.sizes.size(), blocks.size(),
                o.runMtc ? " + MTC" : "");
    emitLinef("membw_sim: sweep using %u worker%s", o.jobs,
              o.jobs == 1 ? "" : "s");

    SweepExecOptions eopts;
    eopts.jobs = o.jobs;
    // A latched SIGINT/SIGTERM stops scheduling further cells; the
    // daemon deliberately leaves this hook unset (drained requests
    // must not look interrupted), so the wiring lives here.
    eopts.cancel = [] { return shutdownRequested() != 0; };
    eopts.sigtermAfter = o.sigtermAfter;
    eopts.onPlan = [&](const CollapsedSweep &collapsed,
                       std::size_t nHierPlanned, std::size_t) {
        if (collapsed.mattsonPasses() == 1)
            std::printf("FA-LRU sweep collapsed into one "
                        "stack-distance pass\n");
        else if (collapsed.mattsonPasses() > 1)
            std::printf("FA-LRU sweep collapsed into %zu "
                        "stack-distance passes\n",
                        collapsed.mattsonPasses());
        if (collapsed.ladderPasses() > 0)
            emitLinef("membw_sim: %zu of %zu cells precomputed "
                      "by %zu ladder-kernel pass%s",
                      collapsed.covered(), nHierPlanned,
                      collapsed.ladderPasses(),
                      collapsed.ladderPasses() == 1 ? "" : "es");
    };
    tracingCounter("sweep.cells_total", static_cast<double>(nCells));
    eopts.onPrefix = [&](std::size_t prefix) {
        tracingCounter("sweep.cells_done", static_cast<double>(prefix));
        if (o.statsEvery)
            emitLinef("membw_sim: sweep %zu/%zu cells", prefix,
                      nCells);
        if (o.sigtermAfter && prefix == o.sigtermAfter)
            std::raise(SIGTERM);
    };

    SweepOutcome outcome = executeSweep(req, trace, eopts);
    // A signal latched after the last cancel poll still counts.
    outcome.interrupted =
        outcome.interrupted || shutdownRequested() != 0;

    const std::size_t usable = outcome.usable;
    const std::vector<char> &cellFailed = outcome.cellFailed;
    const bool interrupted = outcome.interrupted;
    const bool degraded = outcome.degraded;

    TextTable t;
    std::vector<std::string> hdr{"size"};
    for (Bytes b : blocks)
        hdr.push_back("R @" + formatSize(b));
    if (o.runMtc)
        hdr.push_back("MTC KB");
    t.header(hdr);
    for (std::size_t si = 0; si < req.sizes.size(); ++si) {
        std::vector<std::string> row{formatSize(req.sizes[si])};
        for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
            const std::size_t idx = si * blocks.size() + bi;
            row.push_back(
                idx >= usable ? "..."
                : cellFailed[idx]
                    ? "fail"
                    : fixed(outcome.cells[idx].traffic.trafficRatio,
                            4));
        }
        if (o.runMtc) {
            const std::size_t idx = nHier + si;
            row.push_back(
                idx >= usable ? "..."
                : cellFailed[idx]
                    ? "fail"
                    : std::to_string(
                          outcome.cells[idx].mtc.trafficBelow() /
                          1024) +
                          "K");
        }
        t.row(row);
    }
    std::printf("\n%s\n", t.render().c_str());
    if (interrupted)
        std::printf("sweep interrupted: %zu of %zu cells completed\n",
                    usable, nCells);
    if (degraded)
        std::printf("sweep degraded: %zu of %zu cells failed\n",
                    outcome.nFailed, nCells);

    if (!o.statsJson.empty())
        writeFileOrDie(o.statsJson,
                       renderSweepStatsJson(req, trace.size(),
                                            outcome));
    // Precedence: interruption outranks degradation — an interrupted
    // degraded sweep resumes first and reports failures on the rerun.
    if (interrupted)
        return exitInterrupted;
    return degraded ? exitDegraded : exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options o = parse(argc, argv);
        if (!o.faultInject.empty()) {
            auto armed = armFaultPlan(o.faultInject);
            if (!armed.ok())
                fatal("invalid --fault-inject: " +
                      armed.error().describe());
        }
        installShutdownHandlers();
        if (!o.traceOut.empty())
            tracingInit(o.traceOut, "membw_sim");
        if (!o.profileOut.empty() && o.sweepSizes.empty())
            profilerInit(o.profileOut, o.profileEpoch)
                .setVerbose(logEnabled(LogLevel::Debug));

        Trace trace;
        if (!o.loadTrace.empty()) {
            auto loaded = tryLoadTrace(o.loadTrace);
            if (!loaded.ok())
                fatal("cannot load trace '" + o.loadTrace +
                      "': " + loaded.error().describe());
            trace = std::move(loaded.value());
            o.traceFormat = "binary";
            std::printf("trace: %s (%zu refs)\n", o.loadTrace.c_str(),
                        trace.size());
        } else {
            WorkloadParams p;
            p.scale = o.scale;
            p.seed = o.seed;
            trace = makeWorkload(o.workload)->trace(p);
            std::printf("workload: %s (%zu refs, scale %.2f, "
                        "seed %llu)\n",
                        o.workload.c_str(), trace.size(), o.scale,
                        static_cast<unsigned long long>(o.seed));
        }

        if (!o.saveTrace.empty()) {
            saveTrace(trace, o.saveTrace);
            std::printf("saved trace to %s\n", o.saveTrace.c_str());
            return exitOk;
        }

        if (!o.sweepSizes.empty())
            return runSweep(o, trace);

        std::vector<CacheConfig> levels{o.l1};
        if (o.haveL2)
            levels.push_back(o.l2);

        RunState state;
        state.traceCrc = traceCrc32(trace);
        {
            std::string identity = o.l1.describe();
            if (o.haveL2)
                identity += " + " + o.l2.describe();
            identity += o.runMtc ? " +mtc" : "";
            state.configDigest = fnv1a64(identity);
        }

        CacheHierarchy hier(levels);
        hier.setEventBudget(o.eventBudget);

        // The MTC's next-use pass is O(n) over the trace, so only
        // build the simulator when the phase can actually run.
        std::optional<MinCacheSim> mtcSim;
        if (o.runMtc)
            mtcSim.emplace(trace, canonicalMtc(o.l1.size));

        if (!o.resume.empty()) {
            loadCheckpoint(o, state, hier,
                           o.runMtc ? &*mtcSim : nullptr);
            std::printf("resumed from %s (%s phase, ref %llu)\n",
                        o.resume.c_str(),
                        state.phase == phaseHierarchy ? "hierarchy"
                                                      : "mtc",
                        static_cast<unsigned long long>(
                            state.cursor));
        }

        MEMBW_SPAN("run");
        WallTimer timer;
        EpochProfiler *const prof = profilerActive();
        ProgressMeter meter("membw_sim", o.statsEvery);
        std::uint64_t lastCkptRef = state.cursor;
        meter.setAnnotator([&] {
            char buf[96];
            if (o.checkpointEvery) {
                std::snprintf(
                    buf, sizeof(buf),
                    "ckpt age %llu refs | wd slack %.0f%%",
                    static_cast<unsigned long long>(state.cursor -
                                                    lastCkptRef),
                    100.0 * hier.eventHeadroom());
            } else {
                std::snprintf(buf, sizeof(buf), "wd slack %.0f%%",
                              100.0 * hier.eventHeadroom());
            }
            return std::string(buf);
        });

        const std::size_t total = trace.size();

        // Phase 0: the functional hierarchy, reference by reference.
        if (state.phase == phaseHierarchy) {
            MEMBW_SPAN("phase.hierarchy");
            tracingCounter("sim.phase", phaseHierarchy);
            if (prof) {
                // On --resume this re-enters the interrupted run and
                // re-attaches the sources over the restored prev
                // snapshots; a fresh run snapshots the zero state.
                prof->beginRun("hierarchy");
                prof->setRunAttr("pin_mbs", o.pinBandwidthMBs);
                attachHierarchySources(*prof, hier);
                hier.attachProbe(prof);
            }
            for (std::size_t i = state.cursor; i < total; ++i) {
                hier.access(trace[i]);
                state.cursor = i + 1;
                // 'crash:at=N' dies here (as if kill -9) once the
                // run's absolute position crosses N, so the torture
                // harness can cut a run at any reference.
                (void)MEMBW_FAULT_POINT_MARK("crash", state.cursor);
                // Close any epoch ending here before a checkpoint at
                // the same reference can be written, so resumed runs
                // replay identical boundaries.
                if (prof)
                    prof->advanceTo(state.cursor);
                meter.tick(state.cursor, total);
                if (state.cursor % traceCounterStride == 0) {
                    tracingCounter("sim.refs",
                                   static_cast<double>(state.cursor));
                    tracingCounter("sim.ckpt_age_refs",
                                   static_cast<double>(state.cursor -
                                                       lastCkptRef));
                    tracingCounter("sim.wd_slack",
                                   hier.eventHeadroom());
                }
                if (o.sigtermAfter && state.cursor == o.sigtermAfter)
                    std::raise(SIGTERM);
                if (!o.checkpoint.empty() &&
                    state.cursor % o.checkpointEvery == 0) {
                    writeCheckpoint(o, state, &hier, nullptr);
                    lastCkptRef = state.cursor;
                }
                if (shutdownRequested())
                    shutdownNow(o, state, trace, &hier, nullptr,
                                timer.seconds());
            }
            hier.flush();
            if (prof) {
                // The final (possibly partial) epoch picks up the
                // flush write-backs, so Σ(epochs) == aggregates.
                prof->endRun(total);
                hier.attachProbe(nullptr);
            }
            state.hierResult = hier.summarize();
            state.phase = phaseMtc;
            state.cursor = 0;
            lastCkptRef = 0;
        }

        const TrafficResult &r = state.hierResult;

        std::printf("\nL1: %s\n", o.l1.describe().c_str());
        if (o.haveL2)
            std::printf("L2: %s\n", o.l2.describe().c_str());
        std::printf("  accesses        : %llu\n",
                    static_cast<unsigned long long>(r.l1.accesses));
        std::printf("  miss rate       : %.4f\n", r.l1.missRate());
        std::printf("  request bytes   : %llu\n",
                    static_cast<unsigned long long>(r.requestBytes));
        std::printf("  pin bytes       : %llu\n",
                    static_cast<unsigned long long>(r.pinBytes));
        for (std::size_t i = 0; i < r.levelRatios.size(); ++i)
            std::printf("  R (level %zu)     : %.4f\n", i + 1,
                        r.levelRatios[i]);
        std::printf("  total R         : %.4f\n", r.trafficRatio);
        std::printf("  E_pin           : %.1f MB/s (physical %.1f)\n",
                    o.pinBandwidthMBs / r.trafficRatio,
                    o.pinBandwidthMBs);

        MinCacheStats mtc;
        if (o.runMtc) {
            // Phase 1: the minimal-traffic cache, in checkpointable
            // slices.
            const std::size_t slice =
                o.checkpointEvery
                    ? static_cast<std::size_t>(o.checkpointEvery)
                    : (o.statsEvery
                           ? static_cast<std::size_t>(o.statsEvery)
                           : std::size_t{1} << 20);
            MEMBW_SPAN("phase.mtc");
            tracingCounter("sim.phase", phaseMtc);
            if (prof) {
                prof->beginRun("mtc");
                prof->addSource(
                    "mtc", minCacheMetricNames(),
                    [sim = &*mtcSim] {
                        // Monotonic raw counters mid-run; once the
                        // trace is done the snapshot switches to
                        // finalize() so the last epoch carries the
                        // dirty flush exactly once.
                        return snapshotMinCacheStats(
                            sim->done() ? sim->finalize()
                                        : sim->stats(),
                            sim->victimScanPops());
                    });
                mtcSim->setProbe(prof);
            }
            while (!mtcSim->done()) {
                const std::size_t before = mtcSim->cursor();
                std::size_t stepN = slice;
                if (prof) // stop exactly on epoch boundaries
                    stepN = static_cast<std::size_t>(
                        std::min<std::uint64_t>(
                            stepN, prof->refsToNextTarget(before)));
                mtcSim->step(stepN);
                state.cursor = mtcSim->cursor();
                // Absolute run position continues past the hierarchy
                // phase so one crash ref addresses either phase.
                (void)MEMBW_FAULT_POINT_MARK(
                    "crash", trace.size() + state.cursor);
                if (prof)
                    prof->advanceTo(state.cursor);
                meter.tick(state.cursor, total);
                if (crossesCounterStride(before, state.cursor)) {
                    tracingCounter("sim.refs",
                                   static_cast<double>(state.cursor));
                    tracingCounter("sim.ckpt_age_refs",
                                   static_cast<double>(state.cursor -
                                                       lastCkptRef));
                }
                if (o.sigtermAfter && before < o.sigtermAfter &&
                    state.cursor >= o.sigtermAfter)
                    std::raise(SIGTERM);
                if (!o.checkpoint.empty() && !mtcSim->done() &&
                    state.cursor - lastCkptRef >=
                        o.checkpointEvery) {
                    writeCheckpoint(o, state, nullptr, &*mtcSim);
                    lastCkptRef = state.cursor;
                }
                if (shutdownRequested())
                    shutdownNow(o, state, trace, nullptr, &*mtcSim,
                                timer.seconds());
            }
            mtc = mtcSim->finalize();
            if (prof) {
                prof->endRun(state.cursor);
                mtcSim->setProbe(nullptr);
            }

            const double g = static_cast<double>(r.levelTraffic[0]) /
                             static_cast<double>(mtc.trafficBelow());
            std::printf("\nMTC (%s):\n",
                        canonicalMtc(o.l1.size).describe().c_str());
            std::printf("  MTC traffic     : %llu bytes\n",
                        static_cast<unsigned long long>(
                            mtc.trafficBelow()));
            std::printf("  inefficiency G  : %.2f\n", g);
            std::printf("  OE_pin          : %.1f MB/s\n",
                        o.pinBandwidthMBs * g / r.levelRatios[0]);
        }

        if (!o.statsJson.empty())
            writeStatsJson(o, state, trace, &r,
                           o.runMtc ? &mtc : nullptr, timer.seconds(),
                           false);
        if (prof) {
            profilerWriteNow("membw_sim");
            std::printf("profile: %s\n", o.profileOut.c_str());
        }
        return exitOk;
    } catch (const WatchdogError &e) {
        emitLine(e.what());
        return exitWatchdog;
    } catch (const FatalError &e) {
        emitLine(e.what());
        return exitFatal;
    }
}
