/**
 * @file
 * membw_decompose — command-line execution-time decomposition driver.
 *
 * Runs a workload on one of the paper's machines (A-F, SPEC92 or
 * SPEC95 parameter set) or on a custom variant, and prints the
 * T_P / T_I / T split with f_P/f_L/f_B:
 *
 *   membw_decompose --workload Swm --experiment F
 *   membw_decompose --workload Vortex --experiment E --spec95
 *   membw_decompose --workload Swm --experiment F --dram sdram
 *   membw_decompose --workload Swm --experiment E --mshrs 2 --no-prefetch
 *
 * The decomposition is three independent deterministic runs (perfect
 * memory, infinite-width, full system), so fault tolerance is
 * phase-granular: --checkpoint saves each completed phase's result,
 * --resume skips completed phases and re-runs only the interrupted
 * one, and SIGINT/SIGTERM abort the in-flight phase cleanly with a
 * final checkpoint, partial stats, and a distinct exit code (see
 * --help).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/experiment.hh"
#include "exec/parallel_sweep.hh"
#include "exec/thread_pool.hh"
#include "dram/dram.hh"
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
#include "resilience/watchdog.hh"
#include "serve/decompose_service.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "membw_decompose — execution-time decomposition "
        "(Equations 1-3)\n\n"
        "  --workload NAME      synthetic kernel (required)\n"
        "  --experiment A-F     Table 5 machine (default F)\n"
        "  --experiment all     all six machines at once: 18 "
        "phase-cells\n"
        "                       (6 experiments x 3 runs) fanned "
        "across\n"
        "                       --jobs workers; output is "
        "byte-identical at\n"
        "                       any worker count.  Excludes "
        "--checkpoint,\n"
        "                       --resume, and --sigterm-after.\n"
        "  --jobs N             workers for --experiment all "
        "(default:\n"
        "                       hardware concurrency, max 256).  0 "
        "and\n"
        "                       oversubscribed counts are rejected "
        "as\n"
        "                       invalid input (exit 1).\n"
        "  --spec95             use the SPEC95 parameter set\n"
        "  --scale S            trace-length scale (default 0.5)\n"
        "  --seed N             generation seed (default 42)\n"
        "Overrides:\n"
        "  --mshrs N            outstanding misses when lockup-free\n"
        "  --window N           RUU/in-flight entries\n"
        "  --issue-width N      fetch/issue/retire width\n"
        "  --no-prefetch        disable tagged prefetch\n"
        "  --l1l2-bus BYTES     L1/L2 bus width\n"
        "  --mem-bus BYTES      memory bus width\n"
        "  --dram fpm|edo|sdram|rdram   banked DRAM backend\n"
        "Fault tolerance:\n"
        "  --checkpoint FILE    save each completed phase to FILE\n"
        "  --resume FILE        skip phases already completed in FILE\n"
        "  --watchdog N         max cycles between retirements before\n"
        "                       declaring livelock (default 1000000;\n"
        "                       0 disables)\n"
        "  --sigterm-after N    raise SIGTERM once this process has\n"
        "                       simulated N micro-ops (testing)\n"
        "  --fault-inject SPEC  arm deterministic fault injection\n"
        "                       (site:trigger=value clauses, comma-\n"
        "                       separated; see docs/resilience.md)\n"
        "Telemetry:\n"
        "  --stats-json FILE    write manifest + full stats as JSON\n"
        "  --stable-json        omit wall-clock fields from the JSON\n"
        "  --stats-every N      stderr progress line every N instrs\n"
        "  --trace-out FILE     write a Chrome trace-event JSON "
        "(Perfetto;\n"
        "                       inspect with membw_report)\n"
        "  --profile-out FILE   write per-epoch model telemetry JSON "
        "(one run\n"
        "                       per phase; inspect with "
        "membw_report)\n"
        "  --profile-epoch N    simulated micro-ops per epoch "
        "(default 65536)\n"
        "Provenance:\n"
        "  --version            print tool version and git describe\n"
        "  --build-info         print build flags (tracing, "
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

unsigned
smallFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseInt(value, 1, 1 << 20);
    if (!r.ok())
        badFlag(flag, value, r.error(), "4");
    return static_cast<unsigned>(r.value());
}

std::uint64_t
countFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseU64(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "100000");
    return r.value();
}

double
scaleFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseScale(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "0.5");
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

char
experimentFlag(const std::string &flag, const std::string &value)
{
    auto r = tryParseExperiment(value);
    if (!r.ok())
        badFlag(flag, value, r.error(), "F");
    return r.value();
}

/** Thrown from the progress hook to abort an in-flight phase once a
 * shutdown signal has been latched. */
struct PhaseInterrupt
{
};

void
writeCheckpoint(const std::string &path, std::uint64_t digest,
                std::uint64_t streamSize, unsigned phasesDone,
                const CoreResult *results)
{
    MEMBW_SPAN("checkpoint.write");
    ChkWriter w;
    w.beginSection(chkTag("META"));
    w.str("membw_decompose");
    w.u64(digest);
    w.u64(streamSize);
    w.u8(static_cast<std::uint8_t>(phasesDone));
    w.endSection();
    for (unsigned i = 0; i < phasesDone; ++i)
        saveCoreResult(w, results[i]);
    if (const EpochProfiler *prof = profilerActive())
        prof->saveState(w);

    auto result = w.writeFile(path);
    if (!result.ok())
        fatal("checkpoint failed: " + result.error().describe());
}

unsigned
loadCheckpoint(const std::string &path, std::uint64_t digest,
               std::uint64_t streamSize, CoreResult *results)
{
    MEMBW_SPAN("checkpoint.load");
    auto opened = ChkReader::fromFile(path);
    if (!opened.ok())
        fatal("cannot resume from '" + path +
              "': " + opened.error().describe());
    ChkReader r = std::move(opened.value());

    r.enterSection(chkTag("META"));
    const std::string tool = r.str();
    const std::uint64_t chkDigest = r.u64();
    const std::uint64_t chkStream = r.u64();
    const unsigned phasesDone = r.u8();
    r.leaveSection();

    if (r.failed())
        fatal("cannot resume from '" + path +
              "': " + r.error().describe());
    if (tool != "membw_decompose")
        fatal("cannot resume from '" + path +
              "': checkpoint was written by '" + tool + "'");
    if (chkDigest != digest)
        fatal("cannot resume from '" + path +
              "': checkpoint was taken under a different "
              "experiment/workload configuration");
    if (chkStream != streamSize)
        fatal("cannot resume from '" + path +
              "': checkpoint simulated a different instruction "
              "stream (" +
              std::to_string(chkStream) + " vs " +
              std::to_string(streamSize) + " micro-ops)");
    if (phasesDone > decompositionPhases)
        fatal("cannot resume from '" + path +
              "': implausible completed-phase count " +
              std::to_string(phasesDone));

    for (unsigned i = 0; i < phasesDone; ++i) {
        loadCoreResult(r, results[i]);
        if (r.failed())
            fatal("cannot resume from '" + path +
                  "': " + r.error().describe());
    }
    if (EpochProfiler *prof = profilerActive()) {
        if (r.remaining() == 0)
            fatal("cannot resume from '" + path +
                  "': checkpoint carries no profiler state (was the "
                  "interrupted run started without --profile-out?)");
        prof->loadState(r);
        if (r.failed())
            fatal("cannot resume from '" + path +
                  "': " + r.error().describe());
    } else if (r.remaining() != 0) {
        fatal("cannot resume from '" + path +
              "': checkpoint carries profiler state; rerun with "
              "the interrupted run's --profile-out/--profile-epoch");
    }
    return phasesDone;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string workload;
        char letter = 'F';
        bool allExperiments = false;
        unsigned jobs = defaultJobs();
        bool spec95 = false;
        double scale = 0.5;
        std::uint64_t seed = 42;
        std::string statsJson;
        bool stableJson = false;
        std::uint64_t statsEvery = 0;
        std::string traceOut;
        std::string profileOut;
        std::uint64_t profileEpoch = 0;
        std::string checkpoint;
        std::string resume;
        Cycle watchdogCycles = 1'000'000;
        std::uint64_t sigtermAfter = 0;
        std::string faultInject;

        DecomposeOverrides ov;

        auto need = [&](int &i) -> std::string {
            if (i + 1 >= argc) {
                emitLinef("missing value for %s (run --help for "
                          "the flag list)",
                          argv[i]);
                std::exit(exitUsage);
            }
            return argv[++i];
        };

        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h")
                usage(exitOk);
            else if (a == "--version") {
                std::printf(
                    "%s\n",
                    formatVersionLine("membw_decompose").c_str());
                std::exit(exitOk);
            } else if (a == "--build-info") {
                std::printf("%s",
                            formatBuildInfo("membw_decompose").c_str());
                std::exit(exitOk);
            } else if (a == "--workload")
                workload = need(i);
            else if (a == "--experiment") {
                const std::string v = need(i);
                if (v == "all")
                    allExperiments = true;
                else
                    letter = experimentFlag(a, v);
            } else if (a == "--jobs")
                jobs = jobsFlag(a, need(i));
            else if (a == "--spec95")
                spec95 = true;
            else if (a == "--scale")
                scale = scaleFlag(a, need(i));
            else if (a == "--seed")
                seed = countFlag(a, need(i));
            else if (a == "--mshrs")
                ov.mshrs = static_cast<int>(smallFlag(a, need(i)));
            else if (a == "--window")
                ov.window = static_cast<int>(smallFlag(a, need(i)));
            else if (a == "--issue-width")
                ov.width = static_cast<int>(smallFlag(a, need(i)));
            else if (a == "--no-prefetch")
                ov.noPrefetch = true;
            else if (a == "--l1l2-bus")
                ov.l1l2 = static_cast<int>(smallFlag(a, need(i)));
            else if (a == "--mem-bus")
                ov.membus = static_cast<int>(smallFlag(a, need(i)));
            else if (a == "--dram")
                ov.dram = need(i);
            else if (a == "--stats-json")
                statsJson = need(i);
            else if (a == "--stable-json")
                stableJson = true;
            else if (a == "--stats-every")
                statsEvery = countFlag(a, need(i));
            else if (a == "--trace-out")
                traceOut = need(i);
            else if (a == "--profile-out")
                profileOut = need(i);
            else if (a == "--profile-epoch")
                profileEpoch = countFlag(a, need(i));
            else if (a == "--checkpoint")
                checkpoint = need(i);
            else if (a == "--resume")
                resume = need(i);
            else if (a == "--watchdog")
                watchdogCycles = countFlag(a, need(i));
            else if (a == "--sigterm-after")
                sigtermAfter = countFlag(a, need(i));
            else if (a == "--fault-inject")
                faultInject = need(i);
            else {
                emitLinef("unknown flag '%s' (run --help for the "
                          "flag list)",
                          a.c_str());
                std::exit(exitUsage);
            }
        }
        if (workload.empty())
            usage(exitUsage);
        if (profileEpoch && profileOut.empty())
            fatal("--profile-epoch requires --profile-out");
        if (!profileOut.empty() && profileEpoch == 0)
            profileEpoch = 65536;

        if (!faultInject.empty()) {
            auto armed = armFaultPlan(faultInject);
            if (!armed.ok())
                fatal("invalid --fault-inject: " +
                      armed.error().describe());
        }
        installShutdownHandlers();
        if (!traceOut.empty())
            tracingInit(traceOut, "membw_decompose");

        // Shared with the membw_served daemon (serve layer), which is
        // what keeps served decompose responses byte-identical to
        // this tool's --stats-json output.
        auto applyOverrides = [&](ExperimentConfig &cfg) {
            applyDecomposeOverrides(cfg, ov);
        };

        ExperimentConfig cfg = makeExperiment(letter, spec95);
        applyOverrides(cfg);

        const InstrStream stream =
            buildDecomposeStream(workload, scale, seed);

        if (allExperiments) {
            if (!checkpoint.empty() || !resume.empty())
                fatal("--experiment all does not support "
                      "--checkpoint/--resume: each of the 18 phase "
                      "cells is cheap to rerun, so drop those flags "
                      "(or run one experiment)");
            if (sigtermAfter)
                fatal("--sigterm-after is not supported with "
                      "--experiment all: micro-op counts are "
                      "per-cell and scheduling is parallel; use a "
                      "single experiment");
            if (!profileOut.empty())
                fatal("--experiment all does not support "
                      "--profile-out: cells run concurrently and "
                      "share no reference clock (profile a single "
                      "experiment instead)");

            std::vector<ExperimentConfig> configs;
            for (char e = 'A'; e <= 'F'; ++e) {
                ExperimentConfig cell = makeExperiment(e, spec95);
                applyOverrides(cell);
                cell.core.watchdogCycles = watchdogCycles;
                // The hook is a shutdown poll only: progress meters
                // and stats registries are not thread-safe, so
                // cells stay silent.
                cell.core.progressEvery = 65536;
                cell.core.progress = [](std::size_t, std::size_t) {
                    if (shutdownRequested())
                        throw PhaseInterrupt{};
                };
                configs.push_back(std::move(cell));
            }
            const std::size_t nCells =
                configs.size() * decompositionPhases;

            std::printf("%s on experiments A-F%s (%zu micro-ops)\n",
                        workload.c_str(), spec95 ? " (SPEC95)" : "",
                        stream.size());
            // Worker count goes to stderr: stdout must stay
            // byte-identical at any --jobs value.
            emitLinef("membw_decompose: %u worker%s over %zu "
                      "cells",
                      jobs, jobs == 1 ? "" : "s", nCells);

            MEMBW_SPAN("run");
            WallTimer timer;
            SweepOptions sopt;
            sopt.jobs = jobs;
            // Degraded mode (exit 5): a failing cell takes out only
            // its experiment's row; a watchdog trip still aborts the
            // whole run with exit 4.
            sopt.tolerateCellFailures = true;
            sopt.abortAnyway = [](const std::exception &e) {
                return dynamic_cast<const WatchdogError *>(&e) !=
                       nullptr;
            };
            sopt.cancel = [] { return shutdownRequested(); };
            tracingCounter("sweep.cells_total",
                           static_cast<double>(nCells));
            sopt.onPrefix = [](std::size_t prefix) {
                tracingCounter("sweep.cells_done",
                               static_cast<double>(prefix));
            };

            DecomposeSweep sweep;
            try {
                sweep = decomposeCells(
                    {decomposeJob(stream, configs)}, sopt);
            } catch (const PhaseInterrupt &) {
                emitLinef("\n%s received: aborted --experiment "
                          "all sweep",
                          shutdownSignalName());
                return exitInterrupted;
            }
            if (sweep.interrupted || sweep.completed < nCells) {
                emitLinef("\n%s received: %zu of %zu cells "
                          "completed",
                          shutdownSignalName(), sweep.completed,
                          nCells);
                return exitInterrupted;
            }

            // A failed cell poisons only its experiment: the other
            // five rows (and stats groups) come out identical to a
            // clean run at any --jobs value.
            const bool degraded = sweep.degraded();
            std::vector<bool> expFailed(configs.size());
            for (const CellFailure &f : sweep.failedCells)
                expFailed[f.cell / decompositionPhases] = true;

            TextTable t;
            t.header({"exp", "T_P", "T_I", "T", "f_P", "f_L", "f_B",
                      "IPC"});
            StatsRegistry registry;
            for (std::size_t e = 0; e < configs.size(); ++e) {
                const std::string exp(1, configs[e].letter);
                if (expFailed[e]) {
                    t.row({exp, "fail", "fail", "fail", "fail", "fail",
                           "fail", "fail"});
                    continue;
                }
                const DecompositionResult r = assembleDecomposition(
                    sweep.cells[e * decompositionPhases],
                    sweep.cells[e * decompositionPhases + 1],
                    sweep.cells[e * decompositionPhases + 2]);
                t.row({exp, std::to_string(r.split.perfectCycles),
                       std::to_string(r.split.infiniteCycles),
                       std::to_string(r.split.fullCycles),
                       fixed(r.split.fP(), 3),
                       fixed(r.split.fL(), 3),
                       fixed(r.split.fB(), 3),
                       fixed(r.full.ipc, 2)});
                if (!statsJson.empty()) {
                    StatsGroup g = registry.group(exp);
                    publishDecompositionStats(g, r);
                }
            }
            std::printf("%s\n", t.render().c_str());
            if (degraded)
                std::printf("sweep degraded: %zu of %zu cells "
                            "failed\n",
                            sweep.failedCells.size(), nCells);

            if (!statsJson.empty()) {
                RunManifest manifest;
                manifest.tool = "membw_decompose";
                manifest.experiment = "all";
                manifest.workload = workload;
                manifest.config = spec95 ? "Table 5 A-F (SPEC95)"
                                         : "Table 5 A-F";
                manifest.seed = seed;
                manifest.scale = scale;
                manifest.refs = stream.size();
                manifest.wallSeconds = timer.seconds();
                manifest.degraded = degraded;
                manifest.omitTiming = stableJson;
                // --jobs deliberately unrecorded: the JSON must be
                // byte-identical at any worker count.
                JsonWriter w;
                w.beginObject();
                w.key("manifest");
                manifest.write(w);
                if (degraded) {
                    w.key("failed_cells");
                    w.beginArray();
                    for (const CellFailure &f : sweep.failedCells) {
                        w.beginObject();
                        w.field("cell", static_cast<std::uint64_t>(
                                            f.cell));
                        w.field("config",
                                decomposeCellLabel(configs, f.cell));
                        w.field("error", f.message);
                        w.endObject();
                    }
                    w.endArray();
                }
                w.key("stats");
                writeStatsArray(registry, w);
                w.endObject();
                writeFileOrDie(statsJson, w.str());
            }
            return degraded ? exitDegraded : exitOk;
        }

        if (!profileOut.empty())
            profilerInit(profileOut, profileEpoch)
                .setVerbose(logEnabled(LogLevel::Debug));

        // Checkpoint identity: the full machine description plus the
        // stream's provenance.  The stream size is verified
        // separately for a clearer message.
        const std::uint64_t digest = fnv1a64(
            cfg.describe() + "|" + workload + "|" +
            std::to_string(seed) + "|" + std::to_string(scale));

        CoreResult results[decompositionPhases];
        unsigned phasesDone = 0;
        if (!resume.empty()) {
            phasesDone = loadCheckpoint(resume, digest, stream.size(),
                                        results);
            std::printf("resumed from %s (%u of %u phases done)\n",
                        resume.c_str(), phasesDone,
                        decompositionPhases);
        }

        MEMBW_SPAN("run");
        WallTimer timer;
        EpochProfiler *const prof = profilerActive();
        ProgressMeter meter("membw_decompose", statsEvery);

        // Per-phase watchdog; the cycle domain restarts at zero each
        // phase, so the guard must too.
        const Watchdog *liveWatchdog = nullptr;
        unsigned livePhase = 0;
        meter.setAnnotator([&] {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "phase %s | wd slack %.0f%%",
                          phaseName(livePhase),
                          100.0 * (liveWatchdog
                                       ? liveWatchdog->headroom()
                                       : 1.0));
            return std::string(buf);
        });

        // The progress hook doubles as the shutdown poll (and the
        // deterministic SIGTERM test point), so it must stay armed
        // even without --stats-every.  --sigterm-after counts
        // micro-ops across all three phases (including phases a
        // resume skipped), so the same flag value always interrupts
        // the same phase.
        bool sigtermFired = false;
        std::uint64_t opsCompleted = phasesDone * stream.size();
        std::uint64_t lastCounterOps = opsCompleted;
        cfg.core.progressEvery = statsEvery ? statsEvery : 65536;
        cfg.core.progress = [&](std::size_t done, std::size_t total) {
            // Stride-driven epoch clock: boundaries may overshoot by
            // up to progressEvery micro-ops (counted as clamped).
            if (prof)
                prof->advanceTo(done);
            meter.tick(done, total);
            if (crossesCounterStride(lastCounterOps,
                                     opsCompleted + done)) {
                lastCounterOps = opsCompleted + done;
                tracingCounter("decompose.ops",
                               static_cast<double>(lastCounterOps));
                tracingCounter("decompose.wd_slack",
                               liveWatchdog ? liveWatchdog->headroom()
                                            : 1.0);
            }
            if (sigtermAfter && !sigtermFired &&
                opsCompleted + done >= sigtermAfter) {
                sigtermFired = true;
                std::raise(SIGTERM);
            }
            // 'crash:at=N' counts micro-ops across all phases, like
            // --sigterm-after, so one ref addresses any phase.
            (void)MEMBW_FAULT_POINT_MARK("crash",
                                         opsCompleted + done);
            if (shutdownRequested())
                throw PhaseInterrupt{};
        };

        std::printf("%s on %s (%.0f MHz)\n", workload.c_str(),
                    cfg.describe().c_str(), cfg.cpuMHz);

        for (; phasesDone < decompositionPhases; ++phasesDone) {
            Watchdog watchdog(watchdogCycles);
            cfg.core.watchdog = &watchdog;
            liveWatchdog = &watchdog;
            livePhase = phasesDone;
            tracingCounter("decompose.phase", phasesDone);
            // Profile each phase as its own run: sources live only
            // as long as the phase's MemorySystem, so attachment and
            // the closing endRun() both happen inside the hooks.
            MemSysHook preRun, postRun;
            if (prof) {
                preRun = [&](MemorySystem &mem) {
                    prof->beginRun(phaseName(livePhase));
                    attachMemSysSources(*prof, mem);
                    mem.attachProbe(prof);
                };
                postRun = [&](MemorySystem &mem) {
                    prof->endRun(stream.size());
                    mem.attachProbe(nullptr);
                };
            }
            try {
                results[phasesDone] = runPhase(
                    stream, cfg, phasesDone, preRun, postRun);
            } catch (const PhaseInterrupt &) {
                tracingInstant("shutdown", shutdownSignalName());
                // The interrupted phase re-runs whole on --resume,
                // so its partial profiler run (and probe counts)
                // must not reach the checkpoint.
                if (prof)
                    prof->abortRun();
                // Drained: the completed phases are all durable
                // state there is; the interrupted phase re-runs
                // from its start on --resume.
                emitLinef("\n%s received: aborted %s phase "
                          "(%u of %u phases complete)",
                          shutdownSignalName(),
                          phaseName(phasesDone), phasesDone,
                          decompositionPhases);
                if (!checkpoint.empty()) {
                    writeCheckpoint(checkpoint, digest,
                                    stream.size(), phasesDone,
                                    results);
                    emitLinef("final checkpoint: %s",
                              checkpoint.c_str());
                }
                if (!statsJson.empty()) {
                    StatsRegistry registry;
                    for (unsigned i = 0; i < phasesDone; ++i) {
                        StatsGroup g =
                            registry.group(phaseName(i));
                        publishCoreStats(g, results[i]);
                    }
                    RunManifest manifest;
                    manifest.tool = "membw_decompose";
                    manifest.experiment = std::string(1, letter);
                    manifest.workload = workload;
                    manifest.config = cfg.describe();
                    manifest.seed = seed;
                    manifest.scale = scale;
                    manifest.refs = stream.size();
                    manifest.wallSeconds = timer.seconds();
                    manifest.interrupted = true;
                    manifest.omitTiming = stableJson;
                    manifest.set("phases_done",
                                 std::to_string(phasesDone));
                    writeProfileManifest(manifest, stableJson);

                    JsonWriter w;
                    w.beginObject();
                    w.key("manifest");
                    manifest.write(w);
                    w.key("stats");
                    writeStatsArray(registry, w);
                    w.endObject();
                    writeFileOrDie(statsJson, w.str());
                    emitLinef("partial stats: %s",
                              statsJson.c_str());
                }
                return exitInterrupted;
            }
            cfg.core.watchdog = nullptr;
            liveWatchdog = nullptr;
            opsCompleted += stream.size();
            if (!checkpoint.empty())
                writeCheckpoint(checkpoint, digest, stream.size(),
                                phasesDone + 1, results);
        }

        const DecompositionResult r = assembleDecomposition(
            results[0], results[1], results[2]);

        std::printf("T_P %llu | T_I %llu | T %llu cycles\n",
                    static_cast<unsigned long long>(
                        r.split.perfectCycles),
                    static_cast<unsigned long long>(
                        r.split.infiniteCycles),
                    static_cast<unsigned long long>(
                        r.split.fullCycles));
        std::printf("f_P %.3f | f_L %.3f | f_B %.3f\n", r.split.fP(),
                    r.split.fL(), r.split.fB());
        std::printf("IPC %.2f | L1 miss %llu | L2 miss %llu | "
                    "I-miss %llu | mispredict %llu\n",
                    r.full.ipc,
                    static_cast<unsigned long long>(
                        r.full.mem.l1Misses),
                    static_cast<unsigned long long>(
                        r.full.mem.l2Misses),
                    static_cast<unsigned long long>(
                        r.full.mem.iMisses),
                    static_cast<unsigned long long>(
                        r.full.mispredicts));
        if (r.full.mem.dramRowHits + r.full.mem.dramRowMisses)
            std::printf("DRAM row hit rate %.1f%%\n",
                        100.0 * r.full.mem.dramRowHits /
                            (r.full.mem.dramRowHits +
                             r.full.mem.dramRowMisses));

        if (!statsJson.empty()) {
            // Render through the shared serve-layer formatter so the
            // document is byte-for-byte what the daemon serves for
            // the same request.
            DecomposeRequest dreq;
            dreq.workload = workload;
            dreq.letter = letter;
            dreq.spec95 = spec95;
            dreq.scale = scale;
            dreq.seed = seed;
            dreq.overrides = ov;
            dreq.stableJson = stableJson;
            dreq.watchdogCycles = watchdogCycles;
            writeFileOrDie(statsJson,
                           renderDecomposeStatsJson(
                               dreq, stream.size(), r,
                               timer.seconds()));
        }
        if (prof) {
            profilerWriteNow("membw_decompose");
            std::printf("profile: %s\n", profileOut.c_str());
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
