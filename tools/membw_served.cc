/**
 * @file
 * membw_served: long-lived sweep/decompose daemon.
 *
 * Listens on a Unix domain socket for newline-delimited JSON
 * requests (see docs/serving.md and src/serve/protocol.hh), shares
 * one ThreadPool across requests, and layers a content-addressed
 * artifact cache plus a digest-keyed result cache so a warm repeat
 * request is a hash lookup instead of a simulation.
 *
 * Exit codes follow the resilience contract: 0 after a `shutdown`
 * request, 3 after SIGTERM/SIGINT (in-flight requests are drained
 * and answered first), 1 on fatal setup errors, 2 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "common/parse.hh"
#include "obs/build_info.hh"
#include "obs/trace_export.hh"
#include "resilience/exit_codes.hh"
#include "resilience/fault_injection.hh"
#include "resilience/signals.hh"
#include "serve/server.hh"

using namespace membw;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n\n"
        "Long-lived simulation daemon (see docs/serving.md).\n\n"
        "Options:\n"
        "  --socket PATH       Unix socket path (default membw.sock)\n"
        "  --jobs N            shared worker pool size (default 1)\n"
        "  --cache-bytes N     result-cache bound (default 64M)\n"
        "  --artifact-bytes N  artifact-cache bound (default 512M)\n"
        "  --queue N           admission queue capacity (default 8)\n"
        "  --spill-dir DIR     spill evicted clean results here\n"
        "  --sigterm-after N   raise SIGTERM as the Nth compute job\n"
        "                      starts (drain-path testing)\n"
        "  --fault-inject SPEC deterministic fault injection\n"
        "                      (site[:at=N][:prob=P[:seed=S]])\n"
        "  --trace-out FILE    write a Chrome trace-event JSON of every\n"
        "                      request served when the daemon exits\n"
        "                      (inspect with membw_report)\n"
        "  --version           print version and exit\n"
        "  --build-info        print build provenance and exit\n"
        "  --help              this text\n\n"
        "%s",
        argv0, exitCodeHelp);
}

} // namespace

int
main(int argc, char **argv)
{
    ServerOptions opts;
    opts.socketPath = "membw.sock";
    std::string traceOut;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal(std::string(argv[i]) + " requires a value");
        return argv[++i];
    };

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                usage(argv[0]);
                return exitOk;
            } else if (a == "--version") {
                std::printf("%s\n",
                            formatVersionLine("membw_served").c_str());
                return exitOk;
            } else if (a == "--build-info") {
                std::printf("%s",
                            formatBuildInfo("membw_served").c_str());
                return exitOk;
            } else if (a == "--socket") {
                opts.socketPath = need(i);
            } else if (a == "--jobs") {
                opts.jobs = tryParseJobs(need(i)).orDie();
            } else if (a == "--cache-bytes") {
                opts.resultCacheBytes = tryParseSize(need(i)).orDie();
            } else if (a == "--artifact-bytes") {
                opts.artifactCacheBytes =
                    tryParseSize(need(i)).orDie();
            } else if (a == "--queue") {
                opts.queueCapacity = static_cast<std::size_t>(
                    tryParseInt(need(i), 1, 1 << 20).orDie());
            } else if (a == "--spill-dir") {
                opts.spillDir = need(i);
            } else if (a == "--sigterm-after") {
                opts.sigtermAfterJobs = tryParseU64(need(i)).orDie();
            } else if (a == "--fault-inject") {
                armFaultPlan(need(i)).orDie();
            } else if (a == "--trace-out") {
                traceOut = need(i);
            } else {
                std::fprintf(stderr, "unknown option '%s'\n\n",
                             a.c_str());
                usage(argv[0]);
                return exitUsage;
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return exitUsage;
    }

    installShutdownHandlers();
    if (!traceOut.empty())
        tracingInit(traceOut, "membw_served");
    try {
        ServeServer server(std::move(opts));
        return server.run();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return exitFatal;
    }
}
