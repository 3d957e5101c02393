/**
 * @file
 * membw_client: command-line client for the membw_served daemon.
 *
 * Subcommands build one wire request, send it, and render the
 * response:
 *
 *   membw_client --socket S ping
 *   membw_client --socket S stats
 *   membw_client --socket S shutdown
 *   membw_client --socket S sweep --workload Compress --sizes 1K,64K \
 *       --assoc 4 --mtc --stable-json [--out FILE]
 *   membw_client --socket S decompose --workload Swm --experiment F \
 *       [--out FILE]
 *
 * For sweep/decompose the response body is the byte-exact stats-JSON
 * document the equivalent membw_sim / membw_decompose run writes, so
 * `membw_client --out f.json` + `cmp` against a fresh CLI run is the
 * end-to-end serving test.  The process exit code mirrors the
 * envelope's "exit" field (0 ok, 5 degraded); busy and error
 * responses exit 1 with a diagnostic on stderr.
 */

#include <cstdio>
#include <string>

#include "common/log.hh"
#include "common/parse.hh"
#include "obs/build_info.hh"
#include "obs/json.hh"
#include "resilience/exit_codes.hh"
#include "serve/client.hh"

using namespace membw;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH COMMAND [options]\n\n"
        "Commands: ping | stats | shutdown | sweep | decompose\n\n"
        "Common options:\n"
        "  --socket PATH       daemon socket (required)\n"
        "  --out FILE          write the response body to FILE\n"
        "  --wait MS           wait up to MS for the daemon to answer\n"
        "  --version           print version and exit\n"
        "  --build-info        print build provenance and exit\n\n"
        "Sweep options (mirror membw_sim):\n"
        "  --workload NAME --sizes LIST [--blocks LIST] [--mtc]\n"
        "  [--scale F] [--seed N] [--label NAME] [--stable-json]\n"
        "  [--no-collapse] [--watchdog N]\n"
        "  [--size BYTES] [--assoc N] [--block BYTES] [--sector BYTES]\n"
        "  [--repl lru|fifo|random] [--write wb|wt] [--alloc wa|wna|wv]\n"
        "  [--prefetch] [--stream-buffers N] [--stream-depth N]\n\n"
        "Decompose options (mirror membw_decompose):\n"
        "  --workload NAME [--experiment A-F] [--spec95] [--scale F]\n"
        "  [--seed N] [--stable-json] [--watchdog N] [--mshrs N]\n"
        "  [--window N] [--issue-width N] [--no-prefetch]\n"
        "  [--l1l2-bus N] [--mem-bus N] [--dram KIND]\n",
        argv0);
}

/** Append a ,"key":value pair (value already JSON-rendered). */
void
jsonField(std::string &req, const char *key, const std::string &value)
{
    req += ",\"";
    req += key;
    req += "\":";
    req += value;
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(contents.data(), 1, contents.size(), f) ==
        contents.size();
    return !(std::fclose(f) != 0 || !ok);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string outPath;
    std::string command;
    int waitMs = 0;
    // Request fields accumulate as rendered JSON members.
    std::string fields;

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
                            formatVersionLine("membw_client").c_str());
                return exitOk;
            } else if (a == "--build-info") {
                std::printf("%s",
                            formatBuildInfo("membw_client").c_str());
                return exitOk;
            } else if (a == "--socket") {
                socketPath = need(i);
            } else if (a == "--out") {
                outPath = need(i);
            } else if (a == "--wait") {
                waitMs = static_cast<int>(
                    tryParseInt(need(i), 0, 3600000).orDie());
            } else if (a == "--workload") {
                jsonField(fields, "workload", jsonEscape(need(i)));
            } else if (a == "--label") {
                jsonField(fields, "label", jsonEscape(need(i)));
            } else if (a == "--experiment") {
                jsonField(fields, "experiment", jsonEscape(need(i)));
            } else if (a == "--dram") {
                jsonField(fields, "dram", jsonEscape(need(i)));
            } else if (a == "--repl") {
                jsonField(fields, "repl", jsonEscape(need(i)));
            } else if (a == "--write") {
                jsonField(fields, "write", jsonEscape(need(i)));
            } else if (a == "--alloc") {
                jsonField(fields, "alloc", jsonEscape(need(i)));
            } else if (a == "--sizes") {
                jsonField(fields, "sizes", jsonEscape(need(i)));
            } else if (a == "--blocks") {
                jsonField(fields, "blocks", jsonEscape(need(i)));
            } else if (a == "--size") {
                jsonField(fields, "size", jsonEscape(need(i)));
            } else if (a == "--block") {
                jsonField(fields, "block", jsonEscape(need(i)));
            } else if (a == "--sector") {
                jsonField(fields, "sector", jsonEscape(need(i)));
            } else if (a == "--scale") {
                jsonField(fields, "scale",
                          formatJsonNumber(
                              tryParseDouble(need(i)).orDie()));
            } else if (a == "--seed") {
                jsonField(fields, "seed",
                          std::to_string(tryParseU64(need(i)).orDie()));
            } else if (a == "--watchdog") {
                jsonField(
                    fields, "watchdog",
                    std::to_string(tryParseU64(need(i)).orDie()));
            } else if (a == "--assoc") {
                jsonField(fields, "assoc",
                          std::to_string(tryParseU64(need(i)).orDie()));
            } else if (a == "--stream-buffers") {
                jsonField(
                    fields, "stream_buffers",
                    std::to_string(tryParseU64(need(i)).orDie()));
            } else if (a == "--stream-depth") {
                jsonField(
                    fields, "stream_depth",
                    std::to_string(tryParseU64(need(i)).orDie()));
            } else if (a == "--mshrs") {
                jsonField(fields, "mshrs",
                          std::to_string(tryParseInt(need(i), 0, 1024)
                                             .orDie()));
            } else if (a == "--window") {
                jsonField(fields, "window",
                          std::to_string(tryParseInt(need(i), 1, 4096)
                                             .orDie()));
            } else if (a == "--issue-width") {
                jsonField(fields, "issue_width",
                          std::to_string(
                              tryParseInt(need(i), 1, 64).orDie()));
            } else if (a == "--l1l2-bus") {
                jsonField(fields, "l1l2_bus",
                          std::to_string(tryParseInt(need(i), 1, 4096)
                                             .orDie()));
            } else if (a == "--mem-bus") {
                jsonField(fields, "mem_bus",
                          std::to_string(tryParseInt(need(i), 1, 4096)
                                             .orDie()));
            } else if (a == "--mtc") {
                jsonField(fields, "mtc", "true");
            } else if (a == "--stable-json") {
                jsonField(fields, "stable", "true");
            } else if (a == "--no-collapse") {
                jsonField(fields, "no_collapse", "true");
            } else if (a == "--prefetch") {
                jsonField(fields, "prefetch", "true");
            } else if (a == "--spec95") {
                jsonField(fields, "spec95", "true");
            } else if (a == "--no-prefetch") {
                jsonField(fields, "no_prefetch", "true");
            } else if (!a.empty() && a[0] == '-') {
                std::fprintf(stderr, "unknown option '%s'\n\n",
                             a.c_str());
                usage(argv[0]);
                return exitUsage;
            } else if (command.empty()) {
                command = a;
            } else {
                std::fprintf(stderr, "unexpected argument '%s'\n\n",
                             a.c_str());
                usage(argv[0]);
                return exitUsage;
            }
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return exitUsage;
    }

    if (socketPath.empty() || command.empty()) {
        usage(argv[0]);
        return exitUsage;
    }
    if (command != "ping" && command != "stats" &&
        command != "shutdown" && command != "sweep" &&
        command != "decompose") {
        std::fprintf(stderr, "unknown command '%s'\n\n",
                     command.c_str());
        usage(argv[0]);
        return exitUsage;
    }

    if (waitMs > 0 && !waitForServer(socketPath, waitMs)) {
        std::fprintf(stderr,
                     "membw_client: no daemon on '%s' after %dms\n",
                     socketPath.c_str(), waitMs);
        return exitFatal;
    }

    const std::string request =
        "{\"op\":\"" + command + "\"" + fields + "}";
    const auto replyLine = serveRequestOnce(socketPath, request);
    if (!replyLine) {
        std::fprintf(stderr,
                     "membw_client: cannot reach daemon on '%s'\n",
                     socketPath.c_str());
        return exitFatal;
    }

    JsonValue reply;
    try {
        reply = parseJson(*replyLine);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "membw_client: bad response: %s\n",
                     e.what());
        return exitFatal;
    }
    const std::string status =
        reply.find("status") ? reply.at("status").asString() : "";
    if (status == "busy") {
        std::fprintf(
            stderr,
            "membw_client: daemon busy (queued %d of %d)\n",
            static_cast<int>(reply.at("queued").asNumber()),
            static_cast<int>(reply.at("capacity").asNumber()));
        return exitFatal;
    }
    if (status != "ok") {
        const JsonValue *err = reply.find("error");
        std::fprintf(stderr, "membw_client: %s\n",
                     err ? err->asString().c_str()
                         : "malformed response");
        return exitFatal;
    }

    // ping/stats envelopes carry their payload in the envelope
    // itself; sweep/decompose carry the stats document in "body".
    const JsonValue *body = reply.find("body");
    const std::string &payload =
        body ? body->asString() : *replyLine;
    if (!outPath.empty()) {
        if (!writeFile(outPath, payload)) {
            std::fprintf(stderr,
                         "membw_client: cannot write '%s'\n",
                         outPath.c_str());
            return exitFatal;
        }
    } else {
        std::fwrite(payload.data(), 1, payload.size(), stdout);
        if (payload.empty() || payload.back() != '\n')
            std::fputc('\n', stdout);
    }

    const JsonValue *exitField = reply.find("exit");
    return exitField ? static_cast<int>(exitField->asNumber())
                     : exitOk;
}
