/**
 * @file
 * membw_torture — crash-recovery torture harness.
 *
 * Generates hundreds of seeded kill/inject/resume schedules against
 * membw_sim and asserts that every one of them converges to final
 * --stable-json stats byte-identical to an uninterrupted baseline:
 *
 *   membw_torture --sim build/tools/membw_sim --schedules 200
 *
 * Each schedule is one of:
 *   crash/resume   1-3 'crash:at=N' kills (simulated kill -9 via
 *                  --fault-inject, exit 137) at seeded positions
 *                  across both simulation phases, each followed by a
 *                  --resume leg, ending in a clean leg;
 *   ckpt-fault     an injected disk-full on the Kth checkpoint write
 *                  (exit 1); the previous committed checkpoint must
 *                  survive untorn and resume cleanly;
 *   stats-fault    injected failures on the stats artifact write —
 *                  hard ENOSPC (exit 1, no file, no .tmp), one
 *                  transient short write (retry succeeds, exit 0),
 *                  or exhausted retries (exit 1, no file).
 *
 * On any divergence the harness stops, prints every command of the
 * failing schedule (replayable by hand), keeps the artifact
 * directory, and exits 1.
 *
 * --served PATH switches to daemon schedules against membw_served:
 * SIGTERM mid-request (the daemon must drain and answer the in-flight
 * request byte-identically before exiting 3), an injected allocation
 * fault on the result cache (every response recomputes, none cached,
 * no crash), and an injected io-write fault on the spill path (evicted
 * results drop instead of spilling; responses stay correct).
 */

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <csignal>

#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "obs/emit.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "resilience/exit_codes.hh"
#include "serve/client.hh"

using namespace membw;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "membw_torture — seeded kill/inject/resume torture harness\n\n"
        "  --sim PATH       membw_sim binary to torture\n"
        "  --served PATH    membw_served binary: run daemon schedules\n"
        "                   instead (SIGTERM drain, cache-alloc and\n"
        "                   spill io-write fault injection)\n"
        "  --schedules N    schedules to run (default 200)\n"
        "  --seed N         master schedule seed (default 1)\n"
        "  --start N        first schedule index (default 0; use the\n"
        "                   index a failure reported to replay it)\n"
        "  --workload NAME  workload under test (default Compress)\n"
        "  --scale S        trace-length scale (default 0.05)\n"
        "  --dir PATH       artifact directory (default: a fresh\n"
        "                   directory under $TMPDIR)\n"
        "  --keep           keep artifacts on success\n\n"
        "Exit 0 when every schedule converges byte-identically, 1 on\n"
        "the first divergence (artifacts kept, commands printed).\n");
    std::exit(code);
}

struct Options
{
    std::string sim;
    std::string served; ///< daemon mode when non-empty
    std::size_t schedules = 200;
    std::uint64_t seed = 1;
    std::size_t start = 0;
    std::string workload = "Compress";
    double scale = 0.05;
    std::string dir;
    bool keep = false;
};

/** One child invocation of the simulator. */
struct Leg
{
    std::vector<std::string> args; ///< argv tail (after the binary)
    int exitStatus = -1;
};

std::string
quoteCmd(const std::string &sim, const Leg &leg)
{
    std::string s = sim;
    for (const std::string &a : leg.args) {
        s += ' ';
        s += a;
    }
    return s;
}

/**
 * fork/exec the simulator with stdout+stderr redirected to @p log.
 * Returns the child's exit status (137 for the injected crash), or
 * dies on infrastructure failures (fork/exec themselves).
 */
int
runLeg(const std::string &sim, const Leg &leg, const std::string &log)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
        const int fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(sim.c_str()));
        for (const std::string &a : leg.args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(sim.c_str(), argv.data());
        std::fprintf(stderr, "exec '%s' failed: %s\n", sim.c_str(),
                     std::strerror(errno));
        std::_Exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        fatal("waitpid failed");
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
removeTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            emitLinef("missing value for %s", argv[i]);
            std::exit(exitUsage);
        }
        return argv[++i];
    };
    auto count = [&](const std::string &flag, const std::string &v) {
        auto r = tryParseU64(v);
        if (!r.ok())
            fatal("invalid value '" + v + "' for " + flag + ": " +
                  r.error().message);
        return r.value();
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h")
            usage(exitOk);
        else if (a == "--sim")
            o.sim = need(i);
        else if (a == "--served")
            o.served = need(i);
        else if (a == "--schedules")
            o.schedules = static_cast<std::size_t>(count(a, need(i)));
        else if (a == "--seed")
            o.seed = count(a, need(i));
        else if (a == "--start")
            o.start = static_cast<std::size_t>(count(a, need(i)));
        else if (a == "--workload")
            o.workload = need(i);
        else if (a == "--scale") {
            auto r = tryParseDouble(need(i));
            if (!r.ok())
                fatal("invalid --scale: " + r.error().message);
            o.scale = r.value();
        } else if (a == "--dir")
            o.dir = need(i);
        else if (a == "--keep")
            o.keep = true;
        else {
            emitLinef("unknown flag '%s' (run --help)", a.c_str());
            std::exit(exitUsage);
        }
    }
    if (o.sim.empty() && o.served.empty()) {
        emitLinef("--sim PATH or --served PATH is required "
                  "(run --help)");
        std::exit(exitUsage);
    }
    return o;
}

/** Shared flags making a run deterministic and byte-comparable. */
std::vector<std::string>
baseArgs(const Options &o)
{
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%g", o.scale);
    return {"--workload", o.workload, "--scale",  scale,
            "--mtc",      "--stable-json"};
}

struct ScheduleOutcome
{
    bool ok = true;
    std::string why;
    std::vector<std::string> commands; ///< for the failure report
};

/** Run one schedule; every assertion lands in the outcome. */
ScheduleOutcome
runSchedule(const Options &o, std::size_t index,
            const std::string &baseline, std::uint64_t totalPos)
{
    ScheduleOutcome out;
    Rng rng(o.seed * 0x9e3779b97f4a7c15ull + index);
    const std::string dir = o.dir;
    const std::string ck = dir + "/ck";
    const std::string statsJson = dir + "/final.json";
    const std::string log = dir + "/leg.log";
    std::remove(ck.c_str());
    std::remove((ck + ".tmp").c_str());
    std::remove(statsJson.c_str());
    std::remove((statsJson + ".tmp").c_str());

    auto fail = [&](const std::string &why) {
        out.ok = false;
        out.why = why;
    };
    auto exec = [&](Leg &leg) {
        out.commands.push_back(quoteCmd(o.sim, leg));
        leg.exitStatus = runLeg(o.sim, leg, log);
        return leg.exitStatus;
    };
    auto compareFinal = [&] {
        if (!fileExists(statsJson)) {
            fail("final stats file was never written");
            return;
        }
        if (readFileOrDie(statsJson) != baseline)
            fail("final stats diverged from the uninterrupted "
                 "baseline");
    };

    // Checkpoint cadence: small enough that most crash positions have
    // a committed snapshot behind them, varied to move the boundaries.
    const std::uint64_t every = 1000 + rng.below(totalPos / 2 + 1);
    const std::string everyStr = std::to_string(every);

    const std::uint64_t kind = rng.below(10);
    if (kind < 6) {
        // crash/resume: 1-3 kills at increasing positions, then a
        // clean leg; every leg checkpoints so the next can resume.
        const std::size_t crashes = 1 + rng.below(3);
        std::uint64_t pos = 0;
        for (std::size_t c = 0; c < crashes; ++c) {
            pos += 1 + rng.below(totalPos / crashes);
            if (pos > totalPos)
                pos = totalPos;
            Leg leg;
            leg.args = baseArgs(o);
            leg.args.insert(leg.args.end(),
                            {"--stats-json", statsJson,
                             "--checkpoint", ck,
                             "--checkpoint-every", everyStr,
                             "--fault-inject",
                             "crash:at=" + std::to_string(pos)});
            if (fileExists(ck))
                leg.args.insert(leg.args.end(), {"--resume", ck});
            const int status = exec(leg);
            // The crash may land after the run finished (position
            // past the final mark): that leg completes cleanly.
            if (status == exitOk) {
                compareFinal();
                return out;
            }
            if (status != 137) {
                fail("crash leg exited " + std::to_string(status) +
                     " (expected 137 or 0)");
                return out;
            }
            if (fileExists(ck + ".tmp")) {
                fail("crash left a torn checkpoint temp file");
                return out;
            }
        }
        Leg leg;
        leg.args = baseArgs(o);
        leg.args.insert(leg.args.end(),
                        {"--stats-json", statsJson, "--checkpoint",
                         ck, "--checkpoint-every", everyStr});
        if (fileExists(ck))
            leg.args.insert(leg.args.end(), {"--resume", ck});
        if (exec(leg) != exitOk) {
            fail("clean resume leg exited " +
                 std::to_string(leg.exitStatus));
            return out;
        }
        compareFinal();
        return out;
    }

    if (kind < 8) {
        // ckpt-fault: disk-full on the Kth checkpoint write.  The
        // run dies (exit 1) but the previously committed checkpoint
        // must survive and resume to the baseline.
        const std::uint64_t nCkpts = totalPos / 2 / every;
        const std::uint64_t k = 1 + rng.below(nCkpts ? nCkpts : 1);
        Leg leg;
        leg.args = baseArgs(o);
        leg.args.insert(leg.args.end(),
                        {"--stats-json", statsJson, "--checkpoint",
                         ck, "--checkpoint-every", everyStr,
                         "--fault-inject",
                         "enospc:at=" + std::to_string(k)});
        const int status = exec(leg);
        if (status == exitOk) {
            // Fewer checkpoints than k: the fault never fired.
            compareFinal();
            return out;
        }
        if (status != exitFatal) {
            fail("ckpt-fault leg exited " + std::to_string(status) +
                 " (expected 1 or 0)");
            return out;
        }
        if (fileExists(ck + ".tmp")) {
            fail("failed checkpoint left its temp file behind");
            return out;
        }
        if (k > 1 && !fileExists(ck)) {
            fail("previously committed checkpoint vanished");
            return out;
        }
        Leg resume;
        resume.args = baseArgs(o);
        resume.args.insert(resume.args.end(),
                           {"--stats-json", statsJson});
        if (fileExists(ck))
            resume.args.insert(resume.args.end(), {"--resume", ck});
        if (exec(resume) != exitOk) {
            fail("resume after checkpoint fault exited " +
                 std::to_string(resume.exitStatus));
            return out;
        }
        compareFinal();
        return out;
    }

    // stats-fault: the artifact write itself fails.
    const std::uint64_t variant = rng.below(3);
    Leg leg;
    leg.args = baseArgs(o);
    leg.args.insert(leg.args.end(), {"--stats-json", statsJson});
    if (variant == 0) {
        // Hard ENOSPC: exit 1, no file, no temp.
        leg.args.insert(leg.args.end(),
                        {"--fault-inject", "enospc:at=1"});
        if (exec(leg) != exitFatal) {
            fail("enospc stats leg exited " +
                 std::to_string(leg.exitStatus) + " (expected 1)");
            return out;
        }
        if (fileExists(statsJson) ||
            fileExists(statsJson + ".tmp")) {
            fail("failed stats write left a file behind");
            return out;
        }
        return out;
    }
    if (variant == 1) {
        // One transient short write: the retry loop recovers and the
        // artifact is byte-identical to the baseline.
        leg.args.insert(leg.args.end(),
                        {"--fault-inject", "io-write:at=1"});
        if (exec(leg) != exitOk) {
            fail("transient stats leg exited " +
                 std::to_string(leg.exitStatus) + " (expected 0)");
            return out;
        }
        compareFinal();
        return out;
    }
    // Every attempt fails: retries exhaust, exit 1, nothing torn.
    leg.args.insert(leg.args.end(),
                    {"--fault-inject", "io-write:after=0"});
    if (exec(leg) != exitFatal) {
        fail("exhausted-retries leg exited " +
             std::to_string(leg.exitStatus) + " (expected 1)");
        return out;
    }
    if (fileExists(statsJson) || fileExists(statsJson + ".tmp")) {
        fail("exhausted-retries write left a file behind");
        return out;
    }
    return out;
}

// ---------------------------------------------------------------------
// Daemon schedules (--served)
// ---------------------------------------------------------------------

/** Spawn the daemon in the background with output to @p log. */
pid_t
spawnDaemon(const std::string &daemon,
            const std::vector<std::string> &args,
            const std::string &log)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
        const int fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(daemon.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(daemon.c_str(), argv.data());
        std::fprintf(stderr, "exec '%s' failed: %s\n", daemon.c_str(),
                     std::strerror(errno));
        std::_Exit(127);
    }
    return pid;
}

int
waitDaemon(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        fatal("waitpid failed");
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

/** The two canonical sweep requests every daemon schedule replays. */
std::pair<std::string, std::string>
servedRequests(const Options &o)
{
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%g", o.scale);
    auto req = [&](const char *sizes) {
        return std::string("{\"op\":\"sweep\",\"workload\":\"") +
               o.workload + "\",\"scale\":" + scale +
               ",\"sizes\":\"" + sizes +
               "\",\"mtc\":true,\"stable\":true}";
    };
    return {req("1K,4K"), req("8K")};
}

/** The envelope's "body"; empty on non-ok responses. */
std::string
servedBody(const std::string &line)
{
    const JsonValue v = parseJson(line);
    const JsonValue *status = v.find("status");
    if (!status || status->asString() != "ok")
        return {};
    const JsonValue *body = v.find("body");
    return body ? body->asString() : std::string();
}

/**
 * One daemon schedule.  Kind 0 proves the SIGTERM drain contract:
 * the signal is raised as the first compute job starts, yet the
 * in-flight client still receives the complete, byte-correct
 * response before the daemon exits with the interrupted code.
 * Kinds 1 and 2 arm fault injection on the result-cache insert
 * ("alloc") and the spill write ("io-write"): the daemon must keep
 * answering correctly — degraded to recomputing, never crashing.
 */
ScheduleOutcome
runServedSchedule(const Options &o, std::size_t index,
                  const std::string &body1, const std::string &body2)
{
    ScheduleOutcome out;
    Rng rng(o.seed * 0x9e3779b97f4a7c15ull + index);
    const std::string sock = o.dir + "/served.sock";
    const std::string log = o.dir + "/served.log";
    const std::string spill = o.dir + "/spill";
    std::remove(sock.c_str());
    const auto [req1, req2] = servedRequests(o);

    auto fail = [&](const std::string &why) {
        out.ok = false;
        out.why = why;
    };

    const std::uint64_t kind = rng.below(3);
    std::vector<std::string> args{"--socket", sock, "--jobs", "2"};
    if (kind == 0) {
        args.insert(args.end(), {"--sigterm-after", "1"});
    } else if (kind == 1) {
        args.insert(args.end(), {"--fault-inject", "alloc:after=0"});
    } else {
        // Bound the cache just above one response so the second
        // request evicts the first; the injected io-write fault makes
        // every spill attempt fail.
        ::mkdir(spill.c_str(), 0755);
        args.insert(args.end(),
                    {"--cache-bytes",
                     std::to_string(body1.size() + 512), "--spill-dir",
                     spill, "--fault-inject", "io-write:after=0"});
    }
    {
        std::string cmd = o.served;
        for (const std::string &a : args)
            cmd += " " + a;
        out.commands.push_back(cmd);
    }

    const pid_t pid = spawnDaemon(o.served, args, log);
    if (!waitForServer(sock, 10'000)) {
        ::kill(pid, SIGKILL);
        waitDaemon(pid);
        fail("daemon did not come up on " + sock);
        return out;
    }

    if (kind == 0) {
        // The in-flight request must be drained and answered in full.
        auto resp = serveRequestOnce(sock, req1);
        if (!resp || servedBody(*resp) != body1) {
            ::kill(pid, SIGKILL);
            waitDaemon(pid);
            fail("drained response missing or diverged from the "
                 "clean-daemon baseline");
            return out;
        }
        const int status = waitDaemon(pid);
        if (status != exitInterrupted) {
            fail("daemon exited " + std::to_string(status) +
                 " after SIGTERM (expected " +
                 std::to_string(exitInterrupted) + ")");
            return out;
        }
        if (fileExists(sock))
            fail("daemon left its socket behind after SIGTERM");
        return out;
    }

    // Fault kinds: alternate requests so kind 2 keeps evicting (and
    // keeps failing to spill); every response must stay byte-correct
    // and uncached computation must not crash the daemon.
    const std::size_t rounds = 2 + rng.below(3);
    for (std::size_t r = 0; r < rounds; ++r) {
        const bool first = r % 2 == 0;
        auto resp = serveRequestOnce(sock, first ? req1 : req2);
        if (!resp || servedBody(*resp) != (first ? body1 : body2)) {
            ::kill(pid, SIGKILL);
            waitDaemon(pid);
            fail("degraded response " + std::to_string(r) +
                 " missing or diverged under fault injection");
            return out;
        }
        if (kind == 1) {
            // The alloc fault blocks every insert: no response may
            // ever be served from cache.
            const JsonValue v = parseJson(*resp);
            if (const JsonValue *cached = v.find("cached");
                cached && cached->asBool()) {
                ::kill(pid, SIGKILL);
                waitDaemon(pid);
                fail("response was cached despite the injected "
                     "alloc fault");
                return out;
            }
        }
    }
    (void)serveRequestOnce(sock, "{\"op\":\"shutdown\"}");
    const int status = waitDaemon(pid);
    if (status != exitOk)
        fail("daemon exited " + std::to_string(status) +
             " under fault injection (expected 0)");
    return out;
}

/** Daemon-mode torture: clean baseline responses, then schedules. */
int
runServedTorture(const Options &o)
{
    const std::string sock = o.dir + "/served.sock";
    const auto [req1, req2] = servedRequests(o);

    // Clean daemon: the baseline bodies every schedule must match.
    const pid_t pid = spawnDaemon(o.served,
                                  {"--socket", sock, "--jobs", "2"},
                                  o.dir + "/base.log");
    if (!waitForServer(sock, 10'000)) {
        ::kill(pid, SIGKILL);
        waitDaemon(pid);
        fatal("baseline daemon did not come up (see " + o.dir +
              "/base.log)");
    }
    const std::string body1 =
        servedBody(serveRequestOnce(sock, req1).value_or("{}"));
    const std::string body2 =
        servedBody(serveRequestOnce(sock, req2).value_or("{}"));
    (void)serveRequestOnce(sock, "{\"op\":\"shutdown\"}");
    if (waitDaemon(pid) != exitOk || body1.empty() || body2.empty())
        fatal("baseline daemon run failed (see " + o.dir +
              "/base.log)");

    std::printf("torture: %zu daemon schedules (seed %llu)\n",
                o.schedules,
                static_cast<unsigned long long>(o.seed));
    for (std::size_t s = o.start; s < o.start + o.schedules; ++s) {
        const ScheduleOutcome r =
            runServedSchedule(o, s, body1, body2);
        if (!r.ok) {
            std::printf("\nschedule %zu FAILED: %s\n", s,
                        r.why.c_str());
            std::printf("replay: --served %s --seed %llu --start "
                        "%zu --schedules 1 --dir %s\n",
                        o.served.c_str(),
                        static_cast<unsigned long long>(o.seed), s,
                        o.dir.c_str());
            for (const std::string &c : r.commands)
                std::printf("  %s\n", c.c_str());
            std::printf("artifacts kept in %s\n", o.dir.c_str());
            return exitFatal;
        }
        if ((s + 1) % 25 == 0 || s + 1 == o.start + o.schedules)
            emitLinef("membw_torture: %zu/%zu daemon schedules ok",
                      s + 1 - o.start, o.schedules);
    }
    std::printf("torture: all %zu daemon schedules converged\n",
                o.schedules);
    return exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options o = parse(argc, argv);

        bool madeDir = false;
        if (o.dir.empty()) {
            const char *tmp = std::getenv("TMPDIR");
            std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                               "/membw_torture.XXXXXX";
            std::vector<char> buf(tmpl.begin(), tmpl.end());
            buf.push_back('\0');
            if (!::mkdtemp(buf.data()))
                fatal("mkdtemp failed: " +
                      std::string(std::strerror(errno)));
            o.dir = buf.data();
            madeDir = true;
        } else {
            ::mkdir(o.dir.c_str(), 0755);
        }

        if (!o.served.empty()) {
            const int rc = runServedTorture(o);
            if (rc == exitOk && !o.keep && madeDir) {
                removeTree(o.dir + "/spill");
                removeTree(o.dir);
            }
            else if (rc == exitOk)
                std::printf("artifacts in %s\n", o.dir.c_str());
            return rc;
        }

        // Uninterrupted baseline: the byte-exact target every
        // schedule must converge to, and the source of the run's
        // reference count (positions span both phases).
        const std::string basePath = o.dir + "/base.json";
        Leg base;
        base.args = baseArgs(o);
        base.args.insert(base.args.end(), {"--stats-json", basePath});
        std::printf("baseline: %s\n",
                    quoteCmd(o.sim, base).c_str());
        if (runLeg(o.sim, base, o.dir + "/base.log") != exitOk)
            fatal("baseline run failed (see " + o.dir +
                  "/base.log)");
        const std::string baseline = readFileOrDie(basePath);
        const std::uint64_t refs = static_cast<std::uint64_t>(
            parseJson(baseline).at("manifest").at("refs").asNumber());
        if (refs == 0)
            fatal("baseline reports zero references");
        const std::uint64_t totalPos = 2 * refs; // hierarchy + MTC

        std::printf("torture: %zu schedules (seed %llu, %llu refs, "
                    "%llu positions)\n",
                    o.schedules,
                    static_cast<unsigned long long>(o.seed),
                    static_cast<unsigned long long>(refs),
                    static_cast<unsigned long long>(totalPos));

        for (std::size_t s = o.start; s < o.start + o.schedules;
             ++s) {
            const ScheduleOutcome r =
                runSchedule(o, s, baseline, totalPos);
            if (!r.ok) {
                std::printf("\nschedule %zu FAILED: %s\n", s,
                            r.why.c_str());
                std::printf("replay: --seed %llu --start %zu "
                            "--schedules 1 --dir %s\n",
                            static_cast<unsigned long long>(o.seed),
                            s, o.dir.c_str());
                for (const std::string &c : r.commands)
                    std::printf("  %s\n", c.c_str());
                std::printf("artifacts kept in %s\n", o.dir.c_str());
                return exitFatal;
            }
            if ((s + 1) % 25 == 0 || s + 1 == o.start + o.schedules)
                emitLinef("membw_torture: %zu/%zu schedules ok",
                          s + 1 - o.start, o.schedules);
        }
        std::printf("torture: all %zu schedules converged "
                    "byte-identically\n",
                    o.schedules);
        if (!o.keep && madeDir)
            removeTree(o.dir);
        else
            std::printf("artifacts in %s\n", o.dir.c_str());
        return exitOk;
    } catch (const FatalError &e) {
        emitLine(e.what());
        return exitFatal;
    }
}
