/**
 * @file
 * served_mix: a closed loop against a forked membw_served.  Each
 * client connection keeps one request in flight and waits for the
 * reply before sending the next, as scripted sweeps do.  Every pass
 * replays the same seeded script against a freshly started daemon,
 * so each pass goes through the same cold-to-warm cache history.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <barrier>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "driver.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "recorder.hh"
#include "serve/client.hh"
#include "serve/decompose_service.hh"
#include "serve/protocol.hh"
#include "serve/sweep_service.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace perfbench {

namespace {

/*
 * The mix copies bench/served_qps, the repository's daemon benchmark,
 * where it can (its committed run is results/BENCH_served.json): the
 * hot set holds its six sweeps, at its scale, and each hot request is
 * sent once cold and 32 times warm, as there (6 cold of 198).  What
 * served_qps does not exercise is added on assumption, with no
 * measured traffic behind the numbers: two decompositions in the hot
 * set, one fresh request per connection, and two bursts.
 */
constexpr double sweepScale = 0.05;
constexpr double decomposeScale = 0.02; // assumed
const char *const qpsKernels[] = {"Compress", "Eqntott", "Swm"};
const char *const qpsLadders[] = {"1K,4K,16K", "64K,256K"};
/** Sends of each hot request per pass: served_qps's 1 cold + 32 warm. */
constexpr std::size_t sendsPerHot = 33;
/** Requests per connection and pass asked nowhere else (assumed). */
constexpr std::size_t freshPerClient = 1;
/** Evenly spaced slots at which every connection sends the same fresh
 * request at once, so identical requests arrive together (assumed). */
constexpr std::size_t bursts = 2;
/** Requests per plain run at least, so p99 has ten beyond it. */
constexpr std::size_t minRequests = 1000;

std::string
sweepLine(const std::string &workload, std::uint64_t seed,
          const std::string &sizes, const std::string &blocks,
          unsigned assoc, bool mtc)
{
    return "{\"op\":\"sweep\",\"workload\":\"" + workload +
           "\",\"scale\":" + formatJsonNumber(sweepScale) +
           ",\"seed\":" + std::to_string(seed) + ",\"sizes\":\"" + sizes +
           "\",\"blocks\":\"" + blocks +
           "\",\"assoc\":" + std::to_string(assoc) +
           (mtc ? ",\"mtc\":true" : "") + ",\"stable\":true}";
}

std::string
decomposeLine(const std::string &workload, char letter,
              std::uint64_t seed)
{
    return "{\"op\":\"decompose\",\"workload\":\"" + workload +
           "\",\"experiment\":\"" + std::string(1, letter) +
           "\",\"scale\":" + formatJsonNumber(decomposeScale) +
           ",\"seed\":" + std::to_string(seed) + ",\"stable\":true}";
}

struct Slot
{
    std::size_t request = 0;
    /** Wait until every connection reaches such a slot, then send. */
    bool barrier = false;
};

/** The seeded request script every pass replays. */
struct Script
{
    std::vector<std::string> requests; ///< distinct request lines
    std::size_t hot = 0;               ///< the first `hot` are the hot set
    std::vector<std::vector<Slot>> clients;
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * The hot set is served_qps's mix plus two Figure 3 cells.  As in
 * served_qps, a pass opens with a cold phase, where the first
 * connection sends each hot request once while the others wait; then
 * every connection sends its share of the remaining sendsPerHot - 1
 * copies of each, in seeded order.  Fresh requests are sweeps over
 * the hot set's traces and block size with another associativity and
 * no MTC, so the daemon reuses its cached traces and block streams;
 * none is sent twice except by the connections of one burst.
 */
Script
makeScript(std::uint64_t seed, unsigned clients)
{
    Script s;
    for (const char *w : qpsKernels)
        for (const char *ladder : qpsLadders)
            s.requests.push_back(sweepLine(w, seed, ladder, "32", 4, true));
    s.requests.push_back(decomposeLine("Compress", 'F', seed));
    s.requests.push_back(decomposeLine("Swm", 'F', seed));
    s.hot = s.requests.size();

    // One fresh request per hot sweep, so the fresh work is about the
    // same at every seed; the seed draws the associativity and order.
    const unsigned assocs[] = {1, 2, 8};
    Rng rng(seed);
    std::vector<std::string> fresh;
    for (const char *w : qpsKernels)
        for (const char *ladder : qpsLadders)
            fresh.push_back(sweepLine(w, seed, ladder, "32",
                                      assocs[rng.below(3)], false));
    if (fresh.size() < clients * freshPerClient + bursts)
        throw std::invalid_argument("too many connections for the mix");
    shuffle(fresh, rng);

    std::vector<Slot> cold, sends;
    for (std::size_t r = 0; r < s.hot; ++r) {
        cold.push_back(Slot{r, false});
        sends.insert(sends.end(), sendsPerHot - 1, Slot{r, false});
    }
    for (std::size_t i = 0; i < clients * freshPerClient; ++i) {
        sends.push_back(Slot{s.requests.size(), false});
        s.requests.push_back(fresh[i]);
    }
    shuffle(cold, rng);
    shuffle(sends, rng);

    // Deal the sends round-robin and put the bursts in evenly; every
    // connection starts at a barrier, which the first one reaches
    // after the cold phase.
    s.clients.resize(clients);
    for (std::size_t i = 0; i < sends.size(); ++i)
        s.clients[i % clients].push_back(sends[i]);
    for (std::size_t b = 0; b < bursts; ++b) {
        const Slot burst{s.requests.size(), true};
        s.requests.push_back(fresh[clients * freshPerClient + b]);
        for (std::vector<Slot> &client : s.clients) {
            const std::size_t at = (b + 1) * client.size() / (bursts + 1);
            client.insert(client.begin() + static_cast<std::ptrdiff_t>(at),
                          burst);
        }
    }
    for (std::vector<Slot> &client : s.clients)
        client.front().barrier = true;
    s.clients.front().insert(s.clients.front().begin(), cold.begin(),
                             cold.end());
    return s;
}

/** A membw_served on a private socket; the destructor shuts it down
 * and waits for it to exit. */
class Daemon
{
  public:
    Daemon(const std::string &socket, unsigned jobs) : socket_(socket)
    {
        const std::string jobsArg = std::to_string(jobs);
        ::unlink(socket_.c_str());
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The benchmark's stdout carries only its result.
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, STDOUT_FILENO);
            ::execl(PERFBENCH_SERVED_PATH, "membw_served", "--socket",
                    socket_.c_str(), "--jobs", jobsArg.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Ping until the daemon answers; false if it exits first or 10 s
     * pass. */
    bool
    waitReady()
    {
        const std::uint64_t deadline = nowNs() + 10'000'000'000ULL;
        while (nowNs() < deadline) {
            const auto reply =
                serveRequestOnce(socket_, "{\"op\":\"ping\"}");
            if (reply &&
                reply->find("\"status\":\"ok\"") != std::string::npos)
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    }

    double
    peakRssMb() const
    {
        return perfbench::peakRssMb(std::to_string(pid_));
    }

    /** Shut down, SIGKILL after 5 s, and reap. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        (void)serveRequestOnce(socket_, "{\"op\":\"shutdown\"}");
        int status = 0;
        for (int i = 0; i < 500; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/**
 * "ok", or why a response failed: "busy" or "error" envelopes,
 * "degraded" for a non-zero exit code, "io" for a lost connection.
 */
std::string
classify(const std::optional<std::string> &reply, std::string &body)
{
    if (!reply)
        return "io";
    try {
        const JsonValue v = parseJson(*reply);
        const JsonValue *status = v.find("status");
        if (!status || !status->isString())
            return "error";
        if (status->asString() != "ok")
            return status->asString();
        if (const JsonValue *exit = v.find("exit");
            exit && exit->asNumber() != 0)
            return "degraded";
        if (const JsonValue *b = v.find("body"))
            body = b->asString();
        return "ok";
    } catch (const std::exception &) {
        return "error";
    }
}

struct RequestRecord
{
    int pass = 0;
    std::size_t request = 0;
    double ms = 0.0;
    std::string status;
    bool warm = false; ///< the same request was answered before it
    int body = -1;     ///< index into the request's distinct bodies
};

/** The distinct response bodies received for each request. */
class Bodies
{
  public:
    explicit Bodies(std::size_t requests) : distinct_(requests) {}

    int
    intern(std::size_t request, std::string body)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> &seen = distinct_[request];
        for (std::size_t i = 0; i < seen.size(); ++i)
            if (seen[i] == body)
                return static_cast<int>(i);
        seen.push_back(std::move(body));
        return static_cast<int>(seen.size() - 1);
    }

    const std::vector<std::string> &
    of(std::size_t request) const
    {
        return distinct_[request];
    }

  private:
    std::mutex mutex_;
    std::vector<std::vector<std::string>> distinct_;
};

struct PassRecord
{
    int pass = 0;
    bool traced = false;
    double setupS = 0.0;
    /** Mean of the reference loops before the fork and after the pass. */
    double refS = 0.0;
    double rssMb = 0.0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::string stats; ///< the daemon's stats envelope after the pass
};

PassRecord
runPass(int pass, bool traced, const Script &script,
        const RunOptions &opt, Recorder &rec, Bodies &bodies,
        std::vector<RequestRecord> &records)
{
    PassRecord p;
    p.pass = pass;
    p.traced = traced;
    rec.beginPass(pass, traced);

    const double refBefore = referenceLoopS(opt.jobs);
    const std::uint64_t forked = nowNs();
    Daemon daemon(opt.socket, opt.jobs);
    if (!daemon.waitReady())
        throw std::runtime_error("membw_served did not answer ping");
    p.setupS = static_cast<double>(nowNs() - forked) / 1e9;

    std::mutex mutex; // guards answered and records
    std::set<std::size_t> answered;
    std::barrier sync(static_cast<std::ptrdiff_t>(script.clients.size()));
    p.startNs = nowNs();
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < script.clients.size(); ++c)
            clients.emplace_back([&, c] {
                ServeClient conn;
                const bool up = conn.connect(opt.socket);
                std::vector<RequestRecord> mine;
                for (const Slot &slot : script.clients[c]) {
                    if (slot.barrier)
                        sync.arrive_and_wait();
                    RequestRecord r;
                    r.pass = pass;
                    r.request = slot.request;
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        r.warm = answered.count(slot.request) > 0;
                    }
                    const std::uint64_t sent = nowNs();
                    std::optional<std::string> reply;
                    if (up && conn.sendLine(script.requests[slot.request]))
                        reply = conn.recvLine();
                    const std::uint64_t done = nowNs();
                    r.ms = static_cast<double>(done - sent) / 1e6;
                    std::string body;
                    r.status = classify(reply, body);
                    if (r.status == "ok") {
                        r.body = bodies.intern(slot.request, std::move(body));
                        std::lock_guard<std::mutex> lock(mutex);
                        answered.insert(slot.request);
                    }
                    if (traced) {
                        Span s;
                        s.name = r.warm ? "serve.request_warm"
                                        : "serve.request_cold";
                        s.id = rec.newId();
                        s.thread = threadIndex();
                        s.pass = pass;
                        s.startNs = s.submitNs = sent;
                        s.endNs = done;
                        rec.add(s);
                    }
                    mine.push_back(std::move(r));
                }
                std::lock_guard<std::mutex> lock(mutex);
                records.insert(records.end(), mine.begin(), mine.end());
            });
        for (std::thread &t : clients)
            t.join();
    }
    p.endNs = nowNs();
    p.stats =
        serveRequestOnce(opt.socket, "{\"op\":\"stats\"}").value_or("{}");
    p.rssMb = daemon.peakRssMb();
    daemon.stop();
    p.refS = (refBefore + referenceLoopS(opt.jobs)) / 2;
    return p;
}

/** The body the daemon must send for a request, computed in this
 * process through the same service calls and renderers. */
class Reference
{
  public:
    explicit Reference(unsigned jobs) : pool_(jobs), jobs_(jobs) {}

    std::string
    render(const std::string &line)
    {
        const ServeRequest req = parseServeRequest(line);
        if (req.op == ServeOp::Sweep) {
            const SweepRequest &s = req.sweep;
            auto it = traces_.find(s.workload);
            if (it == traces_.end()) {
                WorkloadParams p;
                p.scale = s.scale;
                p.seed = s.seed;
                it = traces_
                         .emplace(s.workload,
                                  makeWorkload(s.workload)->trace(p))
                         .first;
            }
            SweepExecOptions eo;
            eo.jobs = jobs_;
            eo.pool = &pool_;
            return renderSweepStatsJson(s, it->second.size(),
                                        executeSweep(s, it->second, eo));
        }
        const DecomposeRequest &d = req.decompose;
        auto it = streams_.find(d.workload);
        if (it == streams_.end())
            it = streams_
                     .emplace(d.workload, buildDecomposeStream(
                                              d.workload, d.scale, d.seed))
                     .first;
        return renderDecomposeStatsJson(d, it->second.size(),
                                        executeDecompose(d, it->second),
                                        0.0);
    }

  private:
    ThreadPool pool_;
    unsigned jobs_;
    // Every request of the script shares one scale and seed per op,
    // so the workload name identifies its input.
    std::map<std::string, Trace> traces_;
    std::map<std::string, InstrStream> streams_;
};

} // namespace

void
runServedMix(const RunOptions &opt, JsonWriter &w)
{
    const Script script = makeScript(opt.seed, opt.jobs);
    std::size_t perPass = 0;
    for (const std::vector<Slot> &client : script.clients)
        perPass += client.size();
    Recorder rec;
    Bodies bodies(script.requests.size());
    std::vector<RequestRecord> records;
    std::vector<PassRecord> passes;

    std::size_t plainRequests = 0;
    const std::uint64_t start = nowNs();
    for (int i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        passes.push_back(
            runPass(i, traced, script, opt, rec, bodies, records));
        if (!traced)
            plainRequests += perPass;
        const double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        const bool enough = i + 1 >= (opt.trace ? 4 : 3) &&
                            (opt.trace || plainRequests >= minRequests);
        if ((elapsed >= opt.seconds && enough) ||
            (elapsed >= 3 * opt.seconds && i + 1 >= 4))
            break;
    }

    // Output check, after timing: each distinct body must equal the
    // in-process render of its request.
    rec.beginPass(verifyPass, false);
    Reference reference(opt.jobs);
    std::vector<std::vector<char>> match(script.requests.size());
    for (std::size_t r = 0; r < script.requests.size(); ++r) {
        if (bodies.of(r).empty())
            continue;
        std::string expected;
        try {
            expected = reference.render(script.requests[r]);
        } catch (const std::exception &e) {
            rec.fail(std::string("in-process render: ") + e.what());
        }
        for (const std::string &body : bodies.of(r))
            match[r].push_back(!expected.empty() && body == expected);
    }

    w.beginObject();
    w.field("workload", opt.workload);
    w.field("seed", opt.seed);
    w.field("trace", opt.trace);
    w.field("jobs", static_cast<std::uint64_t>(opt.jobs));
    w.field("input",
            std::to_string(perPass) + " requests per pass over " +
                std::to_string(script.clients.size()) +
                " connections: " + std::to_string(script.hot) +
                " hot requests sent " + std::to_string(sendsPerHot) +
                " times each, first in a serial cold phase (served_qps's "
                "Figure 4 sweeps at scale " +
                formatJsonNumber(sweepScale) +
                ", two Figure 3 decompositions at scale " +
                formatJsonNumber(decomposeScale) + "), " +
                std::to_string(script.requests.size() - script.hot -
                               bursts) +
                " fresh ones, " + std::to_string(bursts) +
                " bursts of identical fresh requests");
    w.key("passes");
    w.beginArray();
    for (const PassRecord &p : passes) {
        w.beginObject();
        w.field("pass", p.pass);
        w.field("traced", p.traced);
        w.field("setup_s", p.setupS);
        w.field("ref_s", p.refS);
        w.field("start_ns", p.startNs);
        w.field("end_ns", p.endNs);
        w.field("wall_s", static_cast<double>(p.endNs - p.startNs) / 1e9);
        w.field("rss_mb", p.rssMb);
        w.field("stats", p.stats);
        w.endObject();
    }
    w.endArray();
    w.key("requests");
    w.beginArray();
    for (const RequestRecord &r : records) {
        w.beginObject();
        w.field("pass", r.pass);
        w.field("request", static_cast<std::uint64_t>(r.request));
        w.field("ms", r.ms);
        w.field("status", r.status);
        w.field("warm", r.warm);
        w.field("match", r.body >= 0 && match[r.request][r.body] != 0);
        w.endObject();
    }
    w.endArray();
    w.key("checks");
    w.beginArray();
    w.endArray();
    rec.write(w);
    w.endObject();
}

} // namespace perfbench
