#include "serve/server.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cache/stack_distance.hh"
#include "common/log.hh"
#include "mtc/next_use.hh"
#include "obs/build_info.hh"
#include "obs/manifest.hh"
#include "obs/progress.hh"
#include "resilience/exit_codes.hh"
#include "resilience/signals.hh"
#include "serve/decompose_service.hh"
#include "serve/sweep_service.hh"
#include "trace/block_stream.hh"
#include "workloads/workload.hh"

namespace membw {

namespace {

/** send(2) until @p data is fully sent; false on error.  MSG_NOSIGNAL
 * turns a client that closed its socket mid-response into an EPIPE
 * return instead of a process-killing SIGPIPE. */
bool
writeAll(int fd, std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
formatScale(double scale)
{
    return formatJsonNumber(scale);
}

} // namespace

ServeServer::ServeServer(ServerOptions opts)
    : opts_(std::move(opts)),
      artifacts_(opts_.artifactCacheBytes),
      results_(opts_.resultCacheBytes, opts_.spillDir),
      broker_(opts_.queueCapacity)
{
    if (opts_.jobs > 1)
        pool_.emplace(opts_.jobs);
    if (opts_.sigtermAfterJobs > 0) {
        const std::uint64_t target = opts_.sigtermAfterJobs;
        broker_.onJobStart([target](std::uint64_t nth) {
            if (nth == target)
                std::raise(SIGTERM);
        });
    }
}

ServeServer::~ServeServer()
{
    stopping_.store(true);
    broker_.drainAndStop();
    joinAllThreads();
}

void
ServeServer::reapFinishedThreads()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(threadsMutex_);
        for (const std::uint64_t id : finishedThreads_) {
            if (auto it = threads_.find(id); it != threads_.end()) {
                done.push_back(std::move(it->second));
                threads_.erase(it);
            }
        }
        finishedThreads_.clear();
    }
    // Join outside the lock: each thread's last act is to enqueue its
    // id under threadsMutex_, so these joins return immediately.
    for (auto &t : done)
        t.join();
}

void
ServeServer::joinAllThreads()
{
    std::unordered_map<std::uint64_t, std::thread> all;
    {
        std::lock_guard<std::mutex> lock(threadsMutex_);
        all.swap(threads_);
        finishedThreads_.clear();
    }
    for (auto &[id, t] : all) {
        (void)id;
        if (t.joinable())
            t.join();
    }
}

int
ServeServer::run()
{
    // Belt and braces with writeAll's MSG_NOSIGNAL: no disconnecting
    // client may take the long-lived daemon down with a SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        logError("socket path too long: " + opts_.socketPath);
        return exitFatal;
    }
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size() + 1);

    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        logError(std::string("socket: ") + std::strerror(errno));
        return exitFatal;
    }
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        logError("bind/listen on '" + opts_.socketPath +
                 "': " + std::strerror(errno));
        ::close(listenFd);
        return exitFatal;
    }
    logInfo("membw_served listening on " + opts_.socketPath);

    // Accept loop: poll with a short timeout so a latched signal or a
    // shutdown request is noticed within ~200ms.
    while (!shutdownRequested() && shutdownExit_.load() < 0) {
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            logError(std::string("poll: ") + std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        reapFinishedThreads();
        std::lock_guard<std::mutex> lock(threadsMutex_);
        const std::uint64_t id = nextThreadId_++;
        threads_.emplace(id, std::thread([this, fd, id] {
            handleConnection(fd);
            std::lock_guard<std::mutex> lock(threadsMutex_);
            finishedThreads_.push_back(id);
        }));
    }

    // Drain: every admitted job finishes and its waiting clients get
    // their complete responses before the listener goes away.
    stopping_.store(true);
    broker_.drainAndStop();
    ::close(listenFd);
    joinAllThreads();
    ::unlink(opts_.socketPath.c_str());

    if (shutdownExit_.load() >= 0) {
        logInfo("membw_served: shutdown requested; exiting");
        return shutdownExit_.load();
    }
    logInfo(std::string("membw_served: ") + shutdownSignalName() +
            " received; drained in-flight requests");
    return exitInterrupted;
}

void
ServeServer::handleConnection(int fd)
{
    std::string buffer;
    bool open = true;
    while (open) {
        // Serve any fully-buffered lines first.
        std::size_t nl;
        while ((nl = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            if (line.empty())
                continue;
            const std::string response = handleRequest(line);
            if (!writeAll(fd, response + "\n")) {
                open = false;
                break;
            }
        }
        if (!open)
            break;
        if (stopping_.load() || shutdownRequested() ||
            shutdownExit_.load() >= 0)
            break;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        char chunk[1 << 16];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
}

std::string
ServeServer::handleRequest(const std::string &line)
{
    requests_.fetch_add(1);
    ServeRequest req;
    try {
        req = parseServeRequest(line);
    } catch (const FatalError &e) {
        return errorEnvelope("request", e.what());
    }

    switch (req.op) {
      case ServeOp::Ping:
        return pingEnvelope();
      case ServeOp::Stats:
        return statsEnvelope();
      case ServeOp::Shutdown:
        shutdownExit_.store(exitOk);
        return okEnvelope(ServeOp::Shutdown, false, exitOk,
                          "shutting down");
      case ServeOp::Sweep:
      case ServeOp::Decompose:
        break;
    }

    // Keying can itself reject a request (serveRequestKey canonicalises
    // through the experiment config, which fatal()s on bad overrides);
    // that must become an error envelope, not an escaped exception that
    // terminates the connection thread.
    std::string key;
    std::uint64_t digest = 0;
    try {
        key = serveRequestKey(req);
        digest = fnv1a64(key);
    } catch (const FatalError &e) {
        return errorEnvelope(req.op, e.what());
    }
    if (auto hit = results_.get(digest, key))
        return okEnvelope(req.op, true, hit->exitCode, hit->body);

    auto submission = broker_.submit(
        digest, [this, req, key, digest] {
            return computeResponse(req, key, digest);
        });
    if (submission.busy)
        return busyEnvelope(req.op, submission.queued,
                            opts_.queueCapacity);
    return RequestBroker::wait(submission.job);
}

std::string
ServeServer::computeResponse(const ServeRequest &req,
                             const std::string &key,
                             std::uint64_t digest)
{
    // A coalescing race can complete this digest between the probe
    // and the dispatch; the recheck keeps that case a cache hit.
    if (auto hit = results_.get(digest, key, /*recordMiss=*/false))
        return okEnvelope(req.op, true, hit->exitCode, hit->body);
    try {
        if (req.op == ServeOp::Sweep)
            return computeSweep(req.sweep, key, digest);
        return computeDecompose(req.decompose, key, digest);
    } catch (const WatchdogError &e) {
        return errorEnvelope(req.op, e.what());
    } catch (const FatalError &e) {
        return errorEnvelope(req.op, e.what());
    }
}

std::string
ServeServer::traceKey(const std::string &workload, double scale,
                      std::uint64_t seed)
{
    return workload + "|" + formatScale(scale) + "|" +
           std::to_string(seed);
}

std::shared_ptr<const Trace>
ServeServer::traceFor(const std::string &workload, double scale,
                      std::uint64_t seed)
{
    const std::string key = "trace|" + traceKey(workload, scale, seed);
    return artifacts_.getOrBuild<Trace>(key, [&] {
        WorkloadParams p;
        p.scale = scale;
        p.seed = seed;
        auto trace = std::make_shared<const Trace>(
            makeWorkload(workload)->trace(p));
        const std::size_t bytes = trace->size() * sizeof(MemRef);
        return ArtifactCache::Built<Trace>{std::move(trace), bytes};
    });
}

std::string
ServeServer::computeSweep(const SweepRequest &req,
                          const std::string &key,
                          std::uint64_t digest)
{
    // Derived artifacts are keyed by the trace's own key: a served
    // trace is always generated from exactly these three values.
    const std::string tkey = traceKey(req.workload, req.scale, req.seed);
    auto trace = traceFor(req.workload, req.scale, req.seed);

    SweepExecOptions eopts;
    eopts.jobs = opts_.jobs;
    eopts.pool = pool_ ? &*pool_ : nullptr;
    // The daemon deliberately wires no cancel hook: a drained
    // in-flight request must produce the same bytes as an
    // undisturbed run (see sweep_service.hh).
    eopts.streamProvider = [this, trace, tkey](Bytes blockBytes) {
        const std::string key =
            "stream|" + tkey + "|" + std::to_string(blockBytes);
        return artifacts_.getOrBuild<BlockStream>(key, [&] {
            auto stream = std::make_shared<BlockStream>(
                buildBlockStream(*trace, blockBytes));
            // Estimated decode-array footprint: 19 bytes per
            // reference (8+1+2+8 across the four columns).
            const std::size_t bytes = stream->refs * 19;
            return ArtifactCache::Built<BlockStream>{std::move(stream),
                                                     bytes};
        });
    };
    eopts.profileProvider = [this, trace, tkey](Bytes blockBytes) {
        const std::string key =
            "sdprof|" + tkey + "|" + std::to_string(blockBytes);
        return artifacts_.getOrBuild<StackDistanceProfile>(key, [&] {
            auto profile = std::make_shared<StackDistanceProfile>(
                *trace, blockBytes);
            // Histogram bound: ~16 bytes per reference.
            const std::size_t bytes = trace->size() * 16;
            return ArtifactCache::Built<StackDistanceProfile>{
                std::move(profile), bytes};
        });
    };
    eopts.nextUseProvider = [this, trace, tkey](Bytes blockBytes) {
        const std::string key =
            "nextuse|" + tkey + "|" + std::to_string(blockBytes);
        return artifacts_.getOrBuild<NextUseData>(key, [&] {
            auto table = std::make_shared<NextUseData>(
                buildNextUseData(*trace, blockBytes));
            const std::size_t bytes =
                table->ticks.size() * sizeof(Tick) +
                table->deadRank.size() * sizeof(std::uint32_t);
            return ArtifactCache::Built<NextUseData>{std::move(table),
                                                     bytes};
        });
    };

    SweepOutcome outcome = executeSweep(req, *trace, eopts);
    const std::string body =
        renderSweepStatsJson(req, trace->size(), outcome);
    const int exitCode = outcome.degraded ? exitDegraded : exitOk;
    results_.put(digest, key, CachedResult{body, exitCode});
    return okEnvelope(ServeOp::Sweep, false, exitCode, body);
}

std::string
ServeServer::computeDecompose(const DecomposeRequest &req,
                              const std::string &key,
                              std::uint64_t digest)
{
    const std::string streamKey =
        "instr|" + traceKey(req.workload, req.scale, req.seed);
    auto stream = artifacts_.getOrBuild<InstrStream>(streamKey, [&] {
        auto built = std::make_shared<InstrStream>(
            buildDecomposeStream(req.workload, req.scale, req.seed));
        const std::size_t bytes = built->bytes();
        return ArtifactCache::Built<InstrStream>{std::move(built),
                                                 bytes};
    });

    WallTimer timer;
    // The dispatcher runs one request at a time, so the pool is
    // idle: the three phases run on it, as a sweep's cells do.
    DecompositionResult r =
        executeDecompose(req, *stream, pool_ ? &*pool_ : nullptr);
    const std::string body = renderDecomposeStatsJson(
        req, stream->size(), r, timer.seconds());
    results_.put(digest, key, CachedResult{body, exitOk});
    return okEnvelope(ServeOp::Decompose, false, exitOk, body);
}

std::string
ServeServer::pingEnvelope() const
{
    const BuildInfo &b = buildInfo();
    std::string out = "{\"status\":\"ok\",\"op\":\"ping\"";
    out += ",\"version\":" + jsonEscape(b.version);
    out += ",\"git_describe\":" + jsonEscape(b.gitDescribe);
    out += ",\"tracing\":";
    out += b.tracing ? "true" : "false";
    // The profiling hooks are always compiled in; the field stays
    // so ping responses keep their shape.
    out += ",\"profiling\":true";
    out += ",\"sanitizer\":" + jsonEscape(b.sanitizer);
    out += ",\"jobs\":" + std::to_string(opts_.jobs);
    out += "}";
    return out;
}

std::string
ServeServer::statsEnvelope() const
{
    std::string out = "{\"status\":\"ok\",\"op\":\"stats\"";
    out += ",\"requests\":" + std::to_string(requests_.load());
    out += ",\"executed\":" + std::to_string(broker_.executed());
    out += ",\"coalesced\":" + std::to_string(broker_.coalesced());
    out += ",\"busy_rejected\":" +
           std::to_string(broker_.busyRejected());
    out += ",\"queue_depth\":" + std::to_string(broker_.queueDepth());
    out += ",\"result_hits\":" + std::to_string(results_.hits());
    out += ",\"result_misses\":" + std::to_string(results_.misses());
    out += ",\"result_evictions\":" +
           std::to_string(results_.evictions());
    out += ",\"result_spills\":" + std::to_string(results_.spills());
    out += ",\"result_spill_hits\":" +
           std::to_string(results_.spillHits());
    out += ",\"result_bytes\":" +
           std::to_string(results_.bytesResident());
    out += ",\"result_entries\":" + std::to_string(results_.entries());
    out += ",\"artifact_hits\":" + std::to_string(artifacts_.hits());
    out += ",\"artifact_misses\":" +
           std::to_string(artifacts_.misses());
    out += ",\"artifact_evictions\":" +
           std::to_string(artifacts_.evictions());
    out += ",\"artifact_bytes\":" +
           std::to_string(artifacts_.bytesResident());
    out += ",\"artifact_entries\":" +
           std::to_string(artifacts_.entries());
    out += "}";
    return out;
}

} // namespace membw
