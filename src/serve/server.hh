/**
 * @file
 * The membw_served daemon core: a Unix-domain-socket server that
 * keeps the expensive state — one shared ThreadPool, the
 * content-addressed artifact cache, and the digest-keyed result
 * cache — alive across requests, so repeat sweeps are hash lookups
 * instead of simulations.  Artifacts derived from a served trace are
 * keyed by the trace's own key (`workload|scale|seed`), not by a
 * checksum of its bytes, and builds of different keys run at the
 * same time on the pool.
 *
 * Request flow per connection thread:
 *
 *   parse line → result-cache probe (warm path: one lookup, one
 *   write) → RequestBroker::submit (admission control + coalescing)
 *   → compute from the dispatcher thread via the shared services
 *   (executeSweep / executeDecompose with artifact-cache providers),
 *   which fan the request's shared inputs, then its cells, across the
 *   shared pool
 *   → cache + respond.
 *
 * Shutdown contract (exit-code contract of docs/resilience.md):
 *   - `shutdown` op: respond ok, drain admitted jobs, exit 0.
 *   - SIGTERM/SIGINT: stop accepting, drain admitted jobs so every
 *     in-flight client still receives its complete response, exit 3.
 *   - --sigterm-after N (tests): raise SIGTERM as the Nth compute
 *     job starts, exercising the drain path deterministically.
 */

#ifndef MEMBW_SERVE_SERVER_HH
#define MEMBW_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.hh"
#include "serve/artifact_cache.hh"
#include "serve/broker.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"

namespace membw {

struct ServerOptions
{
    std::string socketPath = "membw.sock";
    unsigned jobs = 1;
    /** Result-cache bound (rendered response bytes). */
    std::size_t resultCacheBytes = std::size_t{64} << 20;
    /** Artifact-cache bound (estimated trace/stream/profile bytes). */
    std::size_t artifactCacheBytes = std::size_t{512} << 20;
    /** Admission-queue capacity; a full queue answers `busy`. */
    std::size_t queueCapacity = 8;
    /** Spill directory for evicted clean results; empty disables. */
    std::string spillDir;
    /** Raise SIGTERM as the Nth compute job starts (0 = off). */
    std::uint64_t sigtermAfterJobs = 0;
};

class ServeServer
{
  public:
    explicit ServeServer(ServerOptions opts);
    ~ServeServer();

    /**
     * Bind, listen, and serve until a `shutdown` request or a
     * latched SIGTERM/SIGINT.  Returns the process exit code
     * (exitOk / exitInterrupted / exitFatal on socket failure).
     * installShutdownHandlers() must already be in place.
     */
    int run();

  private:
    void handleConnection(int fd);
    std::string handleRequest(const std::string &line);
    std::string computeResponse(const ServeRequest &req,
                                const std::string &key,
                                std::uint64_t digest);
    std::string computeSweep(const SweepRequest &req,
                             const std::string &key,
                             std::uint64_t digest);
    std::string computeDecompose(const DecomposeRequest &req,
                                 const std::string &key,
                                 std::uint64_t digest);
    void reapFinishedThreads();
    void joinAllThreads();
    std::string pingEnvelope() const;
    std::string statsEnvelope() const;

    /** `workload|scale|seed`: names a served trace, and every
     * artifact derived from it, by the values it is generated from. */
    static std::string traceKey(const std::string &workload,
                                double scale, std::uint64_t seed);

    /** The cached trace of (workload, scale, seed), generated on a
     * miss. */
    std::shared_ptr<const Trace> traceFor(const std::string &workload,
                                          double scale,
                                          std::uint64_t seed);

    const ServerOptions opts_;
    std::optional<ThreadPool> pool_; ///< engaged when jobs > 1
    ArtifactCache artifacts_;
    ResultCache results_;
    RequestBroker broker_;

    std::atomic<bool> stopping_{false};
    std::atomic<int> shutdownExit_{-1}; ///< set by the shutdown op
    std::atomic<std::uint64_t> requests_{0};

    /** Connection threads, keyed by id so the accept loop can join
     * completed ones promptly instead of accumulating joinable
     * handles (and their stacks) until shutdown. */
    std::mutex threadsMutex_;
    std::unordered_map<std::uint64_t, std::thread> threads_;
    std::vector<std::uint64_t> finishedThreads_;
    std::uint64_t nextThreadId_ = 0;
};

} // namespace membw

#endif // MEMBW_SERVE_SERVER_HH
