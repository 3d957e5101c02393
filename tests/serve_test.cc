/**
 * @file
 * Unit tests for the serving layer: artifact/result LRU caches
 * (keying, byte-bounded eviction, counters, spill) and the request
 * broker (coalescing under concurrency, busy backpressure, drain),
 * the trace cell runner against standalone runs, and the parallel
 * decomposition cell runner against its serial reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "cpu/core.hh"
#include "dram/dram.hh"
#include "exec/thread_pool.hh"
#include "resilience/checkpoint.hh"
#include "resilience/exit_codes.hh"
#include "resilience/fault_injection.hh"
#include "serve/artifact_cache.hh"
#include "serve/broker.hh"
#include "serve/client.hh"
#include "serve/decompose_service.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/sweep_service.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace {

ArtifactCache::Built<std::string>
builtString(const std::string &s)
{
    return {std::make_shared<const std::string>(s), s.size()};
}

std::string
tempDir()
{
    std::string tmpl = "/tmp/membw_serve_test.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!::mkdtemp(buf.data()))
        return "/tmp";
    return buf.data();
}

/** Every CoreResult field, mem stats included, as checkpoint bytes. */
std::string
coreResultBytes(const CoreResult &r)
{
    ChkWriter w;
    saveCoreResult(w, r);
    return w.serialize();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Poll @p done until it holds or 10 s pass; false on timeout, so a
 * test that would deadlock fails instead of hanging. */
template <typename Pred>
bool
waitUntil(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

} // namespace

TEST(ArtifactCache, HitMissAndCounters)
{
    ArtifactCache cache(1024);
    int builds = 0;
    auto build = [&] {
        ++builds;
        return builtString("payload");
    };
    auto a = cache.getOrBuild<std::string>("k1", build);
    auto b = cache.getOrBuild<std::string>("k1", build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytesResident(), 7u);
}

TEST(ArtifactCache, DistinctKeysBuildSeparately)
{
    ArtifactCache cache(1024);
    auto a = cache.getOrBuild<std::string>(
        "trace|Compress|0.05|42", [] { return builtString("a"); });
    auto b = cache.getOrBuild<std::string>(
        "trace|Compress|0.05|43", [] { return builtString("b"); });
    EXPECT_NE(*a, *b);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(ArtifactCache, LruEvictionIsByteBounded)
{
    ArtifactCache cache(10);
    auto pad = [](char c) { return std::string(4, c); };
    cache.getOrBuild<std::string>("a", [&] { return builtString(pad('a')); });
    cache.getOrBuild<std::string>("b", [&] { return builtString(pad('b')); });
    // Touch "a" so "b" is the LRU victim when "c" arrives.
    cache.getOrBuild<std::string>("a", [&] { return builtString(pad('x')); });
    cache.getOrBuild<std::string>("c", [&] { return builtString(pad('c')); });
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.bytesResident(), 10u);
    // "a" survived (still a hit); "b" was evicted (rebuilds).
    int rebuilt = 0;
    cache.getOrBuild<std::string>("a", [&] {
        ++rebuilt;
        return builtString(pad('x'));
    });
    cache.getOrBuild<std::string>("b", [&] {
        ++rebuilt;
        return builtString(pad('b'));
    });
    EXPECT_EQ(rebuilt, 1);
}

TEST(ArtifactCache, EvictedArtifactStaysAliveForHolders)
{
    ArtifactCache cache(4);
    auto held = cache.getOrBuild<std::string>(
        "big", [] { return builtString("held"); });
    cache.getOrBuild<std::string>(
        "other", [] { return builtString("next"); });
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(*held, "held"); // shared_ptr keeps the bytes alive
}

TEST(ArtifactCache, OversizeArtifactReturnedUncached)
{
    ArtifactCache cache(4);
    cache.getOrBuild<std::string>(
        "huge", [] { return builtString("way too large"); });
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytesResident(), 0u);
}

TEST(ArtifactCache, DistinctKeysBuildAtTheSameTime)
{
    // Builder A holds its build open until builder B has started; a
    // cache that builds under its lock would keep B out until A
    // gives up.
    ArtifactCache cache(1024);
    std::atomic<bool> aStarted{false}, bStarted{false};
    bool aSawB = false;
    std::thread a([&] {
        cache.getOrBuild<std::string>("stream|Swm|0.05|42|32", [&] {
            aStarted = true;
            aSawB = waitUntil([&] { return bStarted.load(); });
            return builtString("a");
        });
    });
    ASSERT_TRUE(waitUntil([&] { return aStarted.load(); }));
    auto b = cache.getOrBuild<std::string>(
        "nextuse|Swm|0.05|42|4", [&] {
            bStarted = true;
            return builtString("b");
        });
    a.join();
    EXPECT_TRUE(aSawB);
    EXPECT_EQ(*b, "b");
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(ArtifactCache, ConcurrentCallersOfOneKeyShareOneBuild)
{
    constexpr int callers = 6;
    ArtifactCache cache(1024);
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const std::string>> got(callers);
    std::vector<std::thread> threads;
    for (int t = 0; t < callers; ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrBuild<std::string>("trace|Li|1|42", [&] {
                ++builds;
                // Finish only once every other caller is waiting on
                // this build.
                waitUntil([&] { return cache.hits() == callers - 1; });
                return builtString("trace");
            });
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(callers - 1));
    for (const auto &p : got)
        EXPECT_EQ(p.get(), got[0].get());
}

TEST(ArtifactCache, ThrowingBuilderFailsEveryWaiterAndLeavesNoEntry)
{
    constexpr int callers = 4;
    ArtifactCache cache(1024);
    std::atomic<int> builds{0}, threw{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < callers; ++t)
        threads.emplace_back([&] {
            try {
                cache.getOrBuild<std::string>("k", [&]()
                    -> ArtifactCache::Built<std::string> {
                    ++builds;
                    waitUntil(
                        [&] { return cache.hits() == callers - 1; });
                    throw std::runtime_error("build failed");
                });
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "build failed")
                    ++threw;
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(threw.load(), callers);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytesResident(), 0u);

    // Nothing was left behind: the next call builds again.
    auto v = cache.getOrBuild<std::string>("k", [&] {
        ++builds;
        return builtString("v");
    });
    EXPECT_EQ(builds.load(), 2);
    EXPECT_EQ(*v, "v");
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(SweepService, PoolPlanMatchesJobsOneWithAndWithoutFaults)
{
    // Two ladder groups and the next-use table on a 4-worker pool:
    // the groups' passes run beside the table build.  The stable
    // bytes, and the failed cells under an injected fault on
    // a ladder cell (index 1) and on an MTC cell (index 7), must equal
    // the serial run's.
    WorkloadParams params;
    params.scale = 0.02;
    const Trace trace = makeWorkload("Compress")->trace(params);
    SweepRequest req;
    req.workload = "Compress";
    req.scale = params.scale;
    req.l1.assoc = 4;
    req.sizes = {1_KiB, 4_KiB, 16_KiB};
    req.blocks = {16, 32};
    req.runMtc = true;
    req.stableJson = true;

    ThreadPool pool(4);
    for (const char *fault : {"", "cell:at=2", "cell:at=8"}) {
        SCOPED_TRACE(std::string("fault '") + fault + "'");
        std::vector<std::string> docs;
        for (ThreadPool *onPool : {static_cast<ThreadPool *>(nullptr),
                                   &pool}) {
            if (*fault) {
                ASSERT_TRUE(armFaultPlan(fault).ok());
            }
            SweepExecOptions eo;
            eo.pool = onPool;
            const SweepOutcome o = executeSweep(req, trace, eo);
            disarmFaultPlan();
            EXPECT_EQ(o.collapsed.ladderPasses(), 2u);
            EXPECT_EQ(o.nFailed, *fault ? 1u : 0u);
            docs.push_back(renderSweepStatsJson(req, trace.size(), o));
        }
        EXPECT_EQ(docs[0], docs[1]);
        EXPECT_EQ(docs[0].find("\"failed_cells\"") != std::string::npos,
                  *fault != '\0');
    }
}

namespace {

/** The mixed cell list of the TraceCells tests: a 3-level
 * hierarchy, direct-mapped cells the ladder covers, a 2048-way fully
 * associative cell and a sector cache, and MIN cells at 4 B and 32 B
 * with write-allocate and write-validate. */
std::vector<TraceCell>
mixedCells()
{
    auto level = [](Bytes size, unsigned assoc, Bytes block) {
        CacheConfig c;
        c.size = size;
        c.assoc = assoc;
        c.blockBytes = block;
        return c;
    };
    CacheConfig sector = level(64_KiB, 1, 64);
    sector.sectorBytes = 16;
    auto min = [](Bytes size, Bytes block, AllocPolicy alloc) {
        MinCacheConfig c;
        c.size = size;
        c.blockBytes = block;
        c.alloc = alloc;
        return c;
    };
    return {std::vector{level(16_KiB, 1, 32), level(256_KiB, 4, 64),
                        level(2_MiB, 8, 128)},
            std::vector{level(1_KiB, 1, 32)},
            std::vector{level(4_KiB, 1, 32)},
            std::vector{level(16_KiB, 1, 32)},
            std::vector{level(64_KiB, 0, 32)},
            std::vector{sector},
            min(4_KiB, 4, AllocPolicy::WriteAllocate),
            min(16_KiB, 4, AllocPolicy::WriteValidate),
            min(16_KiB, 32, AllocPolicy::WriteAllocate),
            min(8_KiB, 32, AllocPolicy::WriteValidate)};
}

/** Every field of a TrafficResult, as its checkpoint bytes. */
std::string
trafficBytes(const TrafficResult &r)
{
    ChkWriter w;
    saveTrafficResult(w, r);
    return w.serialize();
}

void
expectMinEqual(const MinCacheStats &a, const MinCacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.bypasses, b.bypasses);
    EXPECT_EQ(a.validates, b.validates);
    EXPECT_EQ(a.requestBytes, b.requestBytes);
    EXPECT_EQ(a.fetchBytes, b.fetchBytes);
    EXPECT_EQ(a.writebackBytes, b.writebackBytes);
    EXPECT_EQ(a.flushWritebackBytes, b.flushWritebackBytes);
}

} // namespace

TEST(TraceCells, EveryCellEqualsItsStandaloneRun)
{
    WorkloadParams params;
    params.scale = 0.05;
    const Trace trace = makeWorkload("Compress")->trace(params);
    ASSERT_TRUE(std::any_of(trace.begin(), trace.end(),
                            [](const MemRef &r) { return r.isStore(); }));
    const std::vector<TraceCell> cells = mixedCells();

    std::vector<TrafficResult> refTraffic(cells.size());
    std::vector<MinCacheStats> refMin(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (const auto *min = std::get_if<MinCacheConfig>(&cells[i]))
            refMin[i] = runMinCache(trace, *min);
        else
            refTraffic[i] = runTrace(
                trace, std::get<std::vector<CacheConfig>>(cells[i]));
    }
    // The fully associative cell evicts, so its recency order counts.
    EXPECT_GT(refTraffic[4].l1.evictions, 0u);

    ThreadPool pool(4);
    for (bool noCollapse : {false, true}) {
        for (unsigned jobs : {1u, 4u}) {
            for (ThreadPool *onPool :
                 {static_cast<ThreadPool *>(nullptr), &pool}) {
                SCOPED_TRACE("noCollapse=" + std::to_string(noCollapse) +
                             " jobs=" + std::to_string(jobs) +
                             (onPool ? " pool" : ""));
                TraceCellOptions opt;
                opt.sweep.jobs = jobs;
                opt.sweep.pool = onPool;
                opt.noCollapse = noCollapse;
                const TraceCellsOut out = traceCells(trace, cells, opt);
                ASSERT_EQ(out.cells.size(), cells.size());
                EXPECT_EQ(out.completed, cells.size());
                for (std::size_t i = 0; i < cells.size(); ++i) {
                    SCOPED_TRACE("cell " + std::to_string(i));
                    if (std::holds_alternative<MinCacheConfig>(cells[i]))
                        expectMinEqual(out.cells[i].mtc, refMin[i]);
                    else
                        EXPECT_EQ(trafficBytes(out.cells[i].traffic),
                                  trafficBytes(refTraffic[i]));
                }
                // The direct-mapped cells (collapse slots 0-2) take
                // the ladder; the fully associative cell over stores
                // and the sector cache fall back to direct runs.
                EXPECT_EQ(out.collapsed.covered(), noCollapse ? 0u : 3u);
                for (std::size_t k = 0; k < 5; ++k)
                    EXPECT_EQ(out.collapsed.route(k),
                              !noCollapse && k < 3 ? CellRoute::Ladder
                                                   : CellRoute::Direct);
            }
        }
    }
}

TEST(TraceCells, OneNextUseTablePerMinBlockSize)
{
    WorkloadParams params;
    params.scale = 0.02;
    const Trace trace = makeWorkload("Compress")->trace(params);
    const std::vector<TraceCell> cells = mixedCells();

    ThreadPool pool(4);
    for (bool noCollapse : {false, true}) {
        std::mutex mutex;
        std::vector<Bytes> calls;
        TraceCellOptions opt;
        opt.sweep.pool = &pool;
        opt.noCollapse = noCollapse;
        opt.nextUseProvider = [&](Bytes blockBytes) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                calls.push_back(blockBytes);
            }
            return makeNextUseTable(trace, blockBytes);
        };
        const TraceCellsOut out = traceCells(trace, cells, opt);
        std::sort(calls.begin(), calls.end());
        EXPECT_EQ(calls, (std::vector<Bytes>{4, 32}));
        for (std::size_t i = 6; i < cells.size(); ++i)
            expectMinEqual(
                out.cells[i].mtc,
                runMinCache(trace, std::get<MinCacheConfig>(cells[i])));
    }
}

TEST(TraceCells, FaultPointIsKeyedByCellIndex)
{
    WorkloadParams params;
    params.scale = 0.02;
    const Trace trace = makeWorkload("Compress")->trace(params);
    const std::vector<TraceCell> cells = mixedCells();

    ThreadPool pool(4);
    for (ThreadPool *onPool : {static_cast<ThreadPool *>(nullptr), &pool}) {
        // 'cell:at=N' fails cell N-1, whatever its kind.
        for (std::size_t victim : {std::size_t{2}, std::size_t{7}}) {
            ASSERT_TRUE(
                armFaultPlan("cell:at=" + std::to_string(victim + 1))
                    .ok());
            TraceCellOptions opt;
            opt.sweep.pool = onPool;
            opt.sweep.tolerateCellFailures = true;
            const TraceCellsOut out = traceCells(trace, cells, opt);
            disarmFaultPlan();
            ASSERT_EQ(out.failedCells.size(), 1u);
            EXPECT_EQ(out.failedCells[0].cell, victim);
            EXPECT_EQ(out.completed, cells.size());
        }
    }
}

TEST(ResultCache, BoundedLruWithCounters)
{
    ResultCache cache(20, "");
    cache.put(1, "k1", {"0123456789", 0});
    cache.put(2, "k2", {"0123456789", 0});
    EXPECT_TRUE(cache.get(1, "k1").has_value());
    // Evicts 2 (LRU; 1 was touched).
    cache.put(3, "k3", {"0123456789", 0});
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.get(1, "k1").has_value());
    EXPECT_FALSE(cache.get(2, "k2").has_value());
    EXPECT_TRUE(cache.get(3, "k3").has_value());
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_LE(cache.bytesResident(), 20u);
}

TEST(ResultCache, RecordMissFlagSuppressesCounter)
{
    ResultCache cache(64, "");
    EXPECT_FALSE(cache.get(7, "k7").has_value());
    EXPECT_FALSE(cache.get(7, "k7", /*recordMiss=*/false).has_value());
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, OversizeBodySkipped)
{
    ResultCache cache(4, "");
    cache.put(1, "k1", {"longer than four bytes", 0});
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.get(1, "k1").has_value());
}

TEST(ResultCache, DigestCollisionDetectedByKeyCompare)
{
    ResultCache cache(64, "");
    cache.put(1, "sweep|Compress|...", {"body-a", 0});
    // Same 64-bit digest, different canonical key: must be a miss,
    // never the other request's bytes.
    EXPECT_FALSE(cache.get(1, "sweep|Vortex|...").has_value());
    EXPECT_EQ(cache.misses(), 1u);
    auto hit = cache.get(1, "sweep|Compress|...");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->body, "body-a");
}

TEST(ResultCache, SpillOnEvictAndReload)
{
    const std::string dir = tempDir();
    ResultCache cache(12, dir);
    cache.put(0xabc, "ka", {"0123456789", 0});
    cache.put(0xdef, "kd", {"9876543210", 0}); // evicts + spills 0xabc
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.spills(), 1u);
    auto back = cache.get(0xabc, "ka"); // reload from spill
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->body, "0123456789");
    EXPECT_EQ(back->exitCode, 0);
    EXPECT_EQ(cache.spillHits(), 1u);
    // Degraded results (exit 5) are never spilled.
    cache.put(0x111, "k1", {"degraded!!", 5});
    cache.put(0x222, "k2", {"aaaaaaaaaa", 0});
    cache.put(0x333, "k3", {"bbbbbbbbbb", 0});
    char name[64];
    std::snprintf(name, sizeof(name), "%s/%016llx.json", dir.c_str(),
                  0x111ull);
    EXPECT_FALSE(fileExists(name));
}

TEST(ResultCache, SpillVerifiesKeyAndFormat)
{
    const std::string dir = tempDir();
    {
        ResultCache cache(12, dir);
        cache.put(0xabc, "ka", {"0123456789", 0});
        cache.put(0xdef, "kd", {"9876543210", 0}); // spills 0xabc
    }
    // A colliding digest with a different key must not reload the
    // spilled bytes.
    ResultCache fresh(64, dir);
    EXPECT_FALSE(fresh.get(0xabc, "not-ka").has_value());
    EXPECT_EQ(fresh.spillHits(), 0u);
    EXPECT_TRUE(fresh.get(0xabc, "ka").has_value());
    // A stale spill file from an older build (raw body, no
    // membw-spill header) is ignored, not served.
    char name[64];
    std::snprintf(name, sizeof(name), "%s/%016llx.json", dir.c_str(),
                  0x999ull);
    std::FILE *f = std::fopen(name, "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"manifest\":\"old format\"}", f);
    std::fclose(f);
    EXPECT_FALSE(fresh.get(0x999, "k9").has_value());
}

TEST(RequestBroker, ExecutesAndCounts)
{
    RequestBroker broker(4);
    auto s = broker.submit(1, [] { return std::string("r1"); });
    ASSERT_FALSE(s.busy);
    EXPECT_EQ(RequestBroker::wait(s.job), "r1");
    broker.drainAndStop();
    EXPECT_EQ(broker.executed(), 1u);
    EXPECT_EQ(broker.coalesced(), 0u);
}

TEST(RequestBroker, CoalescesIdenticalInflightRequests)
{
    RequestBroker broker(8);
    std::atomic<int> computes{0};
    std::atomic<bool> release{false};
    // A blocker job keeps the dispatcher occupied so the next
    // submissions stay queued and coalescible deterministically.
    auto blocker = broker.submit(99, [&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::string("done");
    });
    ASSERT_FALSE(blocker.busy);

    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    std::atomic<int> submitted{0};
    std::atomic<int> matched{0};
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&] {
            auto s = broker.submit(42, [&] {
                ++computes;
                return std::string("shared");
            });
            ++submitted;
            EXPECT_FALSE(s.busy);
            if (!s.busy && RequestBroker::wait(s.job) == "shared")
                ++matched;
        });
    // Release the blocker only once every client has submitted;
    // releasing earlier lets the shared job finish before a slow
    // client thread arrives, which then runs it a second time.
    while (submitted.load() < kClients)
        std::this_thread::yield();
    release = true;
    for (auto &t : clients)
        t.join();
    broker.drainAndStop();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(matched.load(), kClients);
    EXPECT_EQ(broker.coalesced(), kClients - 1u);
    EXPECT_EQ(broker.executed(), 2u); // blocker + shared
}

TEST(RequestBroker, BusyWhenQueueFull)
{
    RequestBroker broker(1);
    std::atomic<bool> release{false};
    auto running = broker.submit(1, [&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::string("a");
    });
    ASSERT_FALSE(running.busy);
    // Give the dispatcher a moment to start job 1 so job 2 occupies
    // the queue slot.
    while (broker.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto queued = broker.submit(2, [] { return std::string("b"); });
    ASSERT_FALSE(queued.busy);
    auto rejected = broker.submit(3, [] { return std::string("c"); });
    EXPECT_TRUE(rejected.busy);
    EXPECT_EQ(rejected.queued, 1u);
    release = true;
    broker.drainAndStop();
    EXPECT_EQ(broker.busyRejected(), 1u);
    // Drained jobs still completed.
    EXPECT_EQ(RequestBroker::wait(queued.job), "b");
}

TEST(RequestBroker, DrainFinishesAdmittedJobsThenRejects)
{
    RequestBroker broker(4);
    auto s = broker.submit(5, [] { return std::string("late"); });
    ASSERT_FALSE(s.busy);
    broker.drainAndStop();
    EXPECT_EQ(RequestBroker::wait(s.job), "late");
    auto after = broker.submit(6, [] { return std::string("no"); });
    EXPECT_TRUE(after.busy);
}

TEST(ServeProtocol, ParsesSweepRequestAndKeysDeterministically)
{
    const ServeRequest a = parseServeRequest(
        "{\"op\":\"sweep\",\"workload\":\"Compress\","
        "\"sizes\":\"1K,4K\",\"mtc\":true,\"stable\":true}");
    EXPECT_EQ(a.op, ServeOp::Sweep);
    EXPECT_EQ(a.sweep.workload, "Compress");
    ASSERT_EQ(a.sweep.sizes.size(), 2u);
    EXPECT_TRUE(a.sweep.runMtc);
    const ServeRequest b = parseServeRequest(
        "{\"op\":\"sweep\",\"stable\":true,\"mtc\":true,"
        "\"sizes\":\"1K,4K\",\"workload\":\"Compress\"}");
    // Field order must not change the canonical key (cache identity).
    EXPECT_EQ(serveRequestKey(a), serveRequestKey(b));
}

TEST(ServeProtocol, RejectsUnknownFieldsAndOps)
{
    EXPECT_THROW(parseServeRequest("{\"op\":\"nope\"}"), FatalError);
    EXPECT_THROW(parseServeRequest(
                     "{\"op\":\"sweep\",\"workload\":\"Compress\","
                     "\"sizes\":\"1K\",\"typo_field\":1}"),
                 FatalError);
    // A field the schema has dropped is just another unknown field.
    EXPECT_THROW(parseServeRequest(
                     "{\"op\":\"sweep\",\"workload\":\"Compress\","
                     "\"sizes\":\"1K\",\"no_partition\":true}"),
                 FatalError);
    // A scale must be > 0: generators multiply their reference
    // target by it.
    for (const char *scale : {"-1", "0"}) {
        EXPECT_THROW(parseServeRequest(
                         std::string("{\"op\":\"sweep\",\"workload\":"
                                     "\"Compress\",\"sizes\":\"1K\","
                                     "\"scale\":") +
                         scale + "}"),
                     FatalError)
            << scale;
        EXPECT_THROW(parseServeRequest(
                         std::string("{\"op\":\"decompose\",\"workload\":"
                                     "\"Compress\",\"scale\":") +
                         scale + "}"),
                     FatalError)
            << scale;
    }
    EXPECT_THROW(parseServeRequest("not json at all"), FatalError);
}

TEST(ServeProtocol, ValidatesDecomposeDramAtParseTime)
{
    // A bad enum value must be rejected during parsing — inside the
    // daemon's error-envelope try/catch — not later from key
    // canonicalisation where an escaped FatalError would terminate
    // the connection thread.
    EXPECT_THROW(parseServeRequest(
                     "{\"op\":\"decompose\",\"workload\":\"Compress\","
                     "\"dram\":\"bogus\"}"),
                 FatalError);
    const ServeRequest ok = parseServeRequest(
        "{\"op\":\"decompose\",\"workload\":\"Compress\","
        "\"dram\":\"sdram\"}");
    EXPECT_EQ(ok.op, ServeOp::Decompose);
    EXPECT_EQ(ok.decompose.overrides.dram, "sdram");
}

TEST(DecomposeCells, ParallelCellsMatchSerialReference)
{
    const InstrStream stream = buildDecomposeStream("Swm", 0.02, 42);
    std::vector<ExperimentConfig> configs;
    for (char e = 'A'; e <= 'F'; ++e)
        configs.push_back(makeExperiment(e, false));
    ExperimentConfig sdram = makeExperiment('F', false);
    sdram.mem.dram =
        DramConfig::preset(DramKind::Synchronous, sdram.cpuMHz);
    configs.push_back(sdram);
    ExperimentConfig narrow = makeExperiment('F', false);
    narrow.mem.busRatio *= 4;
    configs.push_back(narrow);

    SweepOptions opt;
    opt.jobs = 4;
    const DecomposeSweep cells =
        decomposeCells({decomposeJob(stream, configs)}, opt);
    ASSERT_EQ(cells.completed, configs.size() * decompositionPhases);
    ASSERT_EQ(cells.streamOps, std::vector<std::size_t>{stream.size()});
    const std::vector<DecompositionResult> each =
        decomposeEach({decomposeJob(stream, configs)}, 4)[0].results;
    ASSERT_EQ(each.size(), configs.size());

    for (std::size_t e = 0; e < configs.size(); ++e) {
        SCOPED_TRACE("config " + std::to_string(e) + ": " +
                     configs[e].describe());
        const DecompositionResult ref =
            runDecomposition(stream, configs[e]);
        const CoreResult *want[] = {&ref.perfect, &ref.infinite,
                                    &ref.full};
        const CoreResult *got[] = {&each[e].perfect, &each[e].infinite,
                                   &each[e].full};
        for (unsigned phase = 0; phase < decompositionPhases; ++phase) {
            SCOPED_TRACE(phaseName(phase));
            EXPECT_EQ(coreResultBytes(
                          cells.cells[e * decompositionPhases + phase]),
                      coreResultBytes(*want[phase]));
            EXPECT_EQ(coreResultBytes(*got[phase]),
                      coreResultBytes(*want[phase]));
        }
    }
}

TEST(DecomposeCells, JobsMatchReferenceInOrderAndFreeTheirStreams)
{
    // Two workloads, experiments {A, F}: four decompositions whose
    // cells must come back job after job, each equal to the live
    // serial reference, at one worker and at four.
    const char *const names[] = {"Swm", "Compress"};
    const std::vector<ExperimentConfig> configs = {
        makeExperiment('A', false), makeExperiment('F', false)};
    std::vector<DecompositionResult> want;
    for (const char *name : names) {
        const InstrStream stream = buildDecomposeStream(name, 0.02, 42);
        for (const ExperimentConfig &cfg : configs)
            want.push_back(runDecomposition(stream, cfg));
    }

    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        std::mutex mutex;
        std::vector<std::weak_ptr<const InstrStream>> built(2);
        // What each build saw of the streams built before it.
        std::vector<bool> earlierAlive(2, false);
        std::vector<DecomposeJob> jobs;
        for (std::size_t j = 0; j < 2; ++j) {
            jobs.push_back({[&, j] {
                                auto stream =
                                    std::make_shared<const InstrStream>(
                                        buildDecomposeStream(names[j],
                                                             0.02, 42));
                                std::lock_guard lock(mutex);
                                earlierAlive[j] =
                                    j > 0 && !built[j - 1].expired();
                                built[j] = stream;
                                return stream;
                            },
                            configs});
        }
        SweepOptions opt;
        opt.jobs = workers;
        const DecomposeSweep sweep = decomposeCells(jobs, opt);
        ASSERT_EQ(sweep.completed, 2 * configs.size() *
                                       decompositionPhases);
        for (std::size_t d = 0; d < want.size(); ++d) {
            SCOPED_TRACE(std::string(names[d / 2]) + " exp=" +
                         configs[d % 2].letter);
            const CoreResult *ref[] = {&want[d].perfect,
                                       &want[d].infinite,
                                       &want[d].full};
            for (unsigned p = 0; p < decompositionPhases; ++p)
                EXPECT_EQ(coreResultBytes(
                              sweep.cells[d * decompositionPhases + p]),
                          coreResultBytes(*ref[p]));
        }
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_GT(sweep.streamOps[j], 0u);
            // Freed after the job's last cell, before the call
            // returns.
            EXPECT_TRUE(built[j].expired());
        }
        // One worker runs job 0's cells before job 1's first cell
        // builds its stream, so job 0's stream is gone by then.
        if (workers == 1) {
            EXPECT_FALSE(earlierAlive[1]);
        }
    }
}

TEST(DecomposeCells, SingleJobCellsKeepTheirFaultIndices)
{
    const InstrStream stream = buildDecomposeStream("Swm", 0.02, 42);
    const std::vector<ExperimentConfig> configs = {
        makeExperiment('A', false), makeExperiment('F', false)};
    // 'cell:at=5' fails cell 4: phase 1 of the second machine.
    ASSERT_TRUE(armFaultPlan("cell:at=5").ok());
    SweepOptions opt;
    opt.jobs = 4;
    opt.tolerateCellFailures = true;
    const DecomposeSweep sweep =
        decomposeCells({decomposeJob(stream, configs)}, opt);
    disarmFaultPlan();
    ASSERT_EQ(sweep.failedCells.size(), 1u);
    EXPECT_EQ(sweep.failedCells[0].cell, 4u);
    EXPECT_EQ(decomposeCellLabel(configs, 4),
              "exp=F phase=infinite-width");
}

TEST(ServeServer, DecomposeWatchdogErrorSameAtAnyJobs)
{
    // Budget 60 passes Swm's perfect phase under experiment F and
    // trips both later phases.  In turn (--jobs 1) the infinite-width
    // trip ends the request; on the pool (--jobs 4) both trips happen
    // and the lower cell's must still be the one reported.
    const std::string request =
        "{\"op\":\"decompose\",\"workload\":\"Swm\","
        "\"experiment\":\"F\",\"scale\":0.02,\"watchdog\":60}";
    std::vector<std::string> envelopes;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string dir = tempDir();
        ServerOptions so;
        so.socketPath = dir + "/s.sock";
        so.jobs = jobs;
        ServeServer server(so);
        int exitCode = -1;
        std::thread serving([&] { exitCode = server.run(); });
        EXPECT_TRUE(waitForServer(so.socketPath, 10000));
        envelopes.push_back(
            serveRequestOnce(so.socketPath, request).value_or(""));
        serveRequestOnce(so.socketPath, "{\"op\":\"shutdown\"}");
        serving.join();
        EXPECT_EQ(exitCode, exitOk);
        ::rmdir(dir.c_str());
    }
    EXPECT_EQ(envelopes[0], envelopes[1]);
    EXPECT_NE(envelopes[0].find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_NE(envelopes[0].find("(budget 60)"), std::string::npos);
}
