#include "obs/trace_span.hh"

#include "obs/trace_export.hh" // tracedetail::FlatEvent

#ifdef MEMBW_TRACING_ENABLED

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"

namespace membw {

namespace {

/** One recorded event; fixed size so ring slots never allocate. */
struct Event
{
    enum Kind : std::uint8_t
    {
        Span = 0,
        Counter = 1,
        Instant = 2,
    };

    std::uint64_t ts = 0;  ///< ns since epoch (span begin)
    std::uint64_t dur = 0; ///< span duration in ns
    double value = 0.0;    ///< counter sample
    const char *name = nullptr;
    char detail[traceDetailBytes] = {};
    Kind kind = Span;
    bool open = false; ///< span was still open at flush
};

/** A span begun but not yet ended on its owner thread. */
struct OpenSpan
{
    const char *name = nullptr;
    std::uint64_t startNs = 0;
    char detail[traceDetailBytes] = {};
};

/**
 * Single-writer ring.  The owner thread writes slot (count % cap)
 * and then publishes with a release store of count+1.  Once full,
 * new events overwrite the oldest slots (classic wrap-around), so a
 * long run keeps its tail — the part a "why was the end slow"
 * investigation needs.  Readers only run at quiescent points
 * (flush-at-exit, after pools drain), so they never observe a slot
 * mid-overwrite; they acquire count and reconstruct the last
 * min(count, cap) events, reporting count - cap as dropped.
 */
struct Ring
{
    explicit Ring(std::size_t cap, std::uint32_t id) : slots(cap), tid(id)
    {
    }

    std::vector<Event> slots;
    std::atomic<std::uint64_t> written{0}; ///< events ever recorded
    std::uint32_t tid = 0;
    char threadName[32] = {};
    std::vector<OpenSpan> stack; ///< owner thread only
};

struct Global
{
    std::atomic<bool> active{false};
    std::atomic<std::uint64_t> generation{1};
    std::chrono::steady_clock::time_point epoch{};
    bool epochSet = false;

    std::mutex mutex; ///< guards rings / capacity / nextTid
    std::vector<std::shared_ptr<Ring>> rings;
    std::size_t capacity = std::size_t{1} << 15;
    std::uint32_t nextTid = 0;
};

Global &
global()
{
    static Global g;
    return g;
}

thread_local std::shared_ptr<Ring> t_ring;
thread_local std::uint64_t t_generation = 0;

Ring &
ring()
{
    Global &g = global();
    const std::uint64_t gen =
        g.generation.load(std::memory_order_relaxed);
    if (!t_ring || t_generation != gen) {
        std::lock_guard<std::mutex> lock(g.mutex);
        auto r = std::make_shared<Ring>(g.capacity, g.nextTid++);
        std::snprintf(r->threadName, sizeof(r->threadName),
                      r->tid == 0 ? "main" : "thread-%u", r->tid);
        g.rings.push_back(r);
        t_ring = std::move(r);
        t_generation = gen;
    }
    return *t_ring;
}

void
record(Ring &r, const Event &e)
{
    const std::uint64_t n = r.written.load(std::memory_order_relaxed);
    r.slots[n & (r.slots.size() - 1)] = e;
    r.written.store(n + 1, std::memory_order_release);
}

void
copyDetail(char (&dst)[traceDetailBytes], const char *src)
{
    if (!src) {
        dst[0] = '\0';
        return;
    }
    std::strncpy(dst, src, traceDetailBytes - 1);
    dst[traceDetailBytes - 1] = '\0';
}

} // namespace

bool
tracingActive()
{
    return global().active.load(std::memory_order_relaxed);
}

std::uint64_t
tracingNowNs()
{
    Global &g = global();
    if (!g.epochSet)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g.epoch)
            .count());
}

void
tracingStart()
{
    Global &g = global();
    if (!g.epochSet) {
        g.epoch = std::chrono::steady_clock::now();
        g.epochSet = true;
    }
    g.active.store(true, std::memory_order_relaxed);
}

void
tracingStop()
{
    global().active.store(false, std::memory_order_relaxed);
}

void
tracingSetCapacity(std::size_t eventsPerThread)
{
    if (eventsPerThread == 0 || !isPowerOfTwo(eventsPerThread))
        fatal("trace buffer capacity must be a power of two");
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.capacity = eventsPerThread;
}

void
tracingReset()
{
    Global &g = global();
    g.active.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g.mutex);
    g.rings.clear();
    g.nextTid = 0;
    g.epochSet = false;
    // Invalidate every thread's cached ring so the next event
    // re-registers against the fresh registry.
    g.generation.fetch_add(1, std::memory_order_relaxed);
}

void
tracingSetThreadName(const char *name)
{
    if (!tracingActive() || !name)
        return;
    Ring &r = ring();
    std::strncpy(r.threadName, name, sizeof(r.threadName) - 1);
    r.threadName[sizeof(r.threadName) - 1] = '\0';
}

void
tracingCounter(const char *name, double value)
{
    if (!tracingActive())
        return;
    Event e;
    e.kind = Event::Counter;
    e.ts = tracingNowNs();
    e.value = value;
    e.name = name;
    record(ring(), e);
}

void
tracingInstant(const char *name, const char *detail)
{
    if (!tracingActive())
        return;
    Event e;
    e.kind = Event::Instant;
    e.ts = tracingNowNs();
    e.name = name;
    copyDetail(e.detail, detail);
    record(ring(), e);
}

void
tracingSetSpanDetail(const char *detail)
{
    if (!tracingActive())
        return;
    Ring &r = ring();
    if (!r.stack.empty())
        copyDetail(r.stack.back().detail, detail);
}

namespace tracedetail {

void
beginSpan(const char *name, const char *detail)
{
    Ring &r = ring();
    OpenSpan s;
    s.name = name;
    s.startNs = tracingNowNs();
    copyDetail(s.detail, detail);
    r.stack.push_back(s);
}

void
endSpan()
{
    Ring &r = ring();
    if (r.stack.empty())
        return; // stop()/reset() raced a live span; drop silently
    const OpenSpan s = r.stack.back();
    r.stack.pop_back();
    Event e;
    e.kind = Event::Span;
    e.ts = s.startNs;
    e.dur = tracingNowNs() - s.startNs;
    e.name = s.name;
    std::memcpy(e.detail, s.detail, traceDetailBytes);
    record(r, e);
}

} // namespace tracedetail

// ---------------------------------------------------------------
// Snapshot interface for the exporter (trace_export.cc).  Runs at
// quiescent points only: it acquires each ring's published prefix
// and reads open-span stacks that no other thread is mutating.
// ---------------------------------------------------------------

namespace tracedetail {

void
snapshot(std::vector<FlatEvent> &out, std::uint64_t &droppedTotal,
         std::vector<std::pair<std::uint32_t, std::string>> &threads)
{
    Global &g = global();
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        rings = g.rings;
    }
    const std::uint64_t now = tracingNowNs();
    droppedTotal = 0;
    for (const auto &r : rings) {
        threads.emplace_back(r->tid, r->threadName);
        const std::uint64_t n =
            r->written.load(std::memory_order_acquire);
        const std::uint64_t cap = r->slots.size();
        const std::uint64_t kept = n < cap ? n : cap;
        droppedTotal += n - kept;
        for (std::uint64_t i = n - kept; i < n; ++i) {
            const Event &e = r->slots[i & (cap - 1)];
            FlatEvent f;
            f.tid = r->tid;
            f.ts = e.ts;
            f.dur = e.dur;
            f.value = e.value;
            f.name = e.name ? e.name : "";
            f.detail = e.detail;
            f.kind = static_cast<std::uint8_t>(e.kind);
            f.open = false;
            out.push_back(std::move(f));
        }
        // Spans still open (shutdown drain, flush mid-run): clip to
        // the flush instant, outermost first.
        for (const OpenSpan &s : r->stack) {
            FlatEvent f;
            f.tid = r->tid;
            f.ts = s.startNs;
            f.dur = now > s.startNs ? now - s.startNs : 0;
            f.name = s.name ? s.name : "";
            f.detail = s.detail;
            f.kind = static_cast<std::uint8_t>(Event::Span);
            f.open = true;
            out.push_back(std::move(f));
        }
    }
}

} // namespace tracedetail

} // namespace membw

#endif // MEMBW_TRACING_ENABLED
