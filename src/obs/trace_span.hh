/**
 * @file
 * Low-overhead span/counter tracing for the simulator harness.
 *
 * The paper's method is decomposing where *simulated* time goes
 * (T_P/T_L/T_B); this layer applies the same treatment to the
 * harness itself: RAII spans and numeric counters are recorded into
 * per-thread single-writer ring buffers and flushed at exit to a
 * Chrome trace-event JSON file (loadable in Perfetto or
 * chrome://tracing — see trace_export.hh and docs/observability.md).
 *
 * Cost model:
 *  - configured out (-DMEMBW_TRACING=OFF): the MEMBW_SPAN macros
 *    expand to `((void)0)` and every function below is an empty
 *    inline stub — zero code in the binary;
 *  - compiled in but not started (no --trace-out): a span is one
 *    relaxed atomic load;
 *  - recording: two steady-clock reads plus one ring-slot write per
 *    span.  No locks on the hot path: each thread owns its buffer
 *    (single writer), and the flusher only runs at quiescent points
 *    (process exit, after worker pools have drained).
 *
 * When a ring fills, new records wrap around and overwrite the
 * oldest ones — a long run keeps its most recent window — and the
 * overwrite count is reported in `otherData.dropped_events`.
 * Spans still open at flush time (e.g. after a SIGTERM drain) are
 * emitted with their duration clipped to the flush instant and an
 * `"open": true` argument, so the output is always well-formed.
 */

#ifndef MEMBW_OBS_TRACE_SPAN_HH
#define MEMBW_OBS_TRACE_SPAN_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace membw {

/** Fixed per-event payload space for `key=value` detail strings. */
constexpr std::size_t traceDetailBytes = 48;

/** Progress units (references, micro-ops) per counter-track sample. */
constexpr std::uint64_t traceCounterStride = 65536;

/**
 * True when progress moving from @p before to @p after crosses a
 * multiple of traceCounterStride.  Loops that feed counter tracks
 * gate on this, so however small their own step (a --stats-every or
 * --checkpoint-every slice), they cannot flood the thread's ring and
 * overwrite its spans.
 */
constexpr bool
crossesCounterStride(std::uint64_t before, std::uint64_t after)
{
    return before / traceCounterStride != after / traceCounterStride;
}

#ifdef MEMBW_TRACING_ENABLED

/** True while recording is on (one relaxed atomic load). */
bool tracingActive();

/**
 * Start recording: sets the trace epoch (all timestamps are
 * nanoseconds since this instant) and enables the record paths.
 * Idempotent.
 */
void tracingStart();

/** Stop recording; buffered events remain flushable. */
void tracingStop();

/** Nanoseconds since tracingStart() (0 before the first start). */
std::uint64_t tracingNowNs();

/**
 * Name the calling thread for the exported thread track ("main",
 * "worker-3", ...).  No-op when recording is off.
 */
void tracingSetThreadName(const char *name);

/** Record a numeric sample on a named counter track. */
void tracingCounter(const char *name, double value);

/** Record a zero-duration instant event. */
void tracingInstant(const char *name, const char *detail = "");

/**
 * Replace the detail of the calling thread's innermost open span,
 * for a figure known only once its work is done.  No-op when
 * recording is off or no span is open.
 */
void tracingSetSpanDetail(const char *detail);

/**
 * Ring capacity (events per thread) for buffers created *after* the
 * call; must be a power of two.  Default 1<<15.  Test hook — call
 * before tracingStart().
 */
void tracingSetCapacity(std::size_t eventsPerThread);

/**
 * Drop every buffer and reset the epoch/thread-id counter.  Only
 * valid at quiescent points; test hook.
 */
void tracingReset();

namespace tracedetail {
/** @p name must outlive the trace (string literals in practice). */
void beginSpan(const char *name, const char *detail);
void endSpan();
} // namespace tracedetail

/**
 * RAII span: records [construction, destruction) on the calling
 * thread's track.  Use through the MEMBW_SPAN macros.
 */
class TraceSpan
{
  public:
    /** Inactive span (the runtime-disabled arm of MEMBW_SPAN_D). */
    TraceSpan() = default;

    explicit TraceSpan(const char *name)
    {
        if (tracingActive()) {
            open_ = true;
            tracedetail::beginSpan(name, nullptr);
        }
    }

    TraceSpan(const char *name, const std::string &detail)
    {
        if (tracingActive()) {
            open_ = true;
            tracedetail::beginSpan(name, detail.c_str());
        }
    }

    TraceSpan(TraceSpan &&other) noexcept : open_(other.open_)
    {
        other.open_ = false;
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;
    TraceSpan &operator=(TraceSpan &&) = delete;

    ~TraceSpan()
    {
        if (open_)
            tracedetail::endSpan();
    }

  private:
    bool open_ = false;
};

#define MEMBW_SPAN_CAT2(a, b) a##b
#define MEMBW_SPAN_CAT(a, b) MEMBW_SPAN_CAT2(a, b)

/** Span over the enclosing scope; name must be a string literal. */
#define MEMBW_SPAN(name)                                             \
    ::membw::TraceSpan MEMBW_SPAN_CAT(membwSpan_, __LINE__)(name)

/**
 * Span with a detail payload.  @p detailExpr is only evaluated when
 * recording is active, so call sites may build strings freely.
 */
#define MEMBW_SPAN_D(name, detailExpr)                               \
    ::membw::TraceSpan MEMBW_SPAN_CAT(membwSpan_, __LINE__) =        \
        ::membw::tracingActive()                                     \
            ? ::membw::TraceSpan(name, (detailExpr))                 \
            : ::membw::TraceSpan()

#else // !MEMBW_TRACING_ENABLED

inline bool tracingActive() { return false; }
inline void tracingStart() {}
inline void tracingStop() {}
inline std::uint64_t tracingNowNs() { return 0; }
inline void tracingSetThreadName(const char *) {}
inline void tracingCounter(const char *, double) {}
inline void tracingInstant(const char *, const char * = "") {}
inline void tracingSetSpanDetail(const char *) {}
inline void tracingSetCapacity(std::size_t) {}
inline void tracingReset() {}

class TraceSpan
{
};

#define MEMBW_SPAN(name) ((void)0)
#define MEMBW_SPAN_D(name, detailExpr) ((void)0)

#endif // MEMBW_TRACING_ENABLED

} // namespace membw

#endif // MEMBW_OBS_TRACE_SPAN_HH
