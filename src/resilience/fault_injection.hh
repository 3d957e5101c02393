/**
 * @file
 * Deterministic, process-wide fault injection.
 *
 * Robustness claims ("a crash never leaves a torn artifact", "a
 * degraded sweep still reports every surviving cell") are only worth
 * what their tests exercise.  This layer lets tests and the torture
 * harness (tools/membw_torture.cc) drive the real failure paths on
 * demand: a seed-deterministic *fault plan* is armed from a spec
 * string (`--fault-inject` on both tools) and compiled-in hooks at
 * the I/O and execution sites consult it.
 *
 * The hook discipline mirrors MEMBW_PROBE (obs/mem_probe.hh): each
 * MEMBW_FAULT_POINT* site is a single relaxed atomic load until a
 * plan is armed, so production runs pay one predictable branch and
 * nothing else.
 *
 * Spec grammar (comma-separated clauses):
 *
 *   site:trigger=value[,site:trigger=value...][,seed=N]
 *
 *   io-write:p=0.001     each write attempt fails with prob. 0.001
 *   enospc:after=3       every guarded write past the 3rd gets ENOSPC
 *   alloc:at=2           the 2nd image allocation fails
 *   crash:at=12345       _Exit(137) when run progress crosses 12345
 *   cell:at=4            sweep cell index 3 (the 4th cell) fails
 *   seed=7               seed for the p= Bernoulli draws (default 0)
 *
 * Triggers (N is 1-based):
 *   at=N     fire once, when the site's progress crosses N
 *            (ref= is an accepted alias, reading naturally for the
 *            crash site: crash:ref=M)
 *   after=N  fire on every hit with progress > N
 *   p=P      fire per hit with probability P, deterministically
 *            derived from (seed, site, progress)
 *
 * Sites and their actions:
 *   io-write     GuardedFile write attempt fails (retryable)
 *   enospc       GuardedFile write fails hard (no retry)
 *   io-rename    GuardedFile commit rename fails
 *   alloc        trace/checkpoint image allocation fails
 *   cell         a sweep cell throws (degraded mode)
 *   crash        the process _Exit(137)s at the site — the hook never
 *                returns, simulating kill -9 mid-run
 */

#ifndef MEMBW_RESILIENCE_FAULT_INJECTION_HH
#define MEMBW_RESILIENCE_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.hh"

namespace membw {

/**
 * Parse @p spec and arm the process-wide plan.  Replaces any armed
 * plan and resets every site counter.  Classified BadValue on an
 * unknown site, unknown trigger, or malformed number, so tools can
 * surface typos instead of silently injecting nothing.
 */
Result<bool> armFaultPlan(const std::string &spec);

/** Drop the armed plan (tests re-arm between cases). */
void disarmFaultPlan();

/** True when a plan is armed (the macro's cheap gate). */
bool faultPlanArmed();

namespace detail {

extern std::atomic<bool> faultPlanLive;

/** One ordinary hit: progress += 1.  True = injected failure. */
bool faultHit(const char *site);

/** Hit with an explicit unit index (unit i spans (i, i+1]). */
bool faultHitAt(const char *site, std::uint64_t index);

/** Advance the site's progress to the absolute position @p pos
 * (monotone per process); fires clauses whose threshold was
 * crossed.  Used where progress advances in slices (MTC steps,
 * micro-op strides). */
bool faultHitMark(const char *site, std::uint64_t pos);

} // namespace detail

/** Evaluates to true when the armed plan injects a failure here. */
#define MEMBW_FAULT_POINT(site)                                      \
    (membw::detail::faultPlanLive.load(std::memory_order_relaxed) && \
     membw::detail::faultHit(site))

#define MEMBW_FAULT_POINT_AT(site, index)                            \
    (membw::detail::faultPlanLive.load(std::memory_order_relaxed) && \
     membw::detail::faultHitAt(site, index))

#define MEMBW_FAULT_POINT_MARK(site, pos)                            \
    (membw::detail::faultPlanLive.load(std::memory_order_relaxed) && \
     membw::detail::faultHitMark(site, pos))

} // namespace membw

#endif // MEMBW_RESILIENCE_FAULT_INJECTION_HH
