/**
 * @file
 * Forward-progress watchdog for the timing simulators.
 *
 * The timestamp-propagation core derives every micro-op's cycles in
 * one pass, so a livelocked machine does not spin the host CPU —
 * it materializes as an absurd jump in the cycle domain: a load whose
 * "data ready" time is millions of cycles past the previous retire
 * because a bus busy-time overflowed, a DRAM bank never frees, or a
 * config produced an unserviceable request.  Left unchecked, such a
 * run burns hours and emits garbage stats.
 *
 * The Watchdog tracks the last cycle at which the machine provably
 * made forward progress (a retired instruction or a completed miss)
 * and trips when the cycle domain advances more than a budget past
 * it.  Tripping dumps a machine-state diagnostic through the stats
 * registry (the same schema as --stats-json) to stderr and throws
 * WatchdogError, which tools map to exit code 4.
 */

#ifndef MEMBW_RESILIENCE_WATCHDOG_HH
#define MEMBW_RESILIENCE_WATCHDOG_HH

#include <functional>
#include <string>

#include "common/types.hh"
#include "resilience/exit_codes.hh"

namespace membw {

class StatsRegistry;

class Watchdog
{
  public:
    /** Fills a registry with machine state for the trip diagnostic. */
    using DiagnosticFn = std::function<void(StatsRegistry &)>;

    /**
     * @p budget is the maximum tolerated gap, in cycles, between two
     * consecutive forward-progress events; 0 disables the guard.
     */
    explicit Watchdog(Cycle budget, std::string label = "core")
        : budget_(budget), label_(std::move(label))
    {
    }

    void setDiagnostic(DiagnosticFn fn) { diagnostic_ = std::move(fn); }

    bool enabled() const { return budget_ != 0; }
    Cycle budget() const { return budget_; }

    /**
     * Record a forward-progress event at cycle @p c (a retired
     * instruction or a completed miss).  Trips if @p c is more than
     * the budget past the previous progress event.
     */
    void
    advance(Cycle c)
    {
        if (c > lastProgress_) {
            const Cycle gap = c - lastProgress_;
            if (budget_ && gap > budget_)
                trip(c);
            if (gap > maxGap_)
                maxGap_ = gap;
            lastProgress_ = c;
        }
    }

    /**
     * Take in a finished run's record as if its events had been fed
     * through advance(): progress up to @p last, with @p maxGap its
     * largest gap.  Exact for a fresh watchdog.  Never trips; the
     * caller checks the gap against budget() first.
     */
    void
    replay(Cycle last, Cycle maxGap)
    {
        if (last > lastProgress_)
            lastProgress_ = last;
        if (maxGap > maxGap_)
            maxGap_ = maxGap;
    }

    /** Last cycle at which forward progress was recorded. */
    Cycle lastProgress() const { return lastProgress_; }

    /** Largest gap observed between consecutive progress events. */
    Cycle maxGap() const { return maxGap_; }

    /**
     * Fraction of the budget never yet consumed by the worst gap
     * (1.0 = the machine never came close to tripping).  This is the
     * "watchdog slack" figure the --stats-every heartbeat reports.
     */
    double
    headroom() const
    {
        if (!budget_)
            return 1.0;
        if (maxGap_ >= budget_)
            return 0.0;
        return 1.0 - static_cast<double>(maxGap_) /
                         static_cast<double>(budget_);
    }

    /**
     * Fraction of the budget still unused at cycle @p now (1.0 =
     * fully slack, 0.0 = about to trip).  For heartbeat lines.
     */
    double
    slack(Cycle now) const
    {
        if (!budget_ || now <= lastProgress_)
            return 1.0;
        const Cycle gap = now - lastProgress_;
        if (gap >= budget_)
            return 0.0;
        return 1.0 - static_cast<double>(gap) /
                         static_cast<double>(budget_);
    }

    /** Dump the diagnostic and throw WatchdogError. */
    [[noreturn]] void trip(Cycle now) const;

  private:
    Cycle budget_;
    std::string label_;
    Cycle lastProgress_ = 0;
    Cycle maxGap_ = 0;
    DiagnosticFn diagnostic_;
};

} // namespace membw

#endif // MEMBW_RESILIENCE_WATCHDOG_HH
