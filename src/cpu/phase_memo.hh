/**
 * @file
 * Per-stream memo of decomposition phase results.
 *
 * A phase run is a pure function of its stream and the config fields
 * the phase reads (phaseKey(), cpu/experiment.hh).  Figure 3's six
 * machines share most of those: A-C read one perfect-memory core,
 * D-E another, and experiment F on any DRAM shares its
 * infinite-width run with F on the flat model.  The memo runs each
 * distinct key once per stream.  Concurrent callers of one key wait
 * for the first; a pool worker runs its other pending cells in the
 * meantime (WaitHelper).
 */

#ifndef MEMBW_CPU_PHASE_MEMO_HH
#define MEMBW_CPU_PHASE_MEMO_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "cpu/core.hh"

namespace membw {

class PhaseMemo
{
  public:
    /** A completed phase run and the largest gap between its
     * retirements (its Watchdog::maxGap()). */
    struct Run
    {
        CoreResult result;
        Cycle maxGap = 0;
    };

    /**
     * The run for @p key.  The first caller computes it with @p run;
     * callers arriving meanwhile run other work through
     * WaitHelper::help() until there is none, then block; later
     * callers get the stored run.  A stored run answers a caller whose watchdog
     * @p budget is 0 or at least the run's maxGap, since a live run
     * under that budget would not trip and would compute the same
     * result.  Any other caller runs @p run itself, so its watchdog
     * trips as it would have.  A run that throws is not stored: the
     * exception reaches its own caller, and each waiter tries again.
     */
    Run get(const std::string &key, Cycle budget,
            const std::function<Run()> &run);

    /** Stored runs. */
    std::size_t size() const;

    /** Host bytes the stored runs and their keys hold. */
    std::size_t bytes() const;

  private:
    struct Entry
    {
        bool ready = false;
        Run run;
    };

    mutable std::mutex mutex_;
    std::condition_variable built_;
    std::map<std::string, Entry> entries_;
};

} // namespace membw

#endif // MEMBW_CPU_PHASE_MEMO_HH
