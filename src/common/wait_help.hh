/**
 * @file
 * Work a thread can do instead of blocking.
 *
 * A pool worker that drains a queue of independent tasks installs a
 * WaitHelper that starts one more of them.  Code that has to wait
 * for a result another thread is computing (PhaseMemo) calls
 * WaitHelper::help() first, so the worker keeps running tasks
 * instead of sitting idle.
 */

#ifndef MEMBW_COMMON_WAIT_HELP_HH
#define MEMBW_COMMON_WAIT_HELP_HH

#include <functional>

namespace membw {

class WaitHelper
{
  public:
    /** Install @p runOne (returns false when nothing is left to run)
     * for this thread until destruction. */
    explicit WaitHelper(std::function<bool()> runOne)
        : runOne_(std::move(runOne)), outer_(current_)
    {
        current_ = this;
    }

    ~WaitHelper() { current_ = outer_; }

    WaitHelper(const WaitHelper &) = delete;
    WaitHelper &operator=(const WaitHelper &) = delete;

    /** Run one task through this thread's helper; false if there is
     * no helper or no task left. */
    static bool
    help()
    {
        return current_ && current_->runOne_();
    }

  private:
    std::function<bool()> runOne_;
    WaitHelper *outer_;
    static inline thread_local WaitHelper *current_ = nullptr;
};

} // namespace membw

#endif // MEMBW_COMMON_WAIT_HELP_HH
