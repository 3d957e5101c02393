/**
 * @file
 * Async-signal-safe graceful-shutdown plumbing.
 *
 * installShutdownHandlers() registers SIGINT/SIGTERM handlers that do
 * nothing but store the signal number into a lock-free std::atomic —
 * safe inside a handler, and race-free when the signal is delivered
 * on a thread other than the one that polls.  Simulation loops poll
 * shutdownRequested() between references (so the current reference
 * always drains), then write a final checkpoint and partial stats and
 * exit with exitInterrupted.
 *
 * A second delivery of the same signal while the first is still being
 * drained re-raises with default disposition, so an impatient Ctrl-C
 * Ctrl-C still kills a tool stuck writing a huge checkpoint.
 */

#ifndef MEMBW_RESILIENCE_SIGNALS_HH
#define MEMBW_RESILIENCE_SIGNALS_HH

namespace membw {

/**
 * Install the SIGINT/SIGTERM handlers.  Idempotent.  Call once from
 * main() before entering a simulation loop.
 */
void installShutdownHandlers();

/**
 * The signal number of the first shutdown request, or 0 when none is
 * pending.  Cheap enough to poll per reference.
 */
int shutdownRequested();

/** "SIGINT"/"SIGTERM" for the pending request; "" when none. */
const char *shutdownSignalName();

/** Clear a pending request (tests; accepting a drained shutdown). */
void clearShutdownRequest();

} // namespace membw

#endif // MEMBW_RESILIENCE_SIGNALS_HH
