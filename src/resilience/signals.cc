#include "resilience/signals.hh"

#include <atomic>
#include <csignal>

namespace membw {

namespace {

// The handler may run on any thread (membw_served raises SIGTERM
// from a broker thread) while the main thread polls.
static_assert(std::atomic<int>::is_always_lock_free,
              "the shutdown flag must be lock-free to be written from "
              "a signal handler");
std::atomic<int> pendingSignal{0};

extern "C" void
shutdownHandler(int signum)
{
    if (pendingSignal.load(std::memory_order_acquire) != 0) {
        // Second request: restore default disposition and re-raise,
        // so a stuck drain can still be killed from the keyboard.
        std::signal(signum, SIG_DFL);
        std::raise(signum);
        return;
    }
    pendingSignal.store(signum, std::memory_order_release);
}

} // namespace

void
installShutdownHandlers()
{
    std::signal(SIGINT, shutdownHandler);
    std::signal(SIGTERM, shutdownHandler);
}

int
shutdownRequested()
{
    return pendingSignal.load(std::memory_order_acquire);
}

const char *
shutdownSignalName()
{
    switch (pendingSignal.load(std::memory_order_acquire)) {
      case SIGINT: return "SIGINT";
      case SIGTERM: return "SIGTERM";
      default: return "";
    }
}

void
clearShutdownRequest()
{
    pendingSignal.store(0, std::memory_order_release);
}

} // namespace membw
