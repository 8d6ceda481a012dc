#include "support/signals.hh"

#include <atomic>
#include <csignal>
#include <mutex>
#include <unistd.h>
#include <vector>

#include "support/trace.hh"

namespace memoria {
namespace signals {

namespace {

std::atomic<int> gDrainSignal{0};
std::atomic<bool> gFlushRan{false};
std::atomic<bool> gChildPending{false};
std::atomic<bool> gHupPending{false};

/** Callback list is append-only and set up before handlers fire. */
std::mutex gCallbackMutex;
std::vector<std::function<void()>> gCallbacks;

void
runFlushWork()
{
    // At-most-once: a second signal during the flush must not re-enter.
    if (gFlushRan.exchange(true))
        return;
    obs::tryFlushTrace();
    // Snapshot under the lock, run outside it: a callback that logs
    // (and therefore traces) must not deadlock against registration.
    std::vector<std::function<void()>> cbs;
    {
        std::lock_guard<std::mutex> lock(gCallbackMutex);
        cbs = gCallbacks;
    }
    for (const auto &fn : cbs) {
        if (fn)
            fn();
    }
    obs::tryFlushTrace();
}

extern "C" void
flushAndExitHandler(int sig)
{
    runFlushWork();
    _exit(128 + sig);
}

extern "C" void
childHandler(int)
{
    gChildPending.store(true, std::memory_order_relaxed);
}

extern "C" void
hupHandler(int)
{
    gHupPending.store(true, std::memory_order_relaxed);
}

extern "C" void
drainHandler(int sig)
{
    int expected = 0;
    if (!gDrainSignal.compare_exchange_strong(expected, sig)) {
        // Second signal: the drain is stuck or the user is insistent.
        flushAndExitHandler(sig);
    }
}

void
install(void (*handler)(int), bool restart)
{
    struct sigaction sa = {};
    sa.sa_handler = handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = restart ? SA_RESTART : 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

} // namespace

void
installFlushOnSignal()
{
    install(flushAndExitHandler, /*restart=*/true);
}

void
addFlushCallback(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(gCallbackMutex);
    gCallbacks.push_back(std::move(fn));
}

void
installDrainHandler()
{
    // No SA_RESTART: the serve read loop must wake from read() with
    // EINTR to notice the flag.
    install(drainHandler, /*restart=*/false);
}

void
installChildHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = childHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART (the monitor loop must wake with EINTR);
    // SA_NOCLDSTOP so a SIGSTOP'd worker doesn't look like an exit —
    // hung-worker detection is the heartbeat's job.
    sa.sa_flags = SA_NOCLDSTOP;
    sigaction(SIGCHLD, &sa, nullptr);
}

void
installHupHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = hupHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: the monitor loop's poll/sleep must wake with
    // EINTR and notice the rolling-restart request promptly.
    sa.sa_flags = 0;
    sigaction(SIGHUP, &sa, nullptr);
}

bool
consumeHup()
{
    return gHupPending.exchange(false, std::memory_order_relaxed);
}

void
requestHup()
{
    gHupPending.store(true, std::memory_order_relaxed);
}

void
consumeChildEvent()
{
    gChildPending.store(false, std::memory_order_relaxed);
}

bool
drainRequested()
{
    return gDrainSignal.load(std::memory_order_relaxed) != 0;
}

void
requestDrain()
{
    int expected = 0;
    gDrainSignal.compare_exchange_strong(expected, SIGTERM);
}

void
resetForTest()
{
    gDrainSignal.store(0);
    gFlushRan.store(false);
    gChildPending.store(false);
    gHupPending.store(false);
}

} // namespace signals
} // namespace memoria
