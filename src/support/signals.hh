/**
 * @file
 * SIGINT/SIGTERM handling for the CLI and the serve loop.
 *
 * Two modes, matching the two kinds of process:
 *
 *  - **Flush-and-exit** (`installFlushOnSignal`), for one-shot commands
 *    (`analyze`, `batch`, `fuzz`, ...): the handler flushes the trace
 *    sink (best effort, try-lock — see below), runs any registered
 *    flush callbacks (the CLI registers a stats dump when `--stats`
 *    was requested), and terminates with the conventional 128+sig
 *    code. Without this, Ctrl-C during `memoria batch --trace`
 *    truncates the JSONL trace mid-record.
 *
 *  - **Cooperative drain** (`installDrainHandler`), for `memoria
 *    serve`: the handler only sets an atomic flag; the accept loop
 *    polls `drainRequested()` and performs an orderly drain (stop
 *    admitting, finish in-flight, flush, exit 0). The handler is
 *    installed *without* SA_RESTART so a blocking read() wakes with
 *    EINTR and notices the flag.
 *
 * Async-signal-safety: flushing an ofstream from a handler is not
 * strictly async-signal-safe. The compromise is deliberate and narrow:
 * the trace flush uses try_lock (never deadlocks against an interrupted
 * emitter — worst case the flush is skipped), callbacks run behind a
 * reentrancy guard, and the handler ends in _exit, never returning to
 * corrupted state. For a diagnostics-on-interrupt path this trades
 * theoretical purity for never losing a trace.
 */

#ifndef MEMORIA_SUPPORT_SIGNALS_HH
#define MEMORIA_SUPPORT_SIGNALS_HH

#include <functional>

namespace memoria {
namespace signals {

/**
 * Mode 1: on SIGINT/SIGTERM flush the trace sink, run the registered
 * callbacks, and _exit(128 + sig). Idempotent.
 */
void installFlushOnSignal();

/**
 * Register work for the flush-and-exit handler (e.g. dumping the stats
 * registry). Callbacks run in registration order, at most once, behind
 * a reentrancy guard. Must be registered before signals can arrive.
 */
void addFlushCallback(std::function<void()> fn);

/**
 * Mode 2: on SIGINT/SIGTERM set the drain flag only (no SA_RESTART, so
 * blocking reads wake with EINTR). A second signal while draining
 * falls back to flush-and-exit so a hung drain can still be escaped.
 */
void installDrainHandler();

/** True once a drain signal has arrived. */
bool drainRequested();

/** Programmatic drain request (the serve `shutdown` op uses this). */
void requestDrain();

/**
 * SIGCHLD support for the serve supervisor: the handler only sets an
 * atomic flag (SA_NOCLDSTOP, no SA_RESTART — a supervisor blocked in
 * poll() wakes with EINTR and reaps). Consumers call
 * `consumeChildEvent()` and reap with waitpid(WNOHANG).
 */
void installChildHandler();

/** Clear the SIGCHLD flag (call before waitpid so a signal racing the
 *  reap loop re-sets it). */
void consumeChildEvent();

/**
 * SIGHUP support for the serve supervisor: the handler only sets an
 * atomic flag (no SA_RESTART). The supervisor's monitor loop polls
 * `consumeHup()` and starts a rolling recycle of all shard workers —
 * one at a time, zero requests lost — when it consumes the flag.
 */
void installHupHandler();

/** Test-and-clear the SIGHUP flag: true when one was pending. */
bool consumeHup();

/** Programmatic SIGHUP (tests drive rolling restarts without kill). */
void requestHup();

/** Test hook: clear the drain flag. */
void resetForTest();

} // namespace signals
} // namespace memoria

#endif // MEMORIA_SUPPORT_SIGNALS_HH
