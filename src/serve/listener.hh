/**
 * @file
 * Transports for the compile service: stdin/stdout and socket
 * listeners.
 *
 * Both transports share the same contract with the front
 * (serve/supervisor.hh) — read newline-delimited request lines, hand
 * each to `LineService::handleLine` with a thread-safe respond
 * callback, and on SIGTERM/SIGINT (`signals::drainRequested()`) stop
 * reading, drain the front, and return 0. The signal handlers are installed in *drain mode* (no
 * SA_RESTART), so a blocking read()/accept() wakes with EINTR instead
 * of stalling shutdown; a second signal force-exits after flushing.
 *
 * The socket listener accepts TCP (`--port`, 0 picks an ephemeral port)
 * and/or a Unix-domain socket (`--socket PATH`); the bound address is
 * announced on stdout (`listening tcp 127.0.0.1:45123`) so scripted
 * clients can connect without racing. Connections are line-oriented
 * and concurrent: each gets a reader thread, and response writes are
 * serialized per connection, so interleaved requests from many clients
 * cannot corrupt each other's frames.
 */

#ifndef MEMORIA_SERVE_LISTENER_HH
#define MEMORIA_SERVE_LISTENER_HH

#include <string>

#include "serve/server.hh"

namespace memoria {
namespace serve {

/** Where to listen. */
struct TransportOptions
{
    /** Serve stdin/stdout (the default when no socket is requested). */
    bool stdio = true;

    /** TCP: host to bind, port (-1 = off, 0 = ephemeral). */
    std::string host = "127.0.0.1";
    int port = -1;

    /** Unix-domain socket path ("" = off). Unlinked on shutdown. */
    std::string unixPath;

    /**
     * HTTP-ish Prometheus scrape port (-1 = off, 0 = ephemeral).
     * Any request on it is answered with an HTTP/1.0 200 carrying
     * `obs::exportPrometheus` text and closed — enough for a scraper
     * or `curl`, served off the accept thread so it answers even when
     * every worker is saturated.
     */
    int metricsPort = -1;
};

/**
 * Blocking stdin/stdout loop: one request per line in, one response
 * per line out. Returns the process exit code (0 on EOF or a clean
 * signal-initiated drain). Serves either a single-process `Server` or
 * a `Supervisor` — anything speaking `LineService`.
 */
int runStdio(LineService &service);

/**
 * Blocking socket accept loop for the enabled socket transports.
 * Returns the process exit code (0 on a clean drain).
 */
int runListener(LineService &service, const TransportOptions &topts);

/**
 * Shard-worker mode (`memoria serve --worker-fd N`): run the requests
 * the supervisor forwards over an inherited socketpair fd on
 * `executor`, and answer its `health` heartbeat inline. No admission
 * happens here; the front did it. Returns 0 on EOF (the supervisor
 * closed the pipe — the drain handshake) or a drain signal.
 */
int runWorkerFd(Executor &executor, int fd);

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_LISTENER_HH
