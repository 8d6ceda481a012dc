#include "serve/listener.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "support/export.hh"
#include "support/fdio.hh"
#include "support/logging.hh"
#include "support/signals.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

/**
 * Keep listener and connection fds out of forked shard workers: a
 * child that inherits the accept socket would keep the port alive
 * after the supervisor dies, and an inherited client fd would keep a
 * "closed" connection half-open.
 */
void
setCloexec(int fd)
{
    int fl = ::fcntl(fd, F_GETFD);
    if (fl >= 0)
        ::fcntl(fd, F_SETFD, fl | FD_CLOEXEC);
}

/**
 * writeAll() to a client. Returns false when the peer is gone
 * (EPIPE/ECONNRESET) or the write failed outright — a transport
 * condition, never a service failure, so callers count it and move on
 * without touching breakers.
 */
bool
sendAll(int fd, const std::string &data)
{
    const int err = writeAll(fd, data);
    if (err == EPIPE || err == ECONNRESET)
        ++obs::counter("serve.client_gone");
    else if (err != 0)
        ++obs::counter("serve.write_errors");
    return err == 0;
}

/**
 * One client connection. The fd closes when the last holder lets go —
 * the reader thread and any in-flight respond callbacks each hold a
 * shared_ptr, so a response racing a disconnect still has a valid fd.
 * Once a write fails the connection is marked dead and later responses
 * are dropped instead of hammering a broken pipe.
 */
struct Conn
{
    explicit Conn(int fd) : fd(fd) {}
    ~Conn() { ::close(fd); }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(const std::string &line)
    {
        if (!alive.load(std::memory_order_relaxed))
            return;
        std::lock_guard<std::mutex> lock(mutex);
        if (!sendAll(fd, line + "\n"))
            alive.store(false, std::memory_order_relaxed);
    }

    int fd;
    std::mutex mutex;
    std::atomic<bool> alive{true};
};

/** Feed a line-delimited stream to `onLine`. Returns on EOF, read
 *  error, or drain request. */
void
pumpLines(int fd, const std::function<void(const std::string &)> &onLine)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        if (signals::drainRequested())
            break;
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;  // signal; loop re-checks drainRequested
            break;
        }
        if (n == 0)
            break;  // EOF
        buffer.append(chunk, static_cast<size_t>(n));
        size_t pos;
        while ((pos = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            onLine(line);
        }
    }
    // A final unterminated line is still a request.
    if (!buffer.empty())
        onLine(buffer);
}

int
makeTcpListener(const std::string &host, int port, int &boundPort)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    setCloexec(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, 64) < 0) {
        ::close(fd);
        return -1;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    boundPort = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) ==
        0)
        boundPort = ntohs(bound.sin_port);
    return fd;
}

int
makeUnixListener(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    setCloexec(fd);
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, 64) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Answer one metrics-scrape connection: swallow whatever request line
 * the client sent (curl, a Prometheus scraper, or a bare netcat), then
 * write one HTTP/1.0 response with the exposition text and close.
 * Runs on its own short-lived thread so a slow scraper cannot block
 * the accept loop.
 */
void
serveMetricsConn(int fd)
{
    // Read until the blank line ending the request head, a short
    // timeout, or 8 KiB — the content is irrelevant, every request
    // gets the same answer.
    char buf[1024];
    std::string head;
    pollfd p{fd, POLLIN, 0};
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos &&
           head.size() < 8192) {
        int rc = ::poll(&p, 1, 500);
        if (rc <= 0)
            break;
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        head.append(buf, static_cast<size_t>(n));
    }

    std::string body = obs::prometheusText();
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n" + body;
    sendAll(fd, resp);
    ::close(fd);
}

} // namespace

int
runStdio(LineService &service)
{
    // A client that closes its end mid-response must not kill the
    // process; the failed write is counted, not fatal.
    ::signal(SIGPIPE, SIG_IGN);
    std::mutex outMutex;
    auto respond = [&outMutex](const std::string &line) {
        std::lock_guard<std::mutex> lock(outMutex);
        std::cout << line << "\n";
        std::cout.flush();
    };
    service.start();
    pumpLines(STDIN_FILENO, [&](const std::string &line) {
        service.handleLine(line, respond, "stdio");
    });
    service.drain();
    return 0;
}

int
runWorkerFd(Executor &executor, int fd)
{
    // The supervisor is the only peer; a response racing its death
    // must not kill the worker before the reaper classifies it.
    ::signal(SIGPIPE, SIG_IGN);
    std::mutex outMutex;
    auto respond = [&outMutex, fd](const std::string &line) {
        std::lock_guard<std::mutex> lock(outMutex);
        sendAll(fd, line + "\n");
    };
    executor.start();
    pumpLines(fd, [&](const std::string &line) {
        // Every line is the front's: a work request it admitted, or
        // the heartbeat probe, answered here on the reader thread so a
        // saturated pool cannot miss it.
        // The front held the client's line to --max-request-bytes.
        // Its forward is a re-serialization (a new id, the admission
        // time), a few bytes longer, so the cap is not applied twice.
        double enqueuedUs = 0.0;
        Result<Request> parsed = parseRequest(line, 0, &enqueuedUs);
        if (!parsed.ok()) {
            respond(errorResponse("", parsed.diag().code,
                                  parsed.diag().str()));
            return;
        }
        Request &req = parsed.value();
        if (req.kind == RequestKind::Health) {
            json::Value r = json::Value::object();
            r.set("id", json::Value::string(req.id));
            r.set("type", json::Value::string("health"));
            executor.describe(r);
            respond(r.dump());
            return;
        }
        executor.submit(std::move(req), enqueuedUs,
                        [respond](const std::string &answer, bool) {
                            respond(answer);
                        });
    });
    // EOF is the supervisor's shutdown handshake: finish in-flight
    // work, write the cache snapshot, exit 0 so the reaper sees a
    // clean exit.
    executor.drain();
    obs::flushTrace();
    ::close(fd);
    return 0;
}

int
runListener(LineService &service, const TransportOptions &topts)
{
    // A response racing a disconnect must not kill the process.
    ::signal(SIGPIPE, SIG_IGN);

    std::vector<pollfd> listeners;
    int tcpFd = -1, unixFd = -1;
    if (topts.port >= 0) {
        int boundPort = 0;
        tcpFd = makeTcpListener(topts.host, topts.port, boundPort);
        if (tcpFd < 0) {
            warn("serve: cannot listen on " + topts.host + ":" +
                  std::to_string(topts.port));
            return 1;
        }
        listeners.push_back({tcpFd, POLLIN, 0});
        // Announce on stdout so scripted clients can discover the
        // ephemeral port without racing the bind.
        std::cout << "listening tcp " << topts.host << ":" << boundPort
                  << std::endl;
    }
    if (!topts.unixPath.empty()) {
        unixFd = makeUnixListener(topts.unixPath);
        if (unixFd < 0) {
            if (tcpFd >= 0)
                ::close(tcpFd);
            warn("serve: cannot listen on unix socket '" +
                  topts.unixPath + "'");
            return 1;
        }
        listeners.push_back({unixFd, POLLIN, 0});
        std::cout << "listening unix " << topts.unixPath << std::endl;
    }
    if (listeners.empty()) {
        warn("serve: no socket transport configured");
        return 1;
    }
    int metricsFd = -1;
    if (topts.metricsPort >= 0) {
        int boundPort = 0;
        metricsFd =
            makeTcpListener(topts.host, topts.metricsPort, boundPort);
        if (metricsFd < 0) {
            warn("serve: cannot listen on metrics port " + topts.host +
                 ":" + std::to_string(topts.metricsPort));
        } else {
            listeners.push_back({metricsFd, POLLIN, 0});
            std::cout << "listening metrics " << topts.host << ":"
                      << boundPort << std::endl;
        }
    }

    service.start();

    std::mutex connsMutex;
    std::vector<std::weak_ptr<Conn>> conns;
    std::vector<std::thread> readers;

    while (!signals::drainRequested()) {
        int rc = ::poll(listeners.data(), listeners.size(), 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        for (pollfd &p : listeners) {
            if (!(p.revents & POLLIN))
                continue;
            int cfd = ::accept(p.fd, nullptr, nullptr);
            if (cfd < 0)
                continue;
            setCloexec(cfd);
            if (p.fd == metricsFd) {
                // Scrapes never touch the admission queue; a saturated
                // worker pool cannot delay them.
                std::thread(serveMetricsConn, cfd).detach();
                continue;
            }
            auto conn = std::make_shared<Conn>(cfd);
            // Per-connection fair-share fallback key: requests that
            // carry no client_id are bucketed by connection, so two
            // anonymous clients on separate connections still get
            // separate shares.
            static std::atomic<uint64_t> connSeq{0};
            const std::string clientKey =
                "conn:" + std::to_string(++connSeq);
            std::lock_guard<std::mutex> lock(connsMutex);
            conns.push_back(conn);
            readers.emplace_back([&service, conn, clientKey] {
                const LineService::Respond respond =
                    [conn](const std::string &line) { conn->send(line); };
                pumpLines(conn->fd, [&](const std::string &line) {
                    service.handleLine(line, respond, clientKey);
                });
            });
        }
    }

    for (pollfd &p : listeners)
        ::close(p.fd);

    // Drain first so every accepted request's response is written
    // while the connections are still alive, then wake the readers.
    service.drain();
    {
        std::lock_guard<std::mutex> lock(connsMutex);
        for (std::weak_ptr<Conn> &w : conns)
            if (std::shared_ptr<Conn> c = w.lock())
                ::shutdown(c->fd, SHUT_RD);
        for (std::thread &t : readers)
            if (t.joinable())
                t.join();
    }
    if (!topts.unixPath.empty())
        ::unlink(topts.unixPath.c_str());
    return 0;
}

} // namespace serve
} // namespace memoria
