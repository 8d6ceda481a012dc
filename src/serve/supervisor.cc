#include "serve/supervisor.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "serve/server.hh"
#include "support/clock.hh"
#include "support/export.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/procstat.hh"
#include "support/rng.hh"
#include "support/signals.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace memoria {
namespace serve {

namespace {

std::string
registryDumpJson()
{
    std::ostringstream os;
    obs::statsRegistry().dumpJson(os);
    std::string s = os.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

/** Classify a waitpid status for the crash-kind counters. */
std::string
crashKind(int status)
{
    if (WIFSIGNALED(status)) {
        switch (WTERMSIG(status)) {
          case SIGABRT:
            return "sigabrt";
          case SIGSEGV:
            return "sigsegv";
          case SIGKILL:
            return "sigkill";
          case SIGBUS:
            return "sigbus";
          default:
            return "signal_" + std::to_string(WTERMSIG(status));
        }
    }
    if (WIFEXITED(status))
        return "exit_" + std::to_string(WEXITSTATUS(status));
    return "unknown";
}

const char *kHeartbeatLine = "{\"id\":\"hb\",\"kind\":\"health\"}\n";

/** Heartbeats a worker may miss before it counts as hung. */
constexpr int kHeartbeatMisses = 6;

/** Extra time past a request's deadline before the worker running it
 *  is declared hung and killed. */
constexpr int64_t kHangGraceMs = 5000;

/** How long a worker must stay up before its respawn backoff resets. */
constexpr int64_t kStableMs = 10000;

/** How long a recycling worker gets to drain and exit before the
 *  supervisor SIGKILLs it (counted as a crash). */
constexpr int64_t kRecycleGraceMs = 10000;

/** `{"k":v,...}` from keys and pre-rendered values. */
std::string
objectText(const std::vector<std::pair<std::string, std::string>> &members)
{
    std::string s = "{";
    for (const auto &[key, value] : members) {
        if (s.size() > 1)
            s += ',';
        s += json::quote(key) + ":" + value;
    }
    return s + "}";
}

/** A worker-lifecycle event from one field list: journaled as `op`
 *  (fields as text) and traced as `name` (typed fields). */
void
lifecycleEvent(Journal *journal, const char *op, const char *name,
               std::vector<obs::TraceArg> fields)
{
    if (journal) {
        std::vector<std::pair<std::string, std::string>> text;
        for (const auto &[key, value] : fields)
            text.emplace_back(key, value.render());
        journal->appendEvent(op, text);
    }
    obs::traceEvent("serve", name, std::move(fields));
}

void
setCloexecNonblock(int fd)
{
    int fl = ::fcntl(fd, F_GETFL);
    if (fl >= 0)
        ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    int fdfl = ::fcntl(fd, F_GETFD);
    if (fdfl >= 0)
        ::fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC);
}

} // namespace

Supervisor::Supervisor(SupervisorOptions opts)
    : Supervisor(std::move(opts), nullptr)
{
}

Supervisor::Supervisor(SupervisorOptions opts,
                       std::unique_ptr<Executor> local)
    : opts_(std::move(opts)), local_(std::move(local))
{
    opts_.workers = local_ ? 1 : std::max(1, opts_.workers);
    startedAtMs_ = steadyMs();
    // Each shard queues at most queueCapacity requests; in-flight work
    // is bounded separately, by `jobs` (pumpWorkerLocked).
    AdmissionOptions aopts;
    aopts.queueCapacity = opts_.serve.queueCapacity;
    aopts.perClientCap = opts_.serve.perClientCap;
    aopts.retryAfterMs = opts_.serve.retryAfterMs;
    aopts.ageTargetMs = opts_.serve.ageTargetMs;
    // One controller per shard; the monitor publishes summed gauges.
    for (int i = 0; i < opts_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->shard = i;
        w->admission = std::make_unique<AdmissionController>(aopts);
        workers_.push_back(std::move(w));
    }
    if (!opts_.journalPath.empty()) {
        // Recovery replay MUST precede open(): open() truncates, and
        // the previous incarnation's admitted-but-unanswered requests
        // are only recorded in the old file. What it finds is exactly
        // the set of requests a restarted supervisor owes an answer
        // for — surfaced in the `health` response's `recovery` block
        // so clients (and the chaos soak) can resubmit them.
        std::error_code ec;
        if (std::filesystem::exists(opts_.journalPath, ec)) {
            Result<std::vector<JournalEntry>> prev =
                Journal::readIncomplete(opts_.journalPath);
            if (prev.ok() && !prev.value().empty()) {
                recovery_ = std::move(prev.value());
                for (size_t i = 0; i < recovery_.size(); ++i)
                    ++obs::counter("serve.recovery.unanswered");
                obs::traceEvent(
                    "serve", "journal_replay",
                    {{"path", opts_.journalPath},
                     {"unanswered",
                      static_cast<int64_t>(recovery_.size())}});
            }
        }
        Result<std::unique_ptr<Journal>> j =
            Journal::open(opts_.journalPath);
        if (j.ok())
            journal_ = std::move(j.value());
        else
            warn("serve: " + j.diag().str() + " (journal disabled)");
    }
}

Supervisor::~Supervisor()
{
    drain();
}

void
Supervisor::start()
{
    if (started_.exchange(true))
        return;
    std::vector<Outgoing> out;
    if (local_) {
        local_->start();
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = *workers_[0];
        w.up = true;
        // Work admitted before start() is forwarded now.
        pumpWorkerLocked(w, out);
    } else {
        MEMORIA_ASSERT(!opts_.workerCommand.empty(),
                       "supervisor needs a worker command");
        // A flush racing a worker's death must surface as EPIPE on the
        // socketpair (handled by the monitor), not kill the supervisor
        // — transports ignore SIGPIPE for their own fds, but the worker
        // pipes are ours whatever the transport.
        ::signal(SIGPIPE, SIG_IGN);
        signals::installChildHandler();
        // SIGHUP = rolling restart of every shard, one at a time.
        signals::installHupHandler();

        std::lock_guard<std::mutex> lock(mu_);
        for (auto &w : workers_)
            spawnWorkerLocked(*w, out);
    }
    deliver(out);

    if (!opts_.serve.metricsPath.empty()) {
        metricsOut_ = std::make_unique<std::ofstream>(
            opts_.serve.metricsPath, std::ios::app);
        if (!*metricsOut_) {
            obs::traceEvent("serve", "metrics_file_error",
                            {{"path", opts_.serve.metricsPath}});
            metricsOut_.reset();
        } else if (opts_.serve.metricsIntervalMs > 0) {
            metricsThread_ = std::thread([this] { metricsLoop(); });
        }
    }

    monitor_ = std::thread([this] { monitorLoop(); });
    obs::traceEvent("serve", "start",
                    {{"workers", local_ ? 0 : int64_t{opts_.workers}},
                     {"jobs", int64_t{std::max(1, opts_.serve.jobs)}},
                     {"queue_capacity",
                      static_cast<int64_t>(queueCapacity())},
                     {"journal", opts_.journalPath}});
}

int
Supervisor::shardOf(const std::string &program) const
{
    // Rendezvous (highest-random-weight) hashing: each shard scores
    // the key independently and the max wins, so the mapping is a
    // pure function of (program, shard count) — stable across worker
    // respawns and uniform across shards.
    const uint64_t h = fnv1a64(program);
    int best = 0;
    uint64_t bestScore = 0;
    for (int i = 0; i < opts_.workers; ++i) {
        uint64_t score =
            splitmix64(h ^ splitmix64(static_cast<uint64_t>(i) + 1));
        if (i == 0 || score > bestScore) {
            best = i;
            bestScore = score;
        }
    }
    return best;
}

int64_t
Supervisor::effectiveDeadlineMs(const Request &req) const
{
    if (req.deadlineMs > 0)
        return std::min(req.deadlineMs, opts_.serve.maxDeadlineMs);
    return opts_.serve.budget.deadlineMs;
}

std::string
Supervisor::forwardLine(const Pending &p, uint64_t seq) const
{
    json::Value o = json::Value::object();
    o.set("id", json::Value::string("s" + std::to_string(seq)));
    o.set("kind", json::Value::string(requestKindName(p.req.kind)));
    o.set("program", json::Value::string(p.req.program));
    if (p.req.deadlineMs > 0)
        o.set("deadline_ms", json::Value::number(p.req.deadlineMs));
    if (p.req.simulate.has_value())
        o.set("simulate", json::Value::boolean(*p.req.simulate));
    if (!p.req.traceId.empty())
        o.set("trace_id", json::Value::string(p.req.traceId));
    // The fault spec rides only on the first attempt: replaying a
    // crash-inducing fault verbatim would kill the fresh worker too.
    if (!p.req.fault.empty() && !p.retried)
        o.set("fault", json::Value::string(p.req.fault));
    // steady_clock is CLOCK_MONOTONIC, one clock for every process on
    // the host: the worker's `queue_us` then covers the wait here too.
    o.set("enqueued_us", json::Value::number(p.enqueuedUs));
    return o.dump();
}

void
Supervisor::handleLine(const std::string &line, const Respond &respond,
                       const std::string &clientKey)
{
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return;

    ++received_;
    Result<Request> parsed =
        parseRequest(line, opts_.serve.maxRequestBytes);
    if (!parsed.ok()) {
        ++errors_;
        ++obs::counter("serve.request_errors");
        // The Diag's own code distinguishes protocol.too-large
        // (resource caps) from serve.request (bad input).
        respond(errorResponse("", parsed.diag().code,
                              parsed.diag().str()));
        return;
    }
    const Request &req = parsed.value();
    ++obs::counter("serve.requests_total");

    if (req.kind == RequestKind::Health) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.health"));
        respond(healthLine(req.id));
        return;
    }
    if (req.kind == RequestKind::Stats) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.stats"));
        respond(statsLine(req.id));
        return;
    }
    if (req.kind == RequestKind::Metrics) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.metrics"));
        respond(metricsLine(req.id));
        return;
    }

    const int shard = shardOf(req.program);
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_.load()) {
            ++cancelled_;
            respond(cancelledResponse(req.id, "server draining"));
            return;
        }
        Worker &w = *workers_[shard];

        // Fair-share identity: explicit client_id beats the transport
        // connection key beats the anonymous bucket.
        const std::string client =
            !req.clientId.empty()
                ? req.clientId
                : (!clientKey.empty() ? clientKey : "anon");
        Priority pri = Priority::Interactive;
        parsePriority(req.priority, pri);
        const int64_t now = steadyUs();
        int64_t deadlineAtUs = 0;
        if (req.deadlineMs > 0)
            deadlineAtUs =
                now + std::min(req.deadlineMs,
                               opts_.serve.maxDeadlineMs) * 1000;

        const AdmissionDecision d = w.admission->decide(
            client, pri, deadlineAtUs, estimatedServiceUs(req.kind), now);
        if (!d.admitted) {
            ++shed_;
            ++obs::counter("serve.shed");
            respond(overloadedResponse(req.id, d.retryAfterMs,
                                       d.queueDepth, d.reason));
            return;
        }

        const uint64_t seq = ++seq_;
        Pending p;
        p.req = req;
        p.respond = respond;
        p.shard = shard;
        // Idempotent kinds retry transparently; compound only on the
        // client's explicit "replay": true.
        p.replayOk = req.kind != RequestKind::Compound || req.replay;
        p.enqueuedUs = steadyUsF();
        p.client = client;
        p.priority = pri;
        p.admitDeadlineUs = deadlineAtUs;
        if (journal_)
            journal_->appendAdmit(seq, req.id,
                                  requestKindName(req.kind), shard,
                                  p.replayOk, line);
        pending_.emplace(seq, std::move(p));
        w.admission->enqueue(seq, client, pri, deadlineAtUs, now);
        ++accepted_;
        ++obs::counter("serve.accepted");
        pumpWorkerLocked(w, out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::pumpWorkerLocked(Worker &w, std::vector<Outgoing> &out)
{
    // A shard never holds more than it has threads to run: the
    // executor behind it needs no queue discipline of its own.
    const size_t maxInflight =
        static_cast<size_t>(std::max(1, opts_.serve.jobs));
    const int64_t now = steadyUs();
    std::vector<AdmissionDrop> drops;
    while (w.up && !w.recycling &&
           w.inflight.size() < maxInflight) {
        const uint64_t seq = w.admission->pop(now, drops);
        if (seq == 0)
            break;
        auto it = pending_.find(seq);
        if (it == pending_.end()) {
            // Stale ticket (already resolved): release its slot.
            w.admission->finish(seq, now);
            continue;
        }
        Pending &p = it->second;
        p.inflight = true;
        p.forwardedAtUs = steadyUsF();
        w.inflight.insert(seq);
        if (local_) {
            local_->submit(p.req, p.enqueuedUs,
                           [this, seq](const std::string &line,
                                       bool result) {
                               onLocalAnswer(seq, line, result);
                           });
            continue;
        }
        const int64_t eff = effectiveDeadlineMs(p.req);
        p.deadlineAtMs =
            eff > 0 ? steadyMs() + eff + kHangGraceMs : 0;
        w.outbuf += forwardLine(p, seq);
        w.outbuf += "\n";
    }
    answerDropsLocked(w, drops, out);
    flushOutbufLocked(w);
    maybeFinishRecycleLocked(w);
}

void
Supervisor::answerDropsLocked(Worker &w,
                              const std::vector<AdmissionDrop> &drops,
                              std::vector<Outgoing> &out)
{
    for (const AdmissionDrop &d : drops) {
        auto it = pending_.find(d.id);
        if (it == pending_.end())
            continue;
        Pending &p = it->second;
        if (d.expired) {
            // Its deadline passed while it sat in the queue: answering
            // now beats burning a worker on a result nobody can use.
            const int64_t waitedMs = static_cast<int64_t>(
                (steadyUsF() - p.enqueuedUs) / 1000.0);
            finishLocked(d.id,
                         deadlineExceededResponse(p.req.id, waitedMs),
                         "deadline-exceeded", errors_, out);
        } else {
            // CoDel aged the standing queue's oldest entry out.
            ++obs::counter("serve.shed");
            finishLocked(
                d.id,
                overloadedResponse(
                    p.req.id,
                    jitteredRetryAfterMs(opts_.serve.retryAfterMs),
                    w.admission->depth(), "queue-aged"),
                "queue-aged", shed_, out);
        }
    }
}

void
Supervisor::beginRecycleLocked(Worker &w, const std::string &reason)
{
    if (!w.up || w.recycling)
        return;
    w.recycling = true;
    w.recycleEofSent = false;
    w.recycleReason = reason;
    w.recycleStartedMs = steadyMs();
    ++obs::counter("serve.worker.recycle_started");
    lifecycleEvent(journal_.get(), "recycle_begin", "worker_recycle_begin",
                   {{"shard", w.shard},
                    {"reason", reason},
                    {"inflight", w.inflight.size()}});
    maybeFinishRecycleLocked(w);
}

void
Supervisor::maybeFinishRecycleLocked(Worker &w)
{
    if (!w.up || !w.recycling || w.recycleEofSent)
        return;
    if (!w.inflight.empty() || !w.outbuf.empty())
        return;
    // Half-close: the worker's read loop sees EOF, drains (writing its
    // cache snapshot for the warm restart), and exits 0. Our read side
    // stays open so a heartbeat answer already in the pipe still lands.
    if (w.fd >= 0)
        ::shutdown(w.fd, SHUT_WR);
    w.recycleEofSent = true;
}

void
Supervisor::workerRecycledLocked(Worker &w, std::vector<Outgoing> &out)
{
    const std::string reason = w.recycleReason;
    takeDownLocked(w);
    ++w.recycles;
    ++obs::counter("serve.worker.recycled");
    lifecycleEvent(journal_.get(), "recycle", "worker_recycled",
                   {{"shard", w.shard}, {"reason", reason}});
    w.backoffMs = 0;  // graceful exit: no crash backoff
    w.respawnAtMs = 0;
    if (!draining_.load())
        spawnWorkerLocked(w, out);
}

void
Supervisor::takeDownLocked(Worker &w)
{
    w.up = false;
    ++w.generation;  // invalidate the reader before retiring it
    retireReaderLocked(w);
    w.outbuf.clear();
    w.recycling = false;
    w.recycleEofSent = false;
    w.recycleReason.clear();
    w.recycleStartedMs = 0;
}

void
Supervisor::flushOutbufLocked(Worker &w)
{
    while (!w.outbuf.empty() && w.fd >= 0) {
        ssize_t n =
            ::write(w.fd, w.outbuf.data(), w.outbuf.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;  // kernel buffer full; monitor retries
            // Worker side gone; the reader/reaper handles the death.
            w.outbuf.clear();
            return;
        }
        w.outbuf.erase(0, static_cast<size_t>(n));
    }
}

bool
Supervisor::spawnWorkerLocked(Worker &w, std::vector<Outgoing> &out)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
        warn("serve: socketpair failed: " +
             std::string(std::strerror(errno)));
        w.respawnAtMs = steadyMs() + 1000;
        return false;
    }
    setCloexecNonblock(sv[0]);

    // argv is fully materialized before fork: between fork and exec
    // only async-signal-safe calls are allowed in a multithreaded
    // parent, and that excludes malloc.
    std::vector<std::string> args = opts_.workerCommand;
    args.push_back("--worker-fd");
    args.push_back(std::to_string(sv[1]));
    args.push_back("--shard");
    args.push_back(std::to_string(w.shard));
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        warn("serve: fork failed: " +
             std::string(std::strerror(errno)));
        w.respawnAtMs = steadyMs() + 1000;
        return false;
    }
    if (pid == 0) {
        // Child: everything supervisor-side is CLOEXEC; sv[1] is not
        // and rides through exec as the worker's request pipe.
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    ::close(sv[1]);

    const bool respawn = w.generation > 0;
    w.pid = pid;
    w.fd = sv[0];
    w.up = true;
    ++w.generation;
    w.spawnedAtMs = w.lastBeatMs = w.lastBeatSentMs = steadyMs();
    w.killReason.clear();
    w.served = 0;
    w.rssBytes = 0;
    pidToShard_[pid] = w.shard;
    if (respawn) {
        ++w.respawns;
        ++obs::counter("serve.worker.respawns");
    }
    lifecycleEvent(journal_.get(), "spawn",
                   respawn ? "worker_respawn" : "worker_spawn",
                   {{"shard", w.shard}, {"pid", pid}});

    const int shard = w.shard;
    const int fd = w.fd;
    const uint64_t gen = w.generation;
    w.reader = std::thread(
        [this, shard, fd, gen] { readerLoop(shard, fd, gen); });

    // A respawn inherits the dead worker's queued admissions (crash
    // retries included); forward what fits immediately.
    pumpWorkerLocked(w, out);
    return true;
}

void
Supervisor::readerLoop(int shard, int fd, uint64_t generation)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        pollfd p{fd, POLLIN, 0};
        int rc = ::poll(&p, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0) {
            if (stop_.load())
                break;
            continue;
        }
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        if (n == 0)
            break;  // EOF: worker exited or crashed
        buffer.append(chunk, static_cast<size_t>(n));
        size_t pos;
        while ((pos = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            onWorkerLine(shard, generation, line);
        }
    }

    // EOF while the slot still thinks it's up: the reader is the
    // first to know, so it kicks off the down-handling itself — except
    // during a graceful recycle, where EOF is the *expected* end of a
    // clean exit and the reaper classifies the death instead.
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = *workers_[shard];
        if (w.up && w.generation == generation && !w.recycling)
            handleWorkerDownLocked(w, "eof", out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::onWorkerLine(int shard, uint64_t generation,
                         const std::string &line)
{
    Result<json::Value> parsed = json::parse(line);
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = *workers_[shard];
        if (w.generation != generation)
            return;  // a stale reader must not touch the new worker
        w.lastBeatMs = steadyMs();

        if (!parsed.ok()) {
            ++obs::counter("serve.worker.protocol_errors");
            return;
        }
        json::Value &v = parsed.value();
        const std::string id = v.getString("id");
        if (id == "hb") {
            // The heartbeat is a worker `health` response; besides the
            // liveness timestamp it carries the worker's result-cache
            // counters, which live in the worker process and would
            // otherwise be invisible to the supervisor's registry.
            if (const json::Value *cj = v.get("cache");
                cj && cj->isObject()) {
                for (size_t i = 0; i < w.cache.size(); ++i)
                    w.cache[i] = cj->getInt(kCacheCounterNames[i]);
                publishCacheGaugesLocked();
            }
            // The worker's own memory governor rides the heartbeat: a
            // latched hard watermark is a recycle request — honor it
            // with a graceful recycle, not a SIGKILL.
            if (const json::Value *gj = v.get("governor");
                gj && gj->isObject()) {
                if (gj->getBool("hard_pressure") && !w.recycling)
                    beginRecycleLocked(w, "memory");
            }
            return;
        }
        if (id.empty() || id[0] != 's') {
            ++obs::counter("serve.worker.protocol_errors");
            return;
        }
        const uint64_t seq =
            std::strtoull(id.c_str() + 1, nullptr, 10);
        auto it = pending_.find(seq);
        if (it == pending_.end() || it->second.shard != shard ||
            !it->second.inflight)
            return;  // late answer for a request already resolved

        Pending &p = it->second;
        v.set("id", json::Value::string(p.req.id));
        if (p.retried) {
            v.set("retried", json::Value::boolean(true));
            ++obs::counter("serve.worker.retry_answered");
        }
        const std::string type = v.getString("type", "result");
        std::string outcome = type;
        std::atomic<uint64_t> *ctr = &completed_;
        if (type == "result") {
            outcome = v.getString("status", "ok");
        } else if (type == "error") {
            ctr = &errors_;
        } else if (type == "overloaded") {
            ctr = &shed_;
        } else if (type == "cancelled") {
            ctr = &cancelled_;
        }
        answeredLocked(w, seq, v.dump(), outcome, *ctr, out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::onLocalAnswer(uint64_t seq, const std::string &line,
                          bool result)
{
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        answeredLocked(*workers_[0], seq, line,
                       result ? "result" : "error",
                       result ? completed_ : errors_, out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::answeredLocked(Worker &w, uint64_t seq,
                           const std::string &line,
                           const std::string &outcome,
                           std::atomic<uint64_t> &counter,
                           std::vector<Outgoing> &out)
{
    auto it = pending_.find(seq);
    if (it == pending_.end())
        return;
    const Pending &p = it->second;
    w.inflight.erase(seq);
    // Pure forward-to-answer time (front queue excluded) is what
    // deadline feasibility predicts with, per kind; the controller's
    // drain-rate and fallback EWMA feed from the same sample.
    if (p.forwardedAtUs > 0.0) {
        const double serviceUs = steadyUsF() - p.forwardedAtUs;
        obs::histogram(std::string("serve.service_us.") +
                       requestKindName(p.req.kind))
            .sample(serviceUs);
        w.admission->recordService(static_cast<int64_t>(serviceUs));
    }
    finishLocked(seq, line, outcome, counter, out);
    ++w.served;
    if (opts_.maxRequestsPerWorker > 0 && !w.recycling &&
        w.served >= opts_.maxRequestsPerWorker)
        beginRecycleLocked(w, "max-requests");
    pumpWorkerLocked(w, out);
}

int64_t
Supervisor::estimatedServiceUs(RequestKind kind) const
{
    // p90 of the live per-kind service-time histogram once it has
    // enough samples to mean something; before that the admission
    // controller falls back to its own EWMA (or admits blind).
    const obs::Histogram &h = obs::histogram(
        std::string("serve.service_us.") + requestKindName(kind));
    if (h.count() < 8)
        return 0;
    return static_cast<int64_t>(h.quantile(0.9));
}

void
Supervisor::finishLocked(uint64_t seq, const std::string &line,
                         const std::string &outcome,
                         std::atomic<uint64_t> &counter,
                         std::vector<Outgoing> &out)
{
    auto it = pending_.find(seq);
    if (it == pending_.end())
        return;
    Pending &p = it->second;
    // Whatever path resolved it, release its admission slot (tolerant
    // of still-queued and already-unknown ids alike).
    workers_[p.shard]->admission->finish(seq, steadyUs());
    ++counter;
    if (p.enqueuedUs > 0.0)
        obs::histogram(std::string("serve.latency_us.") +
                       requestKindName(p.req.kind))
            .sample(steadyUsF() - p.enqueuedUs);
    if (journal_)
        journal_->appendDone(seq, outcome);
    out.push_back(Outgoing{p.respond, line});
    pending_.erase(it);
}

void
Supervisor::deliver(std::vector<Outgoing> &out)
{
    // Responses go out after mu_ is released: a slow client write
    // must not stall admission, readers, or the monitor.
    for (Outgoing &o : out) {
        if (o.respond)
            o.respond(o.line);
    }
    out.clear();
}

void
Supervisor::retireReaderLocked(Worker &w)
{
    if (w.fd >= 0)
        ::shutdown(w.fd, SHUT_RDWR);
    if (w.reader.joinable())
        retired_.emplace_back(std::move(w.reader), w.fd);
    else if (w.fd >= 0)
        ::close(w.fd);
    w.fd = -1;
}

void
Supervisor::joinRetired()
{
    std::vector<std::pair<std::thread, int>> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        done.swap(retired_);
    }
    for (auto &[t, fd] : done) {
        if (t.joinable())
            t.join();
        // Closed only after the reader is gone, so the kernel cannot
        // hand the fd number to a new worker while a stale reader
        // could still read from it.
        if (fd >= 0)
            ::close(fd);
    }
}

void
Supervisor::handleWorkerDownLocked(Worker &w, const std::string &why,
                                   std::vector<Outgoing> &out)
{
    if (!w.up)
        return;
    // A recycle that ends here ended *ungracefully* (crash or timeout
    // mid-drain); the take-down clears it so the respawn starts clean.
    takeDownLocked(w);
    // A process still alive (hung, out of recycle grace, or closed its
    // pipe without exiting) would leave the slot unreapable and the
    // shard down forever; make the death real so waitpid sees it.
    if (w.pid > 0)
        ::kill(w.pid, SIGKILL);
    ++w.crashes;
    ++obs::counter("serve.worker.crashes");
    lifecycleEvent(journal_.get(), "crash", "worker_down",
                   {{"shard", w.shard},
                    {"why", why},
                    {"inflight", w.inflight.size()}});

    // Crash fallout: every in-flight request resolves now — either
    // re-enqueued for one retry, or with a structured worker-crashed
    // error. Exactly one terminal response either way.
    std::vector<uint64_t> inflight(w.inflight.begin(),
                                   w.inflight.end());
    w.inflight.clear();
    const int64_t nowSteady = steadyUs();
    for (auto rit = inflight.begin(); rit != inflight.end(); ++rit) {
        const uint64_t seq = *rit;
        auto it = pending_.find(seq);
        if (it == pending_.end())
            continue;
        Pending &p = it->second;
        if (p.replayOk && !p.retried) {
            p.retried = true;
            p.inflight = false;
            p.deadlineAtMs = 0;
            p.forwardedAtUs = 0.0;
            // Release the popped slot, then queue the retry under the
            // same fair-share key for the respawned worker.
            w.admission->finish(seq, nowSteady);
            w.admission->enqueue(seq, p.client, p.priority,
                                 p.admitDeadlineUs, nowSteady);
            ++obs::counter("serve.worker.retries");
            if (journal_)
                journal_->appendEvent(
                    "retry", {{"seq", std::to_string(seq)},
                              {"shard", std::to_string(w.shard)}});
        } else {
            finishLocked(
                seq,
                errorResponse(
                    p.req.id, "serve.worker-crashed",
                    "worker shard " + std::to_string(w.shard) +
                        " died (" + why +
                        ") while running this request"),
                "worker-crashed", errors_, out);
        }
    }

    // Capped exponential backoff before the respawn.
    w.backoffMs = w.backoffMs == 0
                      ? opts_.backoffBaseMs
                      : std::min(opts_.backoffCapMs, w.backoffMs * 2);
    w.respawnAtMs = steadyMs() + w.backoffMs;
}

void
Supervisor::reapLocked(std::vector<Outgoing> &out)
{
    signals::consumeChildEvent();
    int status = 0;
    pid_t pid;
    while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
        auto it = pidToShard_.find(pid);
        if (it == pidToShard_.end())
            continue;
        Worker &w = *workers_[it->second];
        pidToShard_.erase(it);
        w.pid = -1;

        std::string kind =
            !w.killReason.empty() ? w.killReason : crashKind(status);
        w.killReason.clear();
        if (stop_.load())
            continue;
        // A recycling worker that exits 0 did exactly what it was
        // asked: that is a recycle, never a crash.
        if (w.recycling && kind == "exit_0") {
            workerRecycledLocked(w, out);
            continue;
        }
        const bool expected =
            draining_.load() && kind == "exit_0";
        if (!expected)
            ++obs::counter("serve.worker.crash." + kind);
        if (w.up)
            handleWorkerDownLocked(w, kind, out);
    }
}

void
Supervisor::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_.load()) {
        cv_.wait_for(lock, std::chrono::milliseconds(20));
        if (stop_.load())
            break;

        std::vector<Outgoing> out;
        const int64_t now = steadyMs();
        // Summed admission-depth gauges (the per-shard controllers do
        // not publish their own).
        const AdmissionTotals totals = admissionTotalsLocked();
        obs::gauge("serve.admission.queue.interactive")
            .set(static_cast<double>(totals.interactive));
        obs::gauge("serve.admission.queue.batch")
            .set(static_cast<double>(totals.batch));

        if (local_) {
            // pop-time drops — expired and CoDel-aged entries — need a
            // periodic tick even when no new work or answers arrive.
            pumpWorkerLocked(*workers_[0], out);
            lock.unlock();
            deliver(out);
            lock.lock();
            continue;
        }

        reapLocked(out);

        // SIGHUP: queue a rolling restart of every shard. A HUP that
        // lands mid-roll is coalesced into the one already running.
        if (signals::consumeHup() && rollingQueue_.empty() &&
            !draining_.load()) {
            for (auto &wp : workers_)
                rollingQueue_.push_back(wp->shard);
            ++obs::counter("serve.rolling_restarts");
            obs::traceEvent("serve", "rolling_restart_begin",
                            {{"workers", int64_t{opts_.workers}}});
        }
        // Advance the roll only when the fleet is whole again — the
        // previous shard is back up and nothing is mid-recycle — so
        // capacity dips by at most one worker at a time.
        if (!rollingQueue_.empty() && !draining_.load()) {
            bool quiet = true;
            for (auto &wp : workers_)
                if (!wp->up || wp->recycling) {
                    quiet = false;
                    break;
                }
            if (quiet) {
                const int s = rollingQueue_.front();
                rollingQueue_.pop_front();
                beginRecycleLocked(*workers_[s], "sighup");
            }
        }

        // Per-worker RSS via /proc/<pid>/statm, for `worker_table`.
        // The hard watermark is the worker's own governor's to latch;
        // it rides the heartbeat back as a `memory` recycle.
        if (now - lastRssSampleMs_ >= 500) {
            lastRssSampleMs_ = now;
            for (auto &wp : workers_) {
                Worker &w = *wp;
                if (w.up && w.pid > 0) {
                    const uint64_t rss = procstat::rssBytes(w.pid);
                    if (rss > 0)
                        w.rssBytes = rss;
                }
            }
        }

        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up) {
                // pump (not just flush): pop-time drops — expired and
                // CoDel-aged entries — need a periodic tick even when
                // no new work or answers arrive.
                pumpWorkerLocked(w, out);
                if (!w.recycleEofSent &&
                    now - w.lastBeatSentMs >= opts_.heartbeatMs) {
                    w.outbuf += kHeartbeatLine;
                    w.lastBeatSentMs = now;
                    flushOutbufLocked(w);
                }
                if (w.recycling) {
                    // Hang detection is off mid-recycle (after the
                    // half-close we cannot heartbeat); the recycle
                    // grace is the only clock, and blowing it is a
                    // crash, not a recycle.
                    if (now - w.recycleStartedMs > kRecycleGraceMs) {
                        ++obs::counter(
                            "serve.worker.recycle_timeouts");
                        w.killReason = "recycle-timeout";
                        handleWorkerDownLocked(w, "recycle-timeout",
                                               out);
                    }
                    continue;
                }
                bool hung = now - w.lastBeatMs >
                            opts_.heartbeatMs * kHeartbeatMisses;
                for (auto seqIt = w.inflight.begin();
                     !hung && seqIt != w.inflight.end(); ++seqIt) {
                    auto p = pending_.find(*seqIt);
                    hung = p != pending_.end() &&
                           p->second.deadlineAtMs > 0 &&
                           now > p->second.deadlineAtMs;
                }
                if (hung) {
                    ++obs::counter("serve.worker.hangs");
                    w.killReason = "hang";
                    handleWorkerDownLocked(w, "hang", out);
                } else if (w.backoffMs > 0 &&
                           now - w.spawnedAtMs > kStableMs) {
                    w.backoffMs = 0;  // survived: backoff resets
                }
            } else if (w.pid < 0 && !draining_.load() &&
                       w.respawnAtMs > 0 && now >= w.respawnAtMs) {
                w.respawnAtMs = 0;
                spawnWorkerLocked(w, out);
            }
        }

        const bool sync = journal_ && now - lastJournalSyncMs_ >= 500;
        if (sync)
            lastJournalSyncMs_ = now;
        lock.unlock();
        if (sync)
            journal_->sync();
        joinRetired();
        deliver(out);
        lock.lock();
    }
}

void
Supervisor::drain()
{
    std::lock_guard<std::mutex> drainLock(drainMutex_);
    if (drained_.exchange(true))
        return;
    draining_.store(true);
    size_t pending;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pending = pending_.size();
    }
    obs::traceEvent("serve", "drain",
                    {{"pending", static_cast<int64_t>(pending)}});
    cv_.notify_all();

    const int64_t deadline =
        steadyMs() + opts_.serve.drainDeadlineMs;
    std::vector<Outgoing> out;
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!pending_.empty() && steadyMs() < deadline)
            cv_.wait_for(lock, std::chrono::milliseconds(25));

        // Strand whatever the deadline left behind — queued, or
        // in-flight on a wedged worker process — with `cancelled`.
        // In-process work already running finishes and answers with
        // its result.
        std::vector<uint64_t> leftover;
        leftover.reserve(pending_.size());
        for (const auto &[seq, p] : pending_)
            if (!local_ || !p.inflight)
                leftover.push_back(seq);
        for (uint64_t seq : leftover) {
            finishLocked(seq,
                         cancelledResponse(pending_[seq].req.id,
                                           "drain deadline exceeded"),
                         "cancelled", cancelled_, out);
        }
        if (local_)
            workers_[0]->up = false;  // forward nothing more
        else
            for (auto &wp : workers_)
                wp->inflight.clear();
        stop_.store(true);
    }
    deliver(out);
    cv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();

    if (local_) {
        local_->drain();
        writeFinalSnapshot();
        return;
    }

    // Shut the workers down: closing the pipe is the protocol (the
    // worker's read loop sees EOF, drains, exits 0); SIGTERM is the
    // belt for a worker stuck before its read loop.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up)
                takeDownLocked(w);
            if (w.pid > 0)
                ::kill(w.pid, SIGTERM);
        }
    }
    joinRetired();

    // Reap with a bounded wait, then escalate to SIGKILL.
    const int64_t reapDeadline = steadyMs() + 2000;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            reapLocked(out);
            if (pidToShard_.empty())
                break;
            if (steadyMs() >= reapDeadline) {
                for (auto &[pid, shard] : pidToShard_)
                    ::kill(pid, SIGKILL);
            }
        }
        if (steadyMs() >= reapDeadline + 2000)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    if (journal_) {
        journal_->sync();
        if (journal_->depth() != 0) {
            // Every admit should have a done by now; this firing
            // means a response was lost — exactly what the journal
            // exists to catch.
            obs::traceEvent(
                "serve", "journal_nonempty",
                {{"depth",
                  static_cast<int64_t>(journal_->depth())}});
            warn("serve: journal has " +
                 std::to_string(journal_->depth()) +
                 " unanswered admissions after drain");
        }
    }

    writeFinalSnapshot();
}

void
Supervisor::writeFinalSnapshot()
{
    // Stop the periodic writer, then write one final snapshot: stats
    // accumulated since the last interval (or ever, when no interval
    // was set) survive a SIGTERM'd serve.
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        metricsStop_ = true;
    }
    metricsCv_.notify_all();
    if (metricsThread_.joinable())
        metricsThread_.join();
    writeMetricsSnapshotNow();
    {
        std::lock_guard<std::mutex> lock(metricsFileMutex_);
        metricsOut_.reset();
    }
    obs::flushTrace();
}

void
Supervisor::metricsLoop()
{
    std::unique_lock<std::mutex> lock(metricsMutex_);
    while (!metricsStop_) {
        metricsCv_.wait_for(
            lock,
            std::chrono::milliseconds(opts_.serve.metricsIntervalMs),
            [this] { return metricsStop_; });
        if (metricsStop_)
            break;
        lock.unlock();
        writeMetricsSnapshotNow();
        lock.lock();
    }
}

void
Supervisor::writeMetricsSnapshotNow()
{
    std::lock_guard<std::mutex> lock(metricsFileMutex_);
    if (!metricsOut_)
        return;
    obs::writeMetricsSnapshot(obs::statsRegistry(), *metricsOut_, wallMs(),
                              statusMembers(StatusDoc::Snapshot, ""));
}

RequestCounters
Supervisor::requestCounters() const
{
    RequestCounters c;
    c.received = received_.load();
    c.accepted = accepted_.load();
    c.completed = completed_.load();
    c.shed = shed_.load();
    c.cancelled = cancelled_.load();
    c.errors = errors_.load();
    return c;
}

Supervisor::AdmissionTotals
Supervisor::admissionTotalsLocked() const
{
    AdmissionTotals t;
    for (const auto &wp : workers_) {
        t.queued += wp->admission->depth();
        t.interactive += wp->admission->depth(Priority::Interactive);
        t.batch += wp->admission->depth(Priority::Batch);
        t.inflight += wp->inflight.size();
        t.recycles += wp->recycles;
    }
    return t;
}

size_t
Supervisor::queueCapacity() const
{
    return opts_.serve.queueCapacity *
           static_cast<size_t>(opts_.workers);
}

std::vector<WorkerRow>
Supervisor::workerRows() const
{
    std::vector<WorkerRow> rows;
    const int64_t now = steadyMs();
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(workers_.size());
    for (const auto &wp : workers_) {
        const Worker &w = *wp;
        WorkerRow r;
        r.shard = w.shard;
        r.pid = w.pid;
        r.state = !w.up ? "down" : (w.recycling ? "recycling" : "up");
        r.inflight = w.inflight.size();
        r.queued = w.admission->depth();
        r.respawns = w.respawns;
        r.crashes = w.crashes;
        r.recycles = w.recycles;
        r.served = w.served;
        r.rssBytes = w.rssBytes;
        r.heartbeatAgeMs = w.up ? now - w.lastBeatMs : -1;
        rows.push_back(r);
    }
    return rows;
}

void
Supervisor::publishCacheGaugesLocked()
{
    // Sums across shard workers, mirrored into supervisor gauges so
    // `memoria top` and the metrics snapshots see serve.cache.* from
    // the front process. Counters in the workers, gauges here: a
    // respawned worker restarts its counters, and a gauge can move
    // backwards without lying.
    for (size_t i = 0; i < std::size(kCacheCounterNames); ++i) {
        uint64_t sum = 0;
        for (const auto &wp : workers_)
            sum += wp->cache[i];
        obs::gauge(std::string("serve.cache.") + kCacheCounterNames[i])
            .set(static_cast<double>(sum));
    }
}

std::string
Supervisor::workersDump() const
{
    json::Value arr = json::Value::array();
    for (const WorkerRow &r : workerRows()) {
        json::Value o = json::Value::object();
        o.set("shard", json::Value::number(int64_t{r.shard}));
        o.set("pid", json::Value::number(r.pid));
        o.set("state", json::Value::string(r.state));
        o.set("inflight",
              json::Value::number(static_cast<int64_t>(r.inflight)));
        o.set("queued",
              json::Value::number(static_cast<int64_t>(r.queued)));
        o.set("respawns",
              json::Value::number(static_cast<int64_t>(r.respawns)));
        o.set("crashes",
              json::Value::number(static_cast<int64_t>(r.crashes)));
        o.set("recycles",
              json::Value::number(static_cast<int64_t>(r.recycles)));
        o.set("served",
              json::Value::number(static_cast<int64_t>(r.served)));
        o.set("rss_bytes",
              json::Value::number(static_cast<int64_t>(r.rssBytes)));
        o.set("heartbeat_age_ms",
              json::Value::number(r.heartbeatAgeMs));
        arr.push(std::move(o));
    }
    return arr.dump();
}

std::pair<std::string, std::string>
Supervisor::shardsBlock() const
{
    if (local_)
        return {"breakers", local_->breakersJson().dump()};
    return {"workers", workersDump()};
}

Supervisor::Members
Supervisor::statusMembers(StatusDoc doc, const std::string &id) const
{
    AdmissionTotals t;
    {
        std::lock_guard<std::mutex> lock(mu_);
        t = admissionTotalsLocked();
    }
    const auto num = [](auto v) { return std::to_string(v); };
    const std::string uptime = num(steadyMs() - startedAtMs_);
    const std::string depth = num(t.queued);
    const std::string capacity = num(queueCapacity());
    const std::string draining = draining_.load() ? "true" : "false";

    switch (doc) {
      case StatusDoc::Snapshot:
        return {{"queue_depth", depth},
                {"queue_capacity", capacity},
                {"uptime_ms", uptime},
                {"draining", draining},
                shardsBlock()};
      case StatusDoc::Stats:
        return {{"id", json::quote(id)},
                {"type", "\"stats\""},
                shardsBlock(),
                {"registry", registryDumpJson()}};
      case StatusDoc::Metrics:
        return {{"id", json::quote(id)},
                {"type", "\"metrics\""},
                {"ts_ms", num(wallMs())},
                {"uptime_ms", uptime},
                {"queue_depth", depth},
                {"queue_capacity", capacity},
                {"draining", draining},
                shardsBlock(),
                {"registry", registryDumpJson()},
                {"exposition", json::quote(obs::prometheusText())}};
      case StatusDoc::Health:
        break;
    }

    const RequestCounters c = requestCounters();
    Members m = {
        {"id", json::quote(id)},
        {"type", "\"health\""},
        {"status", json::quote(draining_.load() ? "draining" : "ok")},
        {"version", json::quote(versionLine())},
        {"uptime_ms", uptime},
        local_ ? Members::value_type{"jobs",
                                     num(std::max(1, opts_.serve.jobs))}
               : Members::value_type{"workers", num(opts_.workers)},
        {"queue_depth", depth},
        {"queue_capacity", capacity},
        {"requests", objectText({{"received", num(c.received)},
                                 {"accepted", num(c.accepted)},
                                 {"completed", num(c.completed)},
                                 {"shed", num(c.shed)},
                                 {"cancelled", num(c.cancelled)},
                                 {"errors", num(c.errors)}})},
        // The overload soak's (and `memoria top`'s) one-stop view.
        {"admission", objectText({{"queued_interactive", num(t.interactive)},
                                  {"queued_batch", num(t.batch)},
                                  {"inflight", num(t.inflight)},
                                  {"recycles", num(t.recycles)}})}};

    // The in-process shard's breakers, governor and result cache.
    if (local_) {
        json::Value blocks = json::Value::object();
        local_->describe(blocks);
        for (const json::Member &b : blocks.members())
            m.emplace_back(b.first, b.second.dump());
    }

    // Admitted-but-unanswered requests found by the journal replay at
    // construction: what the previous incarnation owed its clients.
    if (!recovery_.empty()) {
        json::Value arr = json::Value::array();
        constexpr size_t kMaxListed = 16;
        for (size_t i = 0; i < recovery_.size() && i < kMaxListed; ++i) {
            const JournalEntry &e = recovery_[i];
            json::Value o = json::Value::object();
            o.set("seq",
                  json::Value::number(static_cast<int64_t>(e.seq)));
            o.set("id", json::Value::string(e.id));
            o.set("kind", json::Value::string(e.kind));
            o.set("shard", json::Value::number(int64_t{e.shard}));
            arr.push(std::move(o));
        }
        m.emplace_back("recovery",
                       objectText({{"journal_replayed", "true"},
                                   {"unanswered", num(recovery_.size())},
                                   {"entries", arr.dump()}}));
    }
    if (!local_)
        m.emplace_back("worker_table", workersDump());
    return m;
}

std::string
Supervisor::statusLine(StatusDoc doc, const std::string &id) const
{
    return objectText(statusMembers(doc, id));
}

} // namespace serve
} // namespace memoria
