#ifndef MEMORIA_SERVE_SUPERVISOR_HH
#define MEMORIA_SERVE_SUPERVISOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/batch.hh"
#include "harness/incident.hh"
#include "serve/admission.hh"
#include "serve/breaker.hh"
#include "serve/cache.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"

namespace memoria {
namespace serve {

/** Service configuration. */
struct ServeOptions
{
    /** Executor threads per shard; also the shard's in-flight bound. */
    int jobs = 2;

    /** Admission-queue bound per shard (queued, not in flight);
     *  beyond it requests are shed `queue-full`. */
    size_t queueCapacity = 16;

    /** Suggested client backoff in `overloaded` responses. */
    int64_t retryAfterMs = 50;

    /** Per-client queued + in-flight cap (0 = off); excess sheds
     *  `client-capped` so one flooding client degrades only itself. */
    size_t perClientCap = 0;

    /** CoDel-style aging target for the oldest queued request, ms
     *  (0 = off): standing queues drop stale work, not new arrivals. */
    int64_t ageTargetMs = 0;

    /** Memory-governor watermarks (bytes, 0 = off): soft shrinks the
     *  result cache and floors the ladder at a cheaper rung; hard
     *  asks the supervisor for a graceful recycle. */
    uint64_t rssSoftBytes = 0;
    uint64_t rssHardBytes = 0;
    int64_t rssSampleMs = 200;

    /** Default per-request budget (requests may lower, never raise
     *  past maxDeadlineMs). */
    harness::Budget budget{2000, 1u << 20, 50u << 20};

    /** Clamp for client-supplied deadline_ms. */
    int64_t maxDeadlineMs = 30000;

    /** After drain starts, queued requests still unstarted past this
     *  deadline are answered `cancelled` instead of run. */
    int64_t drainDeadlineMs = 5000;

    /** Request-line size bound. */
    size_t maxRequestBytes = 4u << 20;

    /** Honor the per-request "fault" injection hook (tests/soak). */
    bool allowFaultRequests = false;

    /** Minimize failures into incident bundles. */
    bool writeIncidents = true;
    incident::IncidentPolicy incidents;

    /**
     * Append JSONL metrics snapshots (support/export.hh) to this path.
     * With metricsIntervalMs > 0 a background thread writes one every
     * interval; independent of the interval, `drain()` writes a final
     * snapshot — so a SIGTERM'd serve never loses its stats.
     */
    std::string metricsPath;
    int64_t metricsIntervalMs = 0;

    BreakerOptions breaker;
    ModelParams params;

    /** Cache geometries the simulate stage sweeps — all fed from one
     *  interpreter pass per program version (cachesim/sweep.hh).
     *  Empty means the batch driver's default (i860). */
    std::vector<CacheConfig> cacheConfigs;

    /** Result-cache bounds (resultCache.maxEntries == 0 disables the
     *  cache and single-flight dedup entirely). */
    CacheOptions resultCache;

    /**
     * Durable cache snapshots (serve/snapshot.hh): written here
     * periodically and on drain, loaded (after validation) at start.
     * Empty disables durability; the in-memory cache still works.
     */
    std::string cacheSnapshotPath;
    int64_t cacheSnapshotIntervalMs = 0;  ///< 0 = only on drain

    /** Shard index stamped into snapshot headers (-1 single-process). */
    int shard = -1;
};

/**
 * What a transport needs from the thing it feeds lines to: the front
 * (`Supervisor`, and the single-process `Server` built on it), so
 * runStdio/runListener serve either mode without knowing which.
 */
class LineService
{
  public:
    /** Delivers one response line (no trailing newline) to the
     *  request's client. Must be thread-safe; workers call it. */
    using Respond = std::function<void(const std::string &)>;

    virtual ~LineService() = default;

    /** Bring the service up (executor threads / worker processes). */
    virtual void start() = 0;

    /**
     * Handle one request line. Blank lines are ignored; everything
     * else gets exactly one terminal response through `respond`,
     * either inline (parse errors, health/stats, shed, draining) or
     * later from a shard. `clientKey` identifies the transport
     * connection for fair-share queuing when the request carries no
     * `client_id` of its own ("" = anonymous).
     */
    virtual void handleLine(const std::string &line,
                            const Respond &respond,
                            const std::string &clientKey = "") = 0;

    /**
     * Graceful shutdown: stop admitting, finish in-flight work,
     * cancel what the drain deadline strands, flush observability
     * sinks. Idempotent.
     */
    virtual void drain() = 0;

    virtual bool draining() const = 0;
};

/** Terminal-response counters (health responses and tests). */
struct RequestCounters
{
    uint64_t received = 0;   ///< lines that parsed as requests
    uint64_t accepted = 0;   ///< admitted to the queue
    uint64_t completed = 0;  ///< answered with `result`
    uint64_t shed = 0;       ///< answered with `overloaded`
    uint64_t cancelled = 0;  ///< answered with `cancelled`
    uint64_t errors = 0;     ///< answered with `error`
};

class Executor;

/** Supervisor configuration. */
struct SupervisorOptions
{
    /** Shard-worker process count (>= 1). */
    int workers = 2;

    /**
     * argv prefix for a worker process, e.g. {"/path/memoria",
     * "serve", "--jobs", "2"}; the supervisor appends
     * `--worker-fd N --shard K`. Must not be empty.
     */
    std::vector<std::string> workerCommand;

    /** Service limits (deadlines, per-shard queue bound, request
     *  size; also the source of the metrics snapshot path). */
    ServeOptions serve;

    /** Heartbeat cadence and how many misses mean "hung". */
    int64_t heartbeatMs = 500;
    int heartbeatMisses = 6;

    /** Extra time past a request's deadline before the worker running
     *  it is declared hung and killed. */
    int64_t hangGraceMs = 5000;

    /** Respawn backoff: base, doubling cap, and how long a worker
     *  must stay up before the backoff resets. */
    int64_t backoffBaseMs = 100;
    int64_t backoffCapMs = 5000;
    int64_t stableMs = 10000;

    /** Gracefully recycle a worker after it has answered this many
     *  work requests (0 = never). Bounds slow leaks by construction. */
    uint64_t maxRequestsPerWorker = 0;

    /** How long a recycling worker gets to drain and exit before the
     *  supervisor gives up and SIGKILLs it (counted as a crash). */
    int64_t recycleGraceMs = 10000;

    /** Write-ahead journal path ("" = no journal). */
    std::string journalPath;
    JournalOptions journal;
};

/** Introspection row for one shard worker (health/metrics/top). */
struct WorkerRow
{
    int shard = 0;
    int64_t pid = -1;
    std::string state;  ///< "up" | "recycling" | "down"
    uint64_t inflight = 0;
    uint64_t queued = 0;
    uint64_t respawns = 0;
    uint64_t crashes = 0;
    uint64_t recycles = 0;
    uint64_t served = 0;          ///< answered since last (re)spawn
    uint64_t rssBytes = 0;        ///< last statm sample (0 = unknown)
    int64_t heartbeatAgeMs = -1;  ///< -1 while down
};

/** The front. Construct, `start()`, feed lines, `drain()`. */
class Supervisor : public LineService
{
  public:
    using Respond = LineService::Respond;

    /** A front over `opts.workers` shard-worker processes. */
    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor() override;

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Start the shards (in-process executor or worker processes)
     *  and the monitor thread. */
    void start() override;

    void handleLine(const std::string &line, const Respond &respond,
                    const std::string &clientKey = "") override;

    /** Stop admitting, wait for forwarded work (bounded by
     *  drainDeadlineMs), shut the shards down, reap, flush. */
    void drain() override;

    bool draining() const override { return draining_.load(); }

    // --- Introspection (tests, health/metrics responses) ---

    /** The shard the consistent hash assigns this program text. */
    int shardOf(const std::string &program) const;

    RequestCounters requestCounters() const;
    /** Queued (admitted, not yet forwarded) requests, all shards. */
    size_t queueDepth() const;
    std::vector<WorkerRow> workerRows() const;

    std::string healthLine(const std::string &id) const;
    std::string statsLine(const std::string &id) const;
    std::string metricsLine(const std::string &id) const;

    /** The journal, when one is configured (tests inspect depth). */
    Journal *journal() { return journal_.get(); }

  protected:
    /** A front over one in-process shard run by `local` (the
     *  single-process `Server`). */
    Supervisor(SupervisorOptions opts, std::unique_ptr<Executor> local);

    Executor &local() const { return *local_; }

  private:
    /** One admitted work request awaiting its terminal response. */
    struct Pending
    {
        Request req;
        Respond respond;
        int shard = 0;
        bool replayOk = false;   ///< eligible for one crash-retry
        bool retried = false;    ///< crash-retry already spent
        bool inflight = false;   ///< forwarded (vs still queued)
        double enqueuedUs = 0.0;
        double forwardedAtUs = 0.0;  ///< service-time sample start
        int64_t deadlineAtMs = 0;  ///< hang cutoff once forwarded
        /** Fair-share identity + class, resolved at admission (the
         *  crash-retry path re-enqueues under the same key). */
        std::string client;
        Priority priority = Priority::Interactive;
        int64_t admitDeadlineUs = 0;  ///< steady-clock µs, 0 = none
    };

    /** Last-heartbeat view of one worker's result-cache counters. */
    struct WorkerCacheStats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inflightJoins = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t snapshotRejected = 0;
        uint64_t snapshotLoaded = 0;
    };

    /** One shard worker slot. */
    struct Worker
    {
        int shard = 0;
        pid_t pid = -1;
        int fd = -1;               ///< supervisor side, non-blocking
        bool up = false;
        uint64_t generation = 0;   ///< bumps per (re)spawn
        std::thread reader;
        std::string outbuf;        ///< unwritten forwarded bytes
        /** Per-shard queue order and fair-share policy; payloads stay
         *  in pending_. Survives the worker process across respawns.
         *  The front's only admission point. */
        std::unique_ptr<AdmissionController> admission;
        std::set<uint64_t> inflight;
        uint64_t respawns = 0;
        uint64_t crashes = 0;
        int64_t spawnedAtMs = 0;
        int64_t lastBeatMs = 0;    ///< any line from the worker
        int64_t lastBeatSentMs = 0;
        int64_t backoffMs = 0;
        int64_t respawnAtMs = 0;
        std::string killReason;    ///< "hang" when we SIGKILLed it
        WorkerCacheStats cache;    ///< from the last heartbeat answer

        // --- Graceful-recycle state ---
        bool recycling = false;    ///< no new work; draining to exit
        bool recycleEofSent = false;  ///< SHUT_WR done; awaiting exit
        std::string recycleReason;    ///< max-requests | rss | sighup
        int64_t recycleStartedMs = 0;
        uint64_t served = 0;       ///< answered since last (re)spawn
        uint64_t recycles = 0;     ///< graceful recycles completed
        uint64_t rssBytes = 0;     ///< last statm sample (0 = unknown)
    };

    struct Outgoing
    {
        Respond respond;
        std::string line;
    };

    void monitorLoop();
    void metricsLoop();
    void writeMetricsSnapshotNow();
    /** Stop the metrics writer, write the final snapshot, flush the
     *  trace sink (the last step of drain). */
    void writeFinalSnapshot();

    bool spawnWorkerLocked(Worker &w, std::vector<Outgoing> &out);
    /** Forward queued work to the shard up to its `jobs` bound. */
    void pumpWorkerLocked(Worker &w, std::vector<Outgoing> &out);
    void flushOutbufLocked(Worker &w);

    /** Answer entries the shard controller dropped at pop time:
     *  deadline-exceeded (expired in queue) or overloaded/queue-aged. */
    void answerDropsLocked(Worker &w,
                           const std::vector<AdmissionDrop> &drops,
                           std::vector<Outgoing> &out);

    /** Start a graceful recycle: stop forwarding, drain in-flight,
     *  then EOF the pipe so the worker exits 0 (zero requests lost). */
    void beginRecycleLocked(Worker &w, const std::string &reason);
    /** Send the pipe EOF once a recycling worker has gone quiet. */
    void maybeFinishRecycleLocked(Worker &w);
    /** A recycling worker exited 0: count it, journal it, respawn
     *  immediately with no backoff. */
    void workerRecycledLocked(Worker &w, std::vector<Outgoing> &out);
    /** Forwarded line for one attempt (id rewritten, fault stripped
     *  on retry). */
    std::string forwardLine(const Pending &p, uint64_t seq) const;

    void readerLoop(int shard, int fd, uint64_t generation);
    void onWorkerLine(int shard, uint64_t generation,
                      const std::string &line);
    /** The in-process executor answered forwarded request `seq`. */
    void onLocalAnswer(uint64_t seq, const std::string &line,
                       bool result);
    /** A shard answered in-flight request `seq`: feed the service-time
     *  estimate, resolve it, forward more. */
    void answeredLocked(Worker &w, uint64_t seq, const std::string &line,
                        const std::string &outcome,
                        std::atomic<uint64_t> &counter,
                        std::vector<Outgoing> &out);

    /** Crash/hang/EOF fallout: retry or answer every in-flight
     *  request of the dead worker, schedule the respawn. */
    void handleWorkerDownLocked(Worker &w, const std::string &why,
                                std::vector<Outgoing> &out);
    void reapLocked(std::vector<Outgoing> &out);

    /** Resolve one pending: respond `line`, count it, journal the
     *  outcome. The caller removes the seq from worker containers. */
    void finishLocked(uint64_t seq, const std::string &line,
                      const std::string &outcome,
                      std::atomic<uint64_t> &counter,
                      std::vector<Outgoing> &out);
    static void deliver(std::vector<Outgoing> &out);

    /** Park a dead worker's reader thread + fd; `joinRetired` joins
     *  the threads and only then closes the fds (no reuse races). */
    void retireReaderLocked(Worker &w);
    void joinRetired();

    int64_t effectiveDeadlineMs(const Request &req) const;
    /** p90 of the front's per-kind service-time histogram (µs; 0 = no
     *  signal yet, and admission falls back to its EWMA). */
    int64_t estimatedServiceUs(RequestKind kind) const;
    size_t queueCapacity() const;
    /** The `workers` array, dumped ("[{...},...]"). */
    std::string workersDump() const;
    /** The mode-specific block of stats/metrics/snapshots: `breakers`
     *  for the in-process shard, `workers` for process shards. */
    std::pair<std::string, std::string> shardsBlock() const;
    /** Mirror summed worker cache counters into serve.cache.* gauges. */
    void publishCacheGaugesLocked();

    SupervisorOptions opts_;
    /** The in-process shard's executor (null with worker processes). */
    std::unique_ptr<Executor> local_;
    std::unique_ptr<Journal> journal_;

    /** Admitted-but-unanswered entries replayed from the previous
     *  incarnation's journal (constructor; immutable afterwards). */
    std::vector<JournalEntry> recovery_;

    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< pending-set changes + ticks
    std::vector<std::unique_ptr<Worker>> workers_;
    std::map<uint64_t, Pending> pending_;
    std::map<pid_t, int> pidToShard_;
    std::vector<std::pair<std::thread, int>> retired_;
    uint64_t seq_ = 0;
    std::atomic<bool> stop_{false};
    int64_t lastJournalSyncMs_ = 0;

    /** SIGHUP rolling restart: shards still awaiting their turn. The
     *  next one starts only when every worker is up and none is
     *  recycling, so capacity dips by at most one shard. */
    std::deque<int> rollingQueue_;
    int64_t lastRssSampleMs_ = 0;

    std::thread monitor_;
    /** Serializes drain(); the loser of a drain race blocks until the
     *  winner has fully shut the workers down. */
    std::mutex drainMutex_;
    std::atomic<bool> draining_{false};
    std::atomic<bool> drained_{false};
    std::atomic<bool> started_{false};
    int64_t startedAtMs_ = 0;

    std::thread metricsThread_;
    std::mutex metricsMutex_;
    std::condition_variable metricsCv_;
    bool metricsStop_ = false;
    std::unique_ptr<std::ofstream> metricsOut_;
    std::mutex metricsFileMutex_;

    std::atomic<uint64_t> received_{0}, accepted_{0}, completed_{0},
        shed_{0}, cancelled_{0}, errors_{0};
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_SUPERVISOR_HH
