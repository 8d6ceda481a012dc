/**
 * @file
 * The long-running compile service behind `memoria serve`: the
 * executor that runs requests, and the single-process `Server`.
 *
 * An `Executor` is one shard's worker pool. It runs what the front
 * (serve/supervisor.hh) hands it, in arrival order, on `jobs` threads;
 * the front never hands it more than `jobs` requests at a time, so the
 * executor has no admission, fair share, or deadline shedding of its
 * own. Per request it keeps:
 *
 *  - the full isolation boundary (`harness::runIsolated`): fault-
 *    attribution context, per-request budget deadline, degradation
 *    ladder, crash containment;
 *  - per-stage circuit breakers (serve/breaker.hh) observing panic/
 *    timeout outcomes. An open `load` breaker rejects requests with an
 *    `error`; open `optimize`/`simulate` breakers degrade service
 *    (identity rung / no simulation) instead of failing it;
 *  - the content-addressed result cache with single-flight dedup and
 *    its durable snapshots (serve/cache.hh, serve/snapshot.hh);
 *  - the memory governor's rung floor (serve/governor.hh);
 *  - incident bundles for panic and timeout outcomes
 *    (harness/incident.hh), whose path rides in the response.
 *
 * A `Server` is the front with one in-process shard backed by an
 * executor; a shard-worker process (`memoria serve --worker-fd F`,
 * serve/listener.hh) is an executor behind a socketpair. Either way
 * admission happens once, in the front.
 *
 * The graceful-shutdown story: transports watch `signals::
 * drainRequested()` (SIGTERM/SIGINT), stop reading, and call `drain()`
 * — so a TERM'd server exits 0 with every accepted request answered.
 */

#ifndef MEMORIA_SERVE_SERVER_HH
#define MEMORIA_SERVE_SERVER_HH

#include "serve/governor.hh"
#include "serve/supervisor.hh"
#include "support/json.hh"

namespace memoria {
namespace serve {

/** One shard's request runner. Construct, `start()`, `submit()`,
 *  `drain()`. */
class Executor
{
  public:
    /** Delivers a request's one response line; `result` says whether
     *  it is a `result` (else an `error`). Called on a pool thread. */
    using Answer =
        std::function<void(const std::string &line, bool result)>;

    explicit Executor(ServeOptions opts);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Spawn the pool; load the cache snapshot; start the governor. */
    void start();

    /** Queue one request. `enqueuedUs` is when its wait began (steady
     *  µs; 0 = now), the origin of the response's `queue_us`. */
    void submit(Request req, double enqueuedUs, Answer answer);

    /** Run everything submitted to completion, join the pool, write
     *  the cache snapshot, stop the governor. Idempotent. */
    void drain();

    const ServeOptions &options() const { return opts_; }
    CircuitBreaker &breaker(Stage s) { return *breakers_[int(s)]; }

    /** Result-cache counters (zeroed stats when the cache is off). */
    ResultCacheStats cacheStats() const;

    /** Breaker snapshots, keyed by stage name. */
    json::Value breakersJson() const;

    /** Add the `breakers`, `governor` and `cache` blocks to a `health`
     *  answer (the supervisor reads the last two from heartbeats). */
    void describe(json::Value &health) const;

  private:
    struct Job
    {
        Request req;
        Answer answer;
        double enqueuedUs = 0.0;
    };

    void workerLoop();
    void process(const Job &job);
    void governorLoop();
    void snapshotLoop();
    void writeCacheSnapshotNow();
    void loadCacheSnapshot();
    void respondCached(const Job &job, const std::string &body,
                       double startUs, double queueUs,
                       const std::string &traceId, bool dedupFollower);

    ServeOptions opts_;
    std::unique_ptr<CircuitBreaker> breakers_[kNumStages];

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
    std::mutex drainMutex_;
    bool drained_ = false;

    /** Serializes fault-armed execution and incident reduction (both
     *  manipulate the process-global fault plan). */
    std::mutex faultMutex_;

    std::atomic<uint64_t> seq_{0};

    /** Content-addressed result cache (null when disabled). */
    std::unique_ptr<ResultCache> cache_;
    std::string configDigest_;

    /** Periodic cache-snapshot writer (opts_.cacheSnapshotPath). */
    std::thread snapshotThread_;
    std::mutex snapshotMutex_;
    std::condition_variable snapshotCv_;
    bool snapshotStop_ = false;
    /** Set on ENOSPC: durability is off, serving continues. */
    std::atomic<bool> snapshotDisabled_{false};

    /** RSS watermarks (null unless configured) + sampling thread. */
    std::unique_ptr<MemoryGovernor> governor_;
    std::thread governorThread_;
    std::mutex governorMutex_;
    std::condition_variable governorCv_;
    bool governorStop_ = false;
};

/** Single-process serve: the front with one in-process shard.
 *  Construct, `start()`, feed lines, `drain()`. */
class Server : public Supervisor
{
  public:
    explicit Server(ServeOptions opts);

    CircuitBreaker &breaker(Stage s) { return local().breaker(s); }

    /** Result-cache counters (zeroed stats when the cache is off). */
    ResultCacheStats cacheStats() const { return local().cacheStats(); }
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_SERVER_HH
