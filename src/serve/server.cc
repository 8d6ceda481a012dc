#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "harness/fault.hh"
#include "serve/snapshot.hh"
#include "support/clock.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

json::Value
breakerJson(const CircuitBreaker::Snapshot &s)
{
    json::Value b = json::Value::object();
    b.set("state",
          json::Value::string(CircuitBreaker::stateName(s.state)));
    b.set("consecutive_failures",
          json::Value::number(int64_t{s.consecutiveFailures}));
    b.set("failures",
          json::Value::number(static_cast<int64_t>(s.failures)));
    b.set("successes",
          json::Value::number(static_cast<int64_t>(s.successes)));
    b.set("trips", json::Value::number(static_cast<int64_t>(s.trips)));
    b.set("resets", json::Value::number(static_cast<int64_t>(s.resets)));
    b.set("rejected",
          json::Value::number(static_cast<int64_t>(s.rejected)));
    if (!s.lastFailure.empty())
        b.set("last_failure", json::Value::string(s.lastFailure));
    return b;
}

/**
 * Fires between fault arming and the isolated run — a hard `abort`
 * armed here kills the whole worker process, which is exactly the
 * point: it proves the supervisor's crash-respawn path end to end
 * (tests and the chaos soak arm `serve.worker.crash:abort`). In
 * single-process serve nothing ever arms it.
 */
harness::FaultSite gWorkerCrashSite("serve.worker.crash");

/**
 * Fires on the single-flight leader after election, before it
 * computes. An armed `throw` makes the leader die with its followers
 * still waiting — proving they re-elect instead of hanging (the
 * whole point of the abandon/re-elect protocol). Unarmed cost: one
 * relaxed atomic load per led flight.
 */
harness::FaultSite gLeaderCrashSite("serve.cache.leader-crash");

/** Abandons a led flight on any exit path that did not publish —
 *  without it, a throwing leader would strand its followers until
 *  their own deadlines. */
struct FlightGuard
{
    ResultCache *cache = nullptr;
    const ResultCache::Ticket *ticket = nullptr;
    bool armed = false;

    ~FlightGuard()
    {
        if (armed && cache)
            cache->abandon(*ticket);
    }
};

/** The front's options for one in-process shard. */
SupervisorOptions
inProcessOptions(ServeOptions opts)
{
    SupervisorOptions o;
    o.workers = 1;
    o.serve = std::move(opts);
    return o;
}

} // namespace

Server::Server(ServeOptions opts)
    : Supervisor(inProcessOptions(opts),
                 std::make_unique<Executor>(opts))
{
}

Executor::Executor(ServeOptions opts) : opts_(std::move(opts))
{
    for (int i = 0; i < kNumStages; ++i)
        breakers_[i] = std::make_unique<CircuitBreaker>(
            stageName(Stage(i)), opts_.breaker);

    // The digest covers the *effective* simulation geometry: an empty
    // cacheConfigs means the batch driver's default (i860), and the
    // key must not change depending on how the default was spelled.
    std::vector<CacheConfig> effective = opts_.cacheConfigs;
    if (effective.empty())
        effective.push_back(CacheConfig::i860());
    configDigest_ = serveConfigDigest(opts_.params, effective);
    if (opts_.resultCache.maxEntries > 0)
        cache_ = std::make_unique<ResultCache>(opts_.resultCache);

    if (opts_.rssSoftBytes > 0 || opts_.rssHardBytes > 0) {
        GovernorOptions gopts;
        gopts.softBytes = opts_.rssSoftBytes;
        gopts.hardBytes = opts_.rssHardBytes;
        governor_ =
            std::make_unique<MemoryGovernor>(gopts, cache_.get());
    }
}

Executor::~Executor()
{
    drain();
}

void
Executor::start()
{
    harness::setFaultAccounting(true);
    const int jobs = std::max(1, opts_.jobs);
    workers_.reserve(jobs);
    for (int i = 0; i < jobs; ++i)
        workers_.emplace_back([this] { workerLoop(); });

    if (cache_ && !opts_.cacheSnapshotPath.empty()) {
        loadCacheSnapshot();
        if (opts_.cacheSnapshotIntervalMs > 0)
            snapshotThread_ = std::thread([this] { snapshotLoop(); });
    }

    if (governor_ && governor_->enabled())
        governorThread_ = std::thread([this] { governorLoop(); });
}

void
Executor::submit(Request req, double enqueuedUs, Answer answer)
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        queue_.push_back(Job{std::move(req), std::move(answer),
                             enqueuedUs > 0.0 ? enqueuedUs : steadyUsF()});
    }
    queueCv_.notify_one();
}

void
Executor::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock,
                          [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping, and everything submitted ran
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            process(job);
        } catch (...) {
            // process() contains everything below it; this is the
            // belt-and-braces boundary for bugs in serve itself.
            try {
                job.answer(errorResponse(
                               job.req.id, "serve.internal",
                               "request processing failed unexpectedly"),
                           false);
            } catch (...) {
                // A throwing transport callback has lost its client;
                // nothing useful left to do for this request.
            }
        }
    }
}

void
Executor::process(const Job &job)
{
    const Request &req = job.req;
    const double startUs = steadyUsF();
    const double queueUs =
        job.enqueuedUs > 0.0 ? startUs - job.enqueuedUs : 0.0;

    // Request-scoped trace context for everything this worker does on
    // behalf of the request — runIsolated and all nested spans inherit
    // it, and incident capture keys the flight-recorder tail off it.
    const std::string traceId =
        req.traceId.empty() ? obs::makeTraceId() : req.traceId;
    obs::TraceContextScope traceCtx(traceId);

    obs::TraceScope span("serve", "request");
    span.arg("id", req.id);
    span.arg("kind", requestKindName(req.kind));
    obs::ScopedTimer timer(obs::histogram("serve.request_time_us"));

    harness::BatchOptions bopts;
    bopts.budget = opts_.budget;
    if (req.deadlineMs > 0)
        bopts.budget.deadlineMs =
            std::min(req.deadlineMs, opts_.maxDeadlineMs);
    bopts.params = opts_.params;
    if (!opts_.cacheConfigs.empty())
        bopts.cacheConfigs = opts_.cacheConfigs;
    bopts.simulate =
        req.simulate.value_or(req.kind == RequestKind::Simulate);
    if (req.kind == RequestKind::Analyze) {
        bopts.simulate = false;
        bopts.startRung = harness::Rung::Identity;
    }
    bopts.captureSource = opts_.writeIncidents;

    // --- Breaker gating. Load is checked first and alone, so an
    // early reject cannot strand a half-open probe on another stage.
    if (!breakers_[int(Stage::Load)]->allow()) {
        job.answer(errorResponse(
                       req.id, "serve.unavailable",
                       "load stage circuit breaker open; retry in " +
                           std::to_string(opts_.breaker.cooldownMs) +
                           "ms"),
                   false);
        return;
    }
    bool degraded = false;
    bool optimizeEngaged = req.kind != RequestKind::Analyze;
    if (optimizeEngaged && !breakers_[int(Stage::Optimize)]->allow()) {
        bopts.startRung = harness::Rung::Identity;
        optimizeEngaged = false;
        degraded = true;
    }
    bool simulateEngaged = bopts.simulate;
    if (simulateEngaged && !breakers_[int(Stage::Simulate)]->allow()) {
        bopts.simulate = false;
        simulateEngaged = false;
        degraded = true;
    }

    // --- Memory-governor rung floor: under soft RSS pressure the
    // ladder starts at a cheaper rung (smaller IR peaks), and the
    // response says so. Analyze already runs at Identity.
    bool degradedByMemory = false;
    if (governor_ && req.kind != RequestKind::Analyze) {
        const harness::Rung floor = governor_->rungFloor();
        if (floor != harness::Rung::FullCompound) {
            bopts.startRung =
                harness::weakerRung(bopts.startRung, floor);
            degradedByMemory = true;
            ++obs::counter("serve.governor.degraded_requests");
        }
    }

    // Unique per-request name: the fault-plan program filter and the
    // incident bundle key off it, and ids may repeat across clients.
    uint64_t seq = ++seq_;
    std::string name =
        "req-" + (req.id.empty() ? std::to_string(seq) : req.id) + "#" +
        std::to_string(seq);

    std::optional<harness::FaultSpec> fault;
    if (!req.fault.empty()) {
        if (!opts_.allowFaultRequests) {
            job.answer(
                errorResponse(
                    req.id, "serve.fault_disabled",
                    "per-request fault injection requires --allow-faults"),
                false);
            return;
        }
        Result<harness::FaultSpec> spec =
            harness::parseFaultSpec(req.fault);
        if (!spec.ok()) {
            job.answer(errorResponse(req.id, "serve.fault_spec",
                                     spec.diag().str()),
                       false);
            return;
        }
        fault = spec.value();
        fault->program = name;
    }

    // --- Result cache + single-flight. Fault-armed and breaker-
    // degraded requests bypass it: the former are nondeterministic by
    // design, the latter ran with less work than their key describes.
    ResultCache::Ticket ticket;
    FlightGuard flightGuard;
    bool leading = false;
    if (cache_ && !fault && !degraded && !degradedByMemory) {
        ticket = cache_->begin(resultCacheKey(
            req.program, requestKindName(req.kind), bopts.simulate,
            static_cast<int>(bopts.startRung), configDigest_));
        for (;;) {
            if (ticket.role == ResultCache::Role::Hit) {
                respondCached(job, ticket.body, startUs, queueUs,
                              traceId, false);
                return;
            }
            if (ticket.role == ResultCache::Role::Leader) {
                leading = true;
                break;
            }
            // Follower: wait on the leader up to this request's own
            // deadline. Value answers from the leader's result;
            // Elected means the leader abandoned and this request
            // takes over; TimedOut detaches and computes alone.
            ResultCache::WaitOutcome w =
                cache_->wait(ticket, bopts.budget.deadlineMs);
            if (w == ResultCache::WaitOutcome::Value) {
                respondCached(job, ticket.body, startUs, queueUs,
                              traceId, true);
                return;
            }
            if (w == ResultCache::WaitOutcome::Elected) {
                leading = true;
                break;
            }
            break;
        }
        if (leading) {
            flightGuard.cache = cache_.get();
            flightGuard.ticket = &ticket;
            flightGuard.armed = true;
        }
    }

    harness::ProgramOutcome out;
    {
        // Fault-armed requests serialize: the fault plan is process-
        // global, and only the filter keeps it from firing elsewhere.
        std::unique_lock<std::mutex> flock(faultMutex_, std::defer_lock);
        if (fault) {
            flock.lock();
            harness::armFault(*fault);
        }
        // The crash sites fire inside the request's program context so
        // a plan filtered to this request's name matches; an armed
        // `abort` takes the whole process down right here. A throwing
        // leader-crash unwinds through the FlightGuard, which wakes
        // the followers to re-elect.
        {
            harness::ProgramContext pctx(name);
            gWorkerCrashSite.fireNoDiag();
            if (leading)
                gLeaderCrashSite.fireNoDiag();
        }
        out = harness::runIsolated(harness::namedInput(name, req.program),
                                   bopts);
        if (fault)
            harness::clearFault();
    }

    // --- Breaker bookkeeping. Client-input Diags are not service
    // failures; only contained panics and timeouts count.
    bool failed = out.status == harness::BatchStatus::Timeout ||
                  out.status == harness::BatchStatus::PanicContained;
    if (failed) {
        Stage stage = classifyFailure(out);
        breakers_[int(stage)]->onFailure(out.diag);
        if (stage == Stage::Optimize || stage == Stage::Simulate)
            breakers_[int(Stage::Load)]->onSuccess();
        if (stage == Stage::Simulate && optimizeEngaged)
            breakers_[int(Stage::Optimize)]->onSuccess();
    } else if (out.status == harness::BatchStatus::Diag) {
        // The load stage worked: it correctly diagnosed bad input.
        breakers_[int(Stage::Load)]->onSuccess();
    } else {
        breakers_[int(Stage::Load)]->onSuccess();
        if (optimizeEngaged)
            breakers_[int(Stage::Optimize)]->onSuccess();
        if (simulateEngaged && out.simulated)
            breakers_[int(Stage::Simulate)]->onSuccess();
    }

    // --- Incident capture: minimize panics/timeouts (and degraded
    // outcomes that contained failures) into replayable bundles.
    std::string incidentDir;
    bool incidentWorthy =
        failed || (out.status == harness::BatchStatus::Degraded &&
                   !out.failures.empty());
    if (opts_.writeIncidents && incidentWorthy && !out.source.empty()) {
        std::lock_guard<std::mutex> flock(faultMutex_);
        Result<std::string> written =
            incident::captureOutcome(out, bopts, opts_.incidents, fault);
        harness::clearFault();
        if (written.ok())
            incidentDir = written.value();
        else
            obs::traceEvent("serve", "incident_skip",
                            {{"id", req.id},
                             {"why", written.diag().str()}});
    }

    // --- Publish or abandon the led flight. Only deterministic
    // outcomes are publishable: ok and diag replay bit-identically, and
    // so does a degraded run whose ladder recorded no failure — it ran
    // clean at its requested start rung (every analyze does). Timeouts,
    // contained panics, degraded runs that fell down the ladder, and
    // anything that produced an incident bundle must be recomputed per
    // request.
    if (leading) {
        flightGuard.armed = false;
        bool cleanDegraded = out.status == harness::BatchStatus::Degraded &&
                             out.failures.empty() &&
                             out.rung == bopts.startRung;
        bool publishable =
            !failed &&
            (out.status == harness::BatchStatus::Ok ||
             out.status == harness::BatchStatus::Diag || cleanDegraded) &&
            incidentDir.empty();
        if (publishable)
            cache_->publish(ticket,
                            resultResponse("", out, false, "", {}));
        else
            cache_->abandon(ticket);
    }

    ++obs::counter(std::string("serve.result.") +
                   harness::batchStatusName(out.status));
    if (span.active()) {
        span.arg("status", harness::batchStatusName(out.status));
        span.arg("rung", harness::rungName(out.rung));
    }

    // The per-stage breakdown, from the executor's own histograms
    // (the front samples the per-kind end-to-end latency).
    ResponseMeta meta;
    meta.traceId = traceId;
    meta.queueUs = queueUs;
    meta.totalUs = queueUs + (steadyUsF() - startUs);
    obs::histogram("serve.stage.queue_us").sample(queueUs);
    obs::histogram("serve.stage.load_us").sample(out.timings.loadUs);
    obs::histogram("serve.stage.optimize_us")
        .sample(out.timings.optimizeUs);
    obs::histogram("serve.stage.verify_us").sample(out.timings.verifyUs);
    obs::histogram("serve.stage.simulate_us")
        .sample(out.timings.simulateUs);
    obs::histogram("serve.stage.total_us").sample(meta.totalUs);
    ++obs::counter(std::string("serve.rung.") +
                   harness::rungName(out.rung));

    job.answer(resultResponse(req.id, out, degraded, incidentDir, meta,
                              degradedByMemory),
               true);
}

void
Executor::governorLoop()
{
    std::unique_lock<std::mutex> lock(governorMutex_);
    while (!governorStop_) {
        governorCv_.wait_for(
            lock,
            std::chrono::milliseconds(kGovernorSampleMs),
            [this] { return governorStop_; });
        if (governorStop_)
            break;
        lock.unlock();
        governor_->sample();
        lock.lock();
    }
}

void
Executor::drain()
{
    // Serialized: concurrent drains (the front vs the destructor) must
    // not both join the pool.
    std::lock_guard<std::mutex> drainLock(drainMutex_);
    if (drained_)
        return;
    drained_ = true;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stop_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();

    // Durability on the way out: stop the periodic cache-snapshot
    // writer and persist the warm cache once more, so a drained (or
    // EOF'd, or SIGTERM'd) shard restarts warm.
    {
        std::lock_guard<std::mutex> lock(snapshotMutex_);
        snapshotStop_ = true;
    }
    snapshotCv_.notify_all();
    if (snapshotThread_.joinable())
        snapshotThread_.join();
    writeCacheSnapshotNow();

    {
        std::lock_guard<std::mutex> lock(governorMutex_);
        governorStop_ = true;
    }
    governorCv_.notify_all();
    if (governorThread_.joinable())
        governorThread_.join();
}

void
Executor::snapshotLoop()
{
    std::unique_lock<std::mutex> lock(snapshotMutex_);
    while (!snapshotStop_) {
        snapshotCv_.wait_for(
            lock,
            std::chrono::milliseconds(opts_.cacheSnapshotIntervalMs),
            [this] { return snapshotStop_; });
        if (snapshotStop_)
            break;
        lock.unlock();
        writeCacheSnapshotNow();
        lock.lock();
    }
}

void
Executor::writeCacheSnapshotNow()
{
    if (!cache_ || opts_.cacheSnapshotPath.empty() ||
        snapshotDisabled_.load())
        return;
    Status written =
        writeCacheSnapshot(opts_.cacheSnapshotPath, cache_->entries(),
                           opts_.shard, configDigest_);
    if (written.ok())
        return;
    if (written.diag().code == "serve.snapshot.enospc") {
        // Out of disk is a degradation, not a crash: durability goes
        // dark, serving continues on the in-memory cache.
        snapshotDisabled_.store(true);
        ++obs::counter("serve.journal.disabled");
        obs::traceEvent("serve", "snapshot_disabled",
                        {{"why", written.diag().str()}});
    } else {
        ++obs::counter("serve.cache.snapshot_errors");
        obs::traceEvent("serve", "snapshot_error",
                        {{"why", written.diag().str()}});
    }
}

void
Executor::loadCacheSnapshot()
{
    // A missing file is a normal cold start, not a rejection.
    std::error_code ec;
    if (!std::filesystem::exists(opts_.cacheSnapshotPath, ec))
        return;
    Result<std::vector<std::pair<std::string, std::string>>> loaded =
        readCacheSnapshot(opts_.cacheSnapshotPath, configDigest_);
    if (!loaded.ok()) {
        // readCacheSnapshot counted serve.cache.snapshot_rejected;
        // cold start is the fallback, never a crash.
        obs::traceEvent("serve", "snapshot_cold_start",
                        {{"why", loaded.diag().str()}});
        return;
    }
    for (const auto &[key, body] : loaded.value()) {
        cache_->seed(key, body);
        ++obs::counter("serve.cache.snapshot_loaded_entries");
    }
    obs::traceEvent(
        "serve", "snapshot_warm_start",
        {{"path", opts_.cacheSnapshotPath},
         {"entries",
          static_cast<int64_t>(loaded.value().size())}});
}

void
Executor::respondCached(const Job &job, const std::string &body,
                      double startUs, double queueUs,
                      const std::string &traceId, bool dedupFollower)
{
    ResponseMeta meta;
    meta.traceId = traceId;
    meta.queueUs = queueUs;
    meta.totalUs = queueUs + (steadyUsF() - startUs);
    obs::histogram("serve.stage.queue_us").sample(queueUs);
    obs::histogram("serve.stage.total_us").sample(meta.totalUs);
    job.answer(cachedResultResponse(body, job.req.id, meta, dedupFollower),
               true);
}

ResultCacheStats
Executor::cacheStats() const
{
    return cache_ ? cache_->stats() : ResultCacheStats{};
}

json::Value
Executor::breakersJson() const
{
    json::Value brs = json::Value::object();
    for (int i = 0; i < kNumStages; ++i)
        brs.set(stageName(Stage(i)),
                breakerJson(breakers_[i]->snapshot()));
    return brs;
}

void
Executor::describe(json::Value &r) const
{
    r.set("breakers", breakersJson());

    // Governor state rides the heartbeat: the supervisor reads
    // hard_pressure here and answers with a graceful recycle.
    if (governor_ && governor_->enabled()) {
        json::Value g = json::Value::object();
        g.set("rss_bytes",
              json::Value::number(
                  static_cast<int64_t>(governor_->rssBytes())));
        g.set("soft_bytes",
              json::Value::number(static_cast<int64_t>(
                  governor_->options().softBytes)));
        g.set("hard_bytes",
              json::Value::number(static_cast<int64_t>(
                  governor_->options().hardBytes)));
        g.set("soft_pressure",
              json::Value::boolean(governor_->softPressure()));
        g.set("hard_pressure",
              json::Value::boolean(governor_->hardPressure()));
        g.set("soft_trips",
              json::Value::number(
                  static_cast<int64_t>(governor_->softTrips())));
        g.set("hard_trips",
              json::Value::number(
                  static_cast<int64_t>(governor_->hardTrips())));
        r.set("governor", std::move(g));
    }

    // The result-cache block doubles as the supervisor's aggregation
    // feed: workers answer the heartbeat `health` probe with it, and
    // the supervisor folds the numbers into its own gauges for
    // `memoria top` and the chaos soak's hit-rate gate.
    if (cache_) {
        const ResultCacheStats cs = cache_->stats();
        const CacheCounters values = {
            cs.hits, cs.misses, cs.inflightJoins, cs.evictions,
            cs.entries, cs.bytes,
            obs::counter("serve.cache.snapshot_rejected").value(),
            obs::counter("serve.cache.snapshot_loaded_entries").value()};
        json::Value cj = json::Value::object();
        for (size_t i = 0; i < values.size(); ++i)
            cj.set(kCacheCounterNames[i],
                   json::Value::number(static_cast<int64_t>(values[i])));
        r.set("cache", std::move(cj));
    }
}

} // namespace serve
} // namespace memoria
