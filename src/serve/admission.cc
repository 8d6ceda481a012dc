#include "serve/admission.hh"

#include <algorithm>

#include "serve/protocol.hh"
#include "support/stats.hh"

namespace memoria {
namespace serve {

namespace {

/** EWMA smoothing for the drain-rate / service-time estimates: light
 *  enough to track load shifts within a few dozen requests. */
constexpr double kEwmaAlpha = 0.2;

/** Ceiling for honest retry hints: past this the client should treat
 *  the service as down, not busy. */
constexpr int64_t kRetryAfterCapMs = 30000;

} // namespace

bool
parsePriority(const std::string &s, Priority &out)
{
    if (s.empty() || s == "interactive") {
        out = Priority::Interactive;
        return true;
    }
    if (s == "batch") {
        out = Priority::Batch;
        return true;
    }
    return false;
}

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(opts)
{
    credit_[0] = std::max(1, opts_.interactiveShare);
    credit_[1] = std::max(1, opts_.batchShare);
}

size_t
AdmissionController::depth(Priority p) const
{
    return classes_[static_cast<int>(p)].queued;
}

size_t
AdmissionController::clientRecords() const
{
    size_t n = 0;
    for (const ClassState &cls : classes_)
        n += cls.clients.size();
    return n;
}

size_t
AdmissionController::clientLoad(const std::string &client) const
{
    size_t load = 0;
    for (const ClassState &cls : classes_) {
        auto it = cls.clients.find(client);
        if (it != cls.clients.end())
            load += it->second.queue.size() + it->second.inflight;
    }
    return load;
}

int64_t
AdmissionController::honestRetryAfterMs(int64_t nowUs) const
{
    (void)nowUs;
    // Expected time for the queue ahead to drain at the observed
    // finish rate; fall back to the configured base before the first
    // finishes arrive.
    int64_t hint = opts_.retryAfterMs;
    if (ewmaInterFinishUs_ > 0.0) {
        const double drainMs =
            static_cast<double>(queued_ + 1) * ewmaInterFinishUs_ /
            1000.0;
        hint = std::max<int64_t>(opts_.retryAfterMs,
                                 static_cast<int64_t>(drainMs));
    }
    hint = std::min(hint, kRetryAfterCapMs);
    return jitteredRetryAfterMs(hint);
}

AdmissionDecision
AdmissionController::decide(const std::string &client, Priority pri,
                            int64_t deadlineAtUs, int64_t estServiceUs,
                            int64_t nowUs) const
{
    (void)pri;
    AdmissionDecision d;
    d.queueDepth = queued_;

    if (queued_ >= opts_.queueCapacity) {
        d.admitted = false;
        d.reason = "queue-full";
        d.retryAfterMs = honestRetryAfterMs(nowUs);
        ++obs::counter("serve.shed.queue_full");
        return d;
    }

    if (opts_.perClientCap > 0 &&
        clientLoad(client) >= opts_.perClientCap) {
        d.admitted = false;
        d.reason = "client-capped";
        d.retryAfterMs = honestRetryAfterMs(nowUs);
        ++obs::counter("serve.shed.client_capped");
        return d;
    }

    if (deadlineAtUs > 0) {
        // Predicted completion: current queue drains at the observed
        // inter-finish rate, then this request runs for the estimated
        // service time. No estimate at all → admit (fail open; the
        // in-queue expiry check still catches it later).
        int64_t est = estServiceUs > 0
                          ? estServiceUs
                          : static_cast<int64_t>(ewmaServiceUs_);
        if (est > 0) {
            const int64_t queueDelayUs = static_cast<int64_t>(
                static_cast<double>(queued_) * ewmaInterFinishUs_);
            if (nowUs + queueDelayUs + est > deadlineAtUs) {
                d.admitted = false;
                d.reason = "deadline-infeasible";
                d.retryAfterMs = honestRetryAfterMs(nowUs);
                ++obs::counter("serve.shed.deadline_infeasible");
                return d;
            }
        }
    }
    return d;
}

void
AdmissionController::enqueue(uint64_t id, const std::string &client,
                             Priority pri, int64_t deadlineAtUs,
                             int64_t nowUs)
{
    ClassState &cls = classes_[static_cast<int>(pri)];
    ClientState &cs = cls.clients[client];
    if (cs.queue.empty())
        cls.ring.push_back(client);
    cs.queue.push_back(Entry{id, client, pri, deadlineAtUs, nowUs});
    ++cls.queued;
    ++queued_;
}

const AdmissionController::Entry *
AdmissionController::oldestEntry() const
{
    const Entry *oldest = nullptr;
    for (const ClassState &cls : classes_) {
        for (const auto &[key, cs] : cls.clients) {
            if (cs.queue.empty())
                continue;
            const Entry &head = cs.queue.front();
            if (!oldest || head.enqueuedUs < oldest->enqueuedUs)
                oldest = &head;
        }
    }
    return oldest;
}

void
AdmissionController::dropStale(int64_t nowUs,
                               std::vector<AdmissionDrop> &dropped)
{
    // Expired heads first: a queued request whose own deadline has
    // passed must never reach a worker.
    for (ClassState &cls : classes_) {
        for (size_t scanned = 0;
             scanned < cls.ring.size() && !cls.ring.empty();) {
            const std::string key = cls.ring.front();
            auto cit = cls.clients.find(key);
            if (cit == cls.clients.end()) {
                // Stale ring entry (client erased by finish()): drop
                // it instead of resurrecting a zombie via operator[].
                cls.ring.pop_front();
                ++scanned;
                continue;
            }
            ClientState &cs = cit->second;
            bool droppedHere = false;
            while (!cs.queue.empty() &&
                   cs.queue.front().deadlineAtUs > 0 &&
                   cs.queue.front().deadlineAtUs < nowUs) {
                dropped.push_back(
                    AdmissionDrop{cs.queue.front().id, true});
                cs.queue.pop_front();
                --cls.queued;
                --queued_;
                droppedHere = true;
                ++obs::counter("serve.deadline_exceeded");
            }
            if (cs.queue.empty()) {
                cls.ring.pop_front();
                // Same cleanup finish() does: an idle client record
                // must not outlive its last entry.
                if (cs.inflight == 0)
                    cls.clients.erase(cit);
                if (!droppedHere)
                    ++scanned;  // stale ring entry, keep scanning
                continue;
            }
            cls.ring.push_back(key);
            cls.ring.pop_front();
            ++scanned;
        }
    }

    // CoDel-flavored aging: if the *oldest* sojourn has been above
    // target continuously for one full target interval, drop one
    // oldest entry per interval — standing queues shed stale work,
    // bursts that drain within the interval are left alone.
    if (opts_.ageTargetMs <= 0)
        return;
    const int64_t targetUs = opts_.ageTargetMs * 1000;
    const Entry *oldest = oldestEntry();
    if (!oldest || nowUs - oldest->enqueuedUs < targetUs) {
        agingSinceUs_ = 0;
        return;
    }
    if (agingSinceUs_ == 0) {
        agingSinceUs_ = nowUs;
        return;
    }
    if (nowUs - agingSinceUs_ < targetUs)
        return;
    agingSinceUs_ = nowUs;
    // Copy what the drop needs first: pop_front() destroys the Entry
    // `oldest` points into (its client's head), so reading through
    // `oldest` after the pop is a use-after-free.
    const uint64_t agedId = oldest->id;
    const std::string agedClient = oldest->client;
    ClassState &cls = classes_[static_cast<int>(oldest->pri)];
    auto cit = cls.clients.find(agedClient);
    if (cit == cls.clients.end())
        return;  // unreachable: oldestEntry() just saw this client
    ClientState &cs = cit->second;
    dropped.push_back(AdmissionDrop{agedId, false});
    cs.queue.pop_front();
    --cls.queued;
    --queued_;
    if (cs.queue.empty()) {
        auto it =
            std::find(cls.ring.begin(), cls.ring.end(), agedClient);
        if (it != cls.ring.end())
            cls.ring.erase(it);
        if (cs.inflight == 0)
            cls.clients.erase(cit);
    }
    ++obs::counter("serve.shed.queue_aged");
}

uint64_t
AdmissionController::popClass(ClassState &cls, int64_t nowUs)
{
    // Deficit round robin, quantum 1: each ring visit earns one
    // dequeue; clients at their in-flight cap are skipped this pass
    // but keep their place.
    (void)nowUs;
    for (size_t scanned = 0, limit = cls.ring.size();
         scanned < limit && !cls.ring.empty(); ++scanned) {
        const std::string key = cls.ring.front();
        cls.ring.pop_front();
        auto it = cls.clients.find(key);
        if (it == cls.clients.end() || it->second.queue.empty())
            continue;  // stale ring entry
        ClientState &cs = it->second;
        if (opts_.perClientCap > 0 &&
            cs.inflight >= opts_.perClientCap) {
            cls.ring.push_back(key);
            continue;
        }
        Entry e = cs.queue.front();
        cs.queue.pop_front();
        --cls.queued;
        --queued_;
        ++cs.inflight;
        ++inflight_;
        if (!cs.queue.empty())
            cls.ring.push_back(key);
        popped_[e.id] = {e.client, e.pri};
        return e.id;
    }
    return 0;
}

uint64_t
AdmissionController::pop(int64_t nowUs,
                         std::vector<AdmissionDrop> &dropped)
{
    dropStale(nowUs, dropped);
    if (queued_ == 0)
        return 0;

    // Weighted class credits: interactive spends its share first;
    // when both classes are out of credit the shares are replenished.
    // Batch can be delayed by up to interactiveShare dequeues but is
    // never starved, and an empty class forfeits its credit.
    for (int attempts = 0; attempts < 3; ++attempts) {
        const int order[2] = {0, 1};  // interactive first
        for (int c : order) {
            if (credit_[c] <= 0 || classes_[c].queued == 0)
                continue;
            uint64_t id = popClass(classes_[c], nowUs);
            if (id != 0) {
                --credit_[c];
                return id;
            }
        }
        // No credit matched runnable work: replenish and retry once;
        // if still nothing, every queued client is at its cap.
        bool replenished = false;
        for (int c = 0; c < 2; ++c) {
            const int share = c == 0 ? opts_.interactiveShare
                                     : opts_.batchShare;
            if (credit_[c] < std::max(1, share)) {
                credit_[c] = std::max(1, share);
                replenished = true;
            }
        }
        if (!replenished)
            break;
    }
    return 0;
}

void
AdmissionController::finish(uint64_t id, int64_t nowUs)
{
    auto it = popped_.find(id);
    if (it != popped_.end()) {
        ClassState &cls = classes_[static_cast<int>(it->second.second)];
        auto cit = cls.clients.find(it->second.first);
        if (cit != cls.clients.end()) {
            if (cit->second.inflight > 0)
                --cit->second.inflight;
            // Drop empty client records so a churn of one-shot
            // connection keys cannot grow the map without bound.
            if (cit->second.queue.empty() &&
                cit->second.inflight == 0)
                cls.clients.erase(cit);
        }
        if (inflight_ > 0)
            --inflight_;
        popped_.erase(it);

        // Finish gap → drain-rate EWMA, the basis for both honest
        // retry hints and deadline-feasibility queue delay.
        if (lastFinishUs_ > 0 && nowUs > lastFinishUs_) {
            const double gap =
                static_cast<double>(nowUs - lastFinishUs_);
            ewmaInterFinishUs_ =
                ewmaInterFinishUs_ == 0.0
                    ? gap
                    : (1.0 - kEwmaAlpha) * ewmaInterFinishUs_ +
                          kEwmaAlpha * gap;
        }
        lastFinishUs_ = nowUs;
        return;
    }

    // Still queued (drain sweep answers queued work directly): remove
    // it wherever it sits.
    for (ClassState &cls : classes_) {
        for (auto cit = cls.clients.begin(); cit != cls.clients.end();
             ++cit) {
            auto &q = cit->second.queue;
            auto qit = std::find_if(
                q.begin(), q.end(),
                [id](const Entry &e) { return e.id == id; });
            if (qit == q.end())
                continue;
            q.erase(qit);
            --cls.queued;
            --queued_;
            if (q.empty()) {
                auto rit = std::find(cls.ring.begin(), cls.ring.end(),
                                     cit->first);
                if (rit != cls.ring.end())
                    cls.ring.erase(rit);
                if (cit->second.inflight == 0)
                    cls.clients.erase(cit);
            }
            return;
        }
    }
    // Unknown id: already finished (e.g. crash-retry bookkeeping) —
    // deliberately a no-op so double-finish cannot corrupt counts.
}

void
AdmissionController::recordService(int64_t serviceUs)
{
    if (serviceUs <= 0)
        return;
    const double v = static_cast<double>(serviceUs);
    ewmaServiceUs_ = ewmaServiceUs_ == 0.0
                         ? v
                         : (1.0 - kEwmaAlpha) * ewmaServiceUs_ +
                               kEwmaAlpha * v;
}

} // namespace serve
} // namespace memoria
