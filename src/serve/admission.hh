/**
 * @file
 * Deadline-aware, per-client fair-share admission control for serve.
 *
 * The paper's premise — predict the cost of work before paying it
 * (Section 3's loop-cost model guiding Section 6's transform choices)
 * — applied to the serving queue: we already export per-kind service
 * latency histograms, so the admission controller can *predict*
 * whether a newly arrived request will make its deadline and shed it
 * on arrival rather than let it rot in the queue and time out after
 * occupying a worker.
 *
 * Three mechanisms, composed:
 *
 *  - **Deadline-aware shed-on-arrival.** A request carrying
 *    `deadline_ms` is admitted only if `now + queueDelay + estService`
 *    fits, where queueDelay is depth × the EWMA inter-finish gap
 *    (i.e. the observed drain rate) and estService comes from the
 *    caller (p90 of the live `serve.service_us.<kind>` histogram) or
 *    the controller's own service-time EWMA. Sheds carry an *honest*
 *    `retry_after_ms` derived from the same drain rate, not a fixed
 *    constant.
 *
 *  - **CoDel-style aging.** Instead of dropping the newest arrival
 *    when the queue is full, the controller watches the sojourn time
 *    of the *oldest* entry; if it stays above `ageTargetMs`
 *    continuously for one interval, the oldest entry is dropped
 *    (reason `queue-aged`). Standing queues drain from the stale end.
 *    Entries whose own deadline has already passed are dropped at pop
 *    time (`deadline-exceeded`) without ever touching a worker.
 *
 *  - **Per-client fair share.** Requests are keyed by an optional
 *    `client_id` (fallback: the transport connection). Each client
 *    gets its own subqueue; dequeue is deficit-round-robin across
 *    clients within a priority class, and classes (`interactive` >
 *    `batch`) are weighted 4:1 by a credit scheme that can delay but
 *    never starve batch. A per-client in-flight + queued cap turns a
 *    pathological client's flood into `client-capped` sheds that
 *    leave its neighbors' latency intact.
 *
 * Threading: the controller is NOT internally synchronized. The serve
 * front (serve/supervisor.hh) keeps one controller per shard under
 * its own `mu_`.
 * Admission is two-phase — `decide()` (read-only, produces the shed
 * response fields) then `enqueue()` on admit — so callers can assign
 * sequence numbers and journal *after* the decision.
 */

#ifndef MEMORIA_SERVE_ADMISSION_HH
#define MEMORIA_SERVE_ADMISSION_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace memoria {
namespace serve {

/** Priority class; `interactive` is the default for requests that do
 *  not say otherwise. */
enum class Priority
{
    Interactive = 0,
    Batch = 1,
};

/** "interactive"/"batch" → Priority; unknown strings report false. */
bool parsePriority(const std::string &s, Priority &out);

struct AdmissionOptions
{
    /** Bound on the queued entries. In-flight work is not counted:
     *  the serve front bounds it by each shard's thread count. */
    size_t queueCapacity = 64;

    /**
     * Per-client bound (0 = unlimited): at admission, the client's
     * queued + in-flight total; at pop, its in-flight total. A client
     * at the cap sheds `client-capped` while others keep flowing.
     */
    size_t perClientCap = 0;

    /** Base / floor for retry_after_ms hints when the drain rate is
     *  still unknown. */
    int64_t retryAfterMs = 200;

    /** CoDel target sojourn for the oldest queued entry, in ms
     *  (0 = aging off). */
    int64_t ageTargetMs = 0;

    /** Class weights for the credit scheduler. */
    int interactiveShare = 4;
    int batchShare = 1;
};

/** One shed/admit verdict, with everything the response needs. */
struct AdmissionDecision
{
    bool admitted = true;
    /** "queue-full" | "client-capped" | "deadline-infeasible". */
    std::string reason;
    /** Honest, jittered hint derived from the observed drain rate. */
    int64_t retryAfterMs = 0;
    size_t queueDepth = 0;
};

/** An entry removed by pop() that must be answered without running:
 *  expired (deadline passed in queue) or aged out (CoDel). */
struct AdmissionDrop
{
    uint64_t id = 0;
    bool expired = false;  ///< true: deadline-exceeded; false: aged
};

class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionOptions opts);

    /**
     * Phase 1: would this request be admitted right now? Read-only —
     * no state changes. `deadlineAtUs` 0 means no deadline;
     * `estServiceUs` 0 means no estimate (feasibility not checked).
     */
    AdmissionDecision decide(const std::string &client, Priority pri,
                             int64_t deadlineAtUs,
                             int64_t estServiceUs,
                             int64_t nowUs) const;

    /** Phase 2: enqueue an admitted request under caller-chosen id. */
    void enqueue(uint64_t id, const std::string &client, Priority pri,
                 int64_t deadlineAtUs, int64_t nowUs);

    /**
     * Dequeue the next runnable entry (0 = none eligible). Entries
     * whose deadline already passed, and the aged-out head when the
     * CoDel condition holds, are moved to `dropped` — the caller
     * answers them (deadline-exceeded / overloaded) without running
     * them. A popped entry counts against its client's in-flight cap
     * until `finish()`.
     */
    uint64_t pop(int64_t nowUs, std::vector<AdmissionDrop> &dropped);

    /**
     * Terminal accounting for `id`: still-queued entries are removed
     * (drain sweep), popped entries release their client's in-flight
     * slot and feed the inter-finish EWMA. Unknown ids are a no-op —
     * crash-retried work finishes exactly once.
     */
    void finish(uint64_t id, int64_t nowUs);

    size_t depth() const { return queued_; }
    size_t depth(Priority p) const;
    size_t inflight() const { return inflight_; }

    /** Live client records across both classes (tests: drop and
     *  finish paths must not leak idle records under client churn). */
    size_t clientRecords() const;

    /** Observed service-time feed (the serve front calls this with
     *  measured per-request service time). */
    void recordService(int64_t serviceUs);

    /** Current smoothed inter-finish gap (µs; 0 = no signal yet). */
    int64_t interFinishUs() const
    {
        return static_cast<int64_t>(ewmaInterFinishUs_);
    }
    int64_t ewmaServiceUs() const
    {
        return static_cast<int64_t>(ewmaServiceUs_);
    }

  private:
    struct Entry
    {
        uint64_t id = 0;
        std::string client;
        Priority pri = Priority::Interactive;
        int64_t deadlineAtUs = 0;
        int64_t enqueuedUs = 0;
    };

    struct ClientState
    {
        std::deque<Entry> queue;
        size_t inflight = 0;
        int deficit = 0;
    };

    struct ClassState
    {
        std::map<std::string, ClientState> clients;
        /** Round-robin ring of client keys with queued work. */
        std::deque<std::string> ring;
        size_t queued = 0;
    };

    size_t clientLoad(const std::string &client) const;
    int64_t honestRetryAfterMs(int64_t nowUs) const;
    /** Drop expired heads / the CoDel-aged oldest entry. */
    void dropStale(int64_t nowUs, std::vector<AdmissionDrop> &dropped);
    uint64_t popClass(ClassState &cls, int64_t nowUs);
    const Entry *oldestEntry() const;

    AdmissionOptions opts_;
    ClassState classes_[2];
    size_t queued_ = 0;
    size_t inflight_ = 0;
    /** Popped-entry bookkeeping: id → client key. */
    std::map<uint64_t, std::pair<std::string, Priority>> popped_;

    /** Credit scheduler state: replenished to the share weights when
     *  both classes are exhausted; interactive spends first. */
    int credit_[2] = {0, 0};

    /** EWMA of the gap between consecutive finishes (drain rate). */
    double ewmaInterFinishUs_ = 0.0;
    int64_t lastFinishUs_ = 0;
    /** EWMA of measured service time (fallback estimate). */
    double ewmaServiceUs_ = 0.0;

    /** CoDel state: when the oldest sojourn first exceeded target
     *  (0 = currently below target). */
    int64_t agingSinceUs_ = 0;
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_ADMISSION_HH
