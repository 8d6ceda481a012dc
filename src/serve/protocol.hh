/**
 * @file
 * The JSON-lines request/response protocol `memoria serve` speaks.
 *
 * One request per line, one *terminal* response per request, on stdin/
 * stdout or over a TCP/Unix-socket connection (serve/listener.hh). A
 * request is a JSON object:
 *
 *     {"id":"r1","kind":"compound","program":"PROGRAM P\n...","
 *      deadline_ms":2000,"simulate":true,"fault":"site:throw:1"}
 *
 *   id           echoed verbatim in the response ("" when omitted)
 *   kind         analyze | compound | simulate | health | stats |
 *                metrics
 *   program      `.mem` source text (work kinds only)
 *   deadline_ms  per-request budget override, clamped by the server
 *   simulate     force simulation on/off (default: kind == simulate)
 *   fault        fault-injection spec for this request — test hook,
 *                honored only when the server runs with --allow-faults
 *   trace_id     optional client-chosen trace id, echoed in the
 *                response and stamped on every span the request emits
 *                (the server mints one when omitted)
 *
 * Terminal response types (field "type"):
 *
 *   result      the pipeline ran; carries status/rung/sim/incident_dir
 *               plus `trace_id` and a per-stage `timings` breakdown
 *   error       the request is unusable (bad JSON, unknown kind, load
 *               breaker open); carries code + message
 *   overloaded  admission queue full; carries retry_after_ms
 *   cancelled   accepted but not run (server drained first)
 *   health      liveness/breaker/queue snapshot
 *   stats       the full obs stats registry + breaker snapshots
 *   metrics     Prometheus exposition + registry dump, answered inline
 *
 * Every line the server emits is a single JSON object; clients never
 * need to handle partial or multi-line frames.
 */

#ifndef MEMORIA_SERVE_PROTOCOL_HH
#define MEMORIA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "check/diag.hh"
#include "harness/batch.hh"

namespace memoria {
namespace serve {

/** What a request asks for. */
enum class RequestKind
{
    Analyze,   ///< load + validate + identity-rung analysis, no sim
    Compound,  ///< full degradation ladder, no simulation by default
    Simulate,  ///< full ladder + cache simulation
    Health,    ///< liveness snapshot, answered inline
    Stats,     ///< obs registry dump, answered inline
    Metrics,   ///< Prometheus exposition + registry, answered inline
};

/** Printable name ("analyze", "compound", ...). */
const char *requestKindName(RequestKind k);

/** One parsed request. */
struct Request
{
    std::string id;
    RequestKind kind = RequestKind::Compound;
    std::string program;
    int64_t deadlineMs = 0;            ///< 0 = server default
    std::optional<bool> simulate;      ///< override kind's default
    std::string fault;                 ///< fault spec ("" = none)
    std::string traceId;               ///< client trace id ("" = mint)

    /**
     * Admission-control fields (serve/admission.hh). `priority` is
     * "interactive" (the default) or "batch" — anything else is a
     * request error. `client_id` keys per-client fair-share queuing;
     * when empty the server falls back to a per-connection key.
     */
    std::string priority;
    std::string clientId;

    /**
     * Client opt-in to replay after a worker crash. `analyze` and
     * `simulate` are idempotent and retried transparently; `compound`
     * is only re-run when the client set `"replay": true` — otherwise
     * a crash mid-request answers `serve.worker-crashed`.
     */
    bool replay = false;
};

/**
 * Parse one request line. Returns a Diag for malformed JSON, a
 * non-object, an unknown kind, or a missing program on a work kind
 * (code "serve.request"), or for input that blows a resource cap —
 * oversized line, excessive JSON nesting or node count — (code
 * "protocol.too-large", rejected before any unbounded allocation).
 * With `enqueuedUs`, also reads the front's admission time
 * (`enqueued_us`, steady clock); only a worker reading its front's
 * forwarded lines asks, so no client can set its own queue start.
 */
Result<Request> parseRequest(const std::string &line,
                             size_t maxBytes = 4u << 20,
                             double *enqueuedUs = nullptr);

/** JSON nesting depth `parseRequest` accepts: requests are flat
 *  objects, so anything deep is hostile, not a client mistake. */
constexpr int kMaxRequestDepth = 16;

/**
 * `retryAfterMs` with ±20% uniform jitter (never below 1). Sheds use
 * this so a synchronized burst of shed clients doesn't come back as a
 * synchronized retry storm.
 */
int64_t jitteredRetryAfterMs(int64_t baseMs);

/** True when the kind runs the pipeline (needs queue admission). */
bool isWorkKind(RequestKind k);

// --- Response builders: each returns one JSON line, newline excluded.

/**
 * Request-scoped telemetry stamped into a "result" response: the
 * trace id the request ran under and the serve-side timing fields the
 * harness cannot know (queue wait and end-to-end total).
 */
struct ResponseMeta
{
    std::string traceId;
    double queueUs = 0.0;
    double totalUs = 0.0;
};

/**
 * "result" from a finished pipeline outcome. Carries a `timings`
 * object {queue_us, load_us, optimize_us, verify_us, simulate_us,
 * total_us}; the stage fields come from `out.timings`, queue/total
 * from `meta`, and the stages are disjoint with sum <= total_us.
 */
std::string resultResponse(const std::string &id,
                           const harness::ProgramOutcome &out,
                           bool degradedByBreaker,
                           const std::string &incidentDir,
                           const ResponseMeta &meta = {},
                           bool degradedByMemory = false);

/**
 * "result" replayed from the result cache. `cachedBody` is a response
 * the cache stored (a resultResponse built with empty id and default
 * meta); this re-stamps the requester's own `id`/`trace_id`, patches
 * `timings.queue_us`/`timings.total_us` with the replay-side values
 * (stage timings stay the leader's — they describe the computation),
 * and marks the provenance: `"cache_hit":true` for an LRU hit,
 * `"dedup_follower":true` for a response received from a single-
 * flight leader. Everything else is byte-identical to a fresh run.
 */
std::string cachedResultResponse(const std::string &cachedBody,
                                 const std::string &id,
                                 const ResponseMeta &meta,
                                 bool dedupFollower);

/** "error" with a stable dotted code. */
std::string errorResponse(const std::string &id, const std::string &code,
                          const std::string &message);

/**
 * "overloaded" load-shed response. `queueDepth` is the admission
 * queue depth at shed time and `reason` says *why* this request was
 * shed — "queue-full", "client-capped", or "deadline-infeasible" —
 * so clients (and the soak harness) can distinguish "back off" from
 * "you specifically are flooding" from "your deadline cannot be met".
 */
std::string overloadedResponse(const std::string &id,
                               int64_t retryAfterMs,
                               uint64_t queueDepth = 0,
                               const std::string &reason = "queue-full");

/**
 * "error" with code `serve.deadline-exceeded`: the request's deadline
 * passed while it sat in the admission queue; it never ran.
 */
std::string deadlineExceededResponse(const std::string &id,
                                     int64_t waitedMs);

/** "cancelled" (accepted, then drained before running). */
std::string cancelledResponse(const std::string &id,
                              const std::string &reason);

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_PROTOCOL_HH
