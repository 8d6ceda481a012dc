#include "serve/protocol.hh"

#include <algorithm>
#include <random>
#include <thread>

#include "support/json.hh"

namespace memoria {
namespace serve {

namespace {

Result<Request>
badRequest(const std::string &why)
{
    return Result<Request>::err(Diag::error("serve.request", why));
}

Result<Request>
tooLarge(const std::string &why)
{
    return Result<Request>::err(Diag::error("protocol.too-large", why));
}

} // namespace

const char *
requestKindName(RequestKind k)
{
    switch (k) {
      case RequestKind::Analyze:
        return "analyze";
      case RequestKind::Compound:
        return "compound";
      case RequestKind::Simulate:
        return "simulate";
      case RequestKind::Health:
        return "health";
      case RequestKind::Stats:
        return "stats";
      case RequestKind::Metrics:
        return "metrics";
    }
    return "?";
}

bool
isWorkKind(RequestKind k)
{
    return k == RequestKind::Analyze || k == RequestKind::Compound ||
           k == RequestKind::Simulate;
}

Result<Request>
parseRequest(const std::string &line, size_t maxBytes, double *enqueuedUs)
{
    // Size is checked before the parser touches the line: an oversized
    // request is rejected for the cost of a length compare, not an
    // allocation proportional to the attack.
    if (maxBytes > 0 && line.size() > maxBytes) {
        return tooLarge("request line exceeds " +
                        std::to_string(maxBytes) + " bytes");
    }

    json::ParseOptions popts;
    popts.maxBytes = maxBytes;
    popts.maxDepth = kMaxRequestDepth;
    Result<json::Value> parsed = json::parse(line, popts);
    if (!parsed.ok()) {
        // The parser distinguishes resource-cap hits ("json.limit")
        // from bad syntax; surface them under the protocol's code so
        // clients can tell "shrink your request" from "fix your JSON".
        if (parsed.diag().code == "json.limit")
            return tooLarge(parsed.diag().str());
        return badRequest(parsed.diag().str());
    }
    const json::Value &v = parsed.value();
    if (!v.isObject())
        return badRequest("request must be a JSON object");

    Request req;
    req.id = v.getString("id");

    std::string kind = v.getString("kind", "compound");
    if (kind == "analyze")
        req.kind = RequestKind::Analyze;
    else if (kind == "compound")
        req.kind = RequestKind::Compound;
    else if (kind == "simulate")
        req.kind = RequestKind::Simulate;
    else if (kind == "health")
        req.kind = RequestKind::Health;
    else if (kind == "stats")
        req.kind = RequestKind::Stats;
    else if (kind == "metrics")
        req.kind = RequestKind::Metrics;
    else
        return badRequest("unknown kind '" + kind + "'");

    req.program = v.getString("program");
    if (isWorkKind(req.kind) && req.program.empty())
        return badRequest("kind '" + kind + "' requires \"program\"");

    req.deadlineMs = v.getInt("deadline_ms", 0);
    if (req.deadlineMs < 0)
        return badRequest("deadline_ms must be >= 0");
    if (const json::Value *sim = v.get("simulate"); sim && sim->isBool())
        req.simulate = sim->asBool();
    req.fault = v.getString("fault");
    req.traceId = v.getString("trace_id");
    req.replay = v.getBool("replay", false);
    req.priority = v.getString("priority");
    if (!req.priority.empty() && req.priority != "interactive" &&
        req.priority != "batch") {
        return badRequest("priority must be \"interactive\" or "
                          "\"batch\"");
    }
    req.clientId = v.getString("client_id");
    if (enqueuedUs)
        *enqueuedUs = v.getNumber("enqueued_us", 0.0);
    return req;
}

int64_t
jitteredRetryAfterMs(int64_t baseMs)
{
    if (baseMs <= 0)
        return 1;
    // Thread-local PRNG: sheds happen on the hot admission path and
    // must not serialize on a shared generator.
    thread_local std::minstd_rand rng(
        std::random_device{}() ^
        static_cast<unsigned>(
            std::hash<std::thread::id>{}(std::this_thread::get_id())));
    const int64_t spread = std::max<int64_t>(1, baseMs / 5);  // 20%
    std::uniform_int_distribution<int64_t> dist(-spread, spread);
    return std::max<int64_t>(1, baseMs + dist(rng));
}

std::string
resultResponse(const std::string &id, const harness::ProgramOutcome &out,
               bool degradedByBreaker, const std::string &incidentDir,
               const ResponseMeta &meta, bool degradedByMemory)
{
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("result"));
    if (!meta.traceId.empty())
        r.set("trace_id", json::Value::string(meta.traceId));
    r.set("status",
          json::Value::string(harness::batchStatusName(out.status)));
    r.set("rung", json::Value::string(harness::rungName(out.rung)));
    r.set("attempts", json::Value::number(int64_t{out.attempts}));
    r.set("time_ms", json::Value::number(out.timeMs));
    r.set("loops", json::Value::number(int64_t{out.loops}));
    {
        // total_us falls back to the harness-measured wall time when
        // the caller provides no serve-side total (direct callers).
        double totalUs =
            meta.totalUs > 0.0 ? meta.totalUs : out.timeMs * 1000.0;
        json::Value t = json::Value::object();
        t.set("queue_us", json::Value::number(meta.queueUs));
        t.set("load_us", json::Value::number(out.timings.loadUs));
        t.set("optimize_us", json::Value::number(out.timings.optimizeUs));
        t.set("verify_us", json::Value::number(out.timings.verifyUs));
        t.set("simulate_us", json::Value::number(out.timings.simulateUs));
        t.set("total_us", json::Value::number(totalUs));
        r.set("timings", std::move(t));
    }
    if (!out.diag.empty())
        r.set("diag", json::Value::string(out.diag));
    if (degradedByBreaker)
        r.set("degraded_by_breaker", json::Value::boolean(true));
    if (degradedByMemory)
        r.set("degraded_by_memory", json::Value::boolean(true));
    if (!out.failures.empty()) {
        json::Value fails = json::Value::array();
        for (const harness::AttemptFailure &f : out.failures) {
            json::Value fo = json::Value::object();
            fo.set("rung", json::Value::string(harness::rungName(f.rung)));
            fo.set("kind", json::Value::string(f.kind));
            fo.set("detail", json::Value::string(f.detail));
            fails.push(std::move(fo));
        }
        r.set("failures", std::move(fails));
    }
    if (out.simulated) {
        json::Value sim = json::Value::object();
        sim.set("accesses",
                json::Value::number(static_cast<int64_t>(out.accesses)));
        sim.set("hits",
                json::Value::number(static_cast<int64_t>(out.hits)));
        sim.set("misses",
                json::Value::number(static_cast<int64_t>(out.misses)));
        sim.set("hit_warm_orig", json::Value::number(out.hitWarmOrig));
        sim.set("hit_warm_final", json::Value::number(out.hitWarmFinal));
        r.set("sim", std::move(sim));
    }
    if (!incidentDir.empty())
        r.set("incident_dir", json::Value::string(incidentDir));
    return r.dump();
}

std::string
cachedResultResponse(const std::string &cachedBody,
                     const std::string &id, const ResponseMeta &meta,
                     bool dedupFollower)
{
    Result<json::Value> parsed = json::parse(cachedBody);
    if (!parsed.ok() || !parsed.value().isObject()) {
        // A cache entry that no longer parses is a bug or corruption
        // that slipped past the snapshot checksums; fail the request
        // honestly rather than emit garbage.
        return errorResponse(id, "serve.cache",
                             "cached response body unusable");
    }
    const json::Value &body = parsed.value();

    // Rebuild member-by-member (json::Value::set appends, it does not
    // replace), swapping in the requester-specific fields and keeping
    // the member order of a fresh response.
    json::Value r = json::Value::object();
    for (const auto &[key, val] : body.members()) {
        if (key == "id") {
            r.set("id", json::Value::string(id));
            continue;
        }
        if (key == "trace_id")
            continue;  // re-inserted after "type" below
        if (key == "type") {
            r.set("type", val);
            if (!meta.traceId.empty())
                r.set("trace_id", json::Value::string(meta.traceId));
            continue;
        }
        if (key == "timings" && val.isObject()) {
            json::Value t = json::Value::object();
            for (const auto &[tk, tv] : val.members()) {
                if (tk == "queue_us")
                    t.set("queue_us", json::Value::number(meta.queueUs));
                else if (tk == "total_us" && meta.totalUs > 0.0)
                    t.set("total_us",
                          json::Value::number(meta.totalUs));
                else
                    t.set(tk, tv);
            }
            r.set("timings", std::move(t));
            continue;
        }
        r.set(key, val);
    }
    r.set(dedupFollower ? "dedup_follower" : "cache_hit",
          json::Value::boolean(true));
    return r.dump();
}

std::string
errorResponse(const std::string &id, const std::string &code,
              const std::string &message)
{
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("error"));
    r.set("code", json::Value::string(code));
    r.set("message", json::Value::string(message));
    return r.dump();
}

std::string
overloadedResponse(const std::string &id, int64_t retryAfterMs,
                   uint64_t queueDepth, const std::string &reason)
{
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("overloaded"));
    r.set("retry_after_ms", json::Value::number(retryAfterMs));
    r.set("queue_depth",
          json::Value::number(static_cast<int64_t>(queueDepth)));
    r.set("reason", json::Value::string(reason));
    return r.dump();
}

std::string
deadlineExceededResponse(const std::string &id, int64_t waitedMs)
{
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("error"));
    r.set("code", json::Value::string("serve.deadline-exceeded"));
    r.set("waited_ms", json::Value::number(waitedMs));
    r.set("message",
          json::Value::string("deadline passed after " +
                              std::to_string(waitedMs) +
                              "ms in the admission queue"));
    return r.dump();
}

std::string
cancelledResponse(const std::string &id, const std::string &reason)
{
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("cancelled"));
    r.set("reason", json::Value::string(reason));
    return r.dump();
}

} // namespace serve
} // namespace memoria
