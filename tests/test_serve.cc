/** Tests for the compile service (src/serve/): request parsing, the
 *  exactly-one-terminal-response invariant, admission-queue
 *  backpressure, circuit-breaker trip → half-open → reset, breaker-
 *  driven degraded service, and zero-loss drain. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "serve/breaker.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "serve/top.hh"
#include "strings.hh"
#include "support/json.hh"
#include "support/signals.hh"
#include "support/stats.hh"

namespace memoria {
namespace serve {
namespace {

const char *kSmallProgram = "PROGRAM t\n"
                            "  PARAMETER N = 8\n"
                            "  REAL*8 A(N,N)\n"
                            "  DO I = 1, N\n"
                            "    DO J = 1, N\n"
                            "      A(I,J) = A(I,J) + 1.0\n"
                            "    ENDDO\n"
                            "  ENDDO\n"
                            "END\n";

// Big enough that simulate takes well over the deadline used by the
// timeout test on the bytecode-tape interpreter (~7M iterations); the
// run is cancelled at the deadline, so test wall time stays bounded.
const char *kHeavyProgram = "PROGRAM heavy\n"
                            "  PARAMETER N = 192\n"
                            "  REAL*8 A(N,N)\n"
                            "  REAL*8 B(N,N)\n"
                            "  DO I = 1, N\n"
                            "    DO J = 1, N\n"
                            "      DO K = 1, N\n"
                            "        A(I,J) = A(I,J) + B(J,K)\n"
                            "      ENDDO\n"
                            "    ENDDO\n"
                            "  ENDDO\n"
                            "END\n";

std::string
requestLine(const std::string &id, const std::string &kind,
            const std::string &program, int64_t deadlineMs = 0)
{
    std::string line = "{\"id\":" + json::quote(id) +
                       ",\"kind\":" + json::quote(kind);
    if (!program.empty())
        line += ",\"program\":" + json::quote(program);
    if (deadlineMs > 0)
        line += ",\"deadline_ms\":" + std::to_string(deadlineMs);
    return line + "}";
}

/** Thread-safe response collector. */
struct Collector
{
    std::mutex mutex;
    std::vector<std::string> lines;

    Server::Respond
    fn()
    {
        return [this](const std::string &line) {
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
        };
    }

    json::Value
    parsed(size_t i)
    {
        Result<json::Value> v = json::parse(lines.at(i));
        EXPECT_TRUE(v.ok()) << lines.at(i);
        return v.ok() ? v.value() : json::Value();
    }

    /** Count of responses with the given "type". */
    int
    countType(const std::string &type)
    {
        int n = 0;
        for (size_t i = 0; i < lines.size(); ++i)
            if (parsed(i).getString("type") == type)
                ++n;
        return n;
    }
};

// ---------------------------------------------------------------------
// Protocol

TEST(Protocol, RejectsMalformedRequests)
{
    EXPECT_FALSE(parseRequest("not json").ok());
    EXPECT_FALSE(parseRequest("[1,2]").ok());
    EXPECT_FALSE(parseRequest("{\"kind\":\"compound\"}").ok())
        << "work requests need a program";
    EXPECT_FALSE(
        parseRequest("{\"kind\":\"explode\",\"program\":\"x\"}").ok());
    EXPECT_FALSE(parseRequest("{\"kind\":\"compound\","
                              "\"program\":\"x\",\"deadline_ms\":-1}")
                     .ok());
}

TEST(Protocol, ParsesWorkAndIntrospectionRequests)
{
    Result<Request> r =
        parseRequest(requestLine("42", "compound", kSmallProgram, 500));
    ASSERT_TRUE(r.ok()) << r.diag().str();
    EXPECT_EQ(r.value().id, "42");
    EXPECT_EQ(r.value().kind, RequestKind::Compound);
    EXPECT_EQ(r.value().deadlineMs, 500);

    Result<Request> h = parseRequest("{\"kind\":\"health\"}");
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value().kind, RequestKind::Health);
}

// ---------------------------------------------------------------------
// Circuit breaker state machine

TEST(Breaker, TripHalfOpenReset)
{
    BreakerOptions opts;
    opts.failureThreshold = 2;
    opts.cooldownMs = 40;
    CircuitBreaker b("test", opts);

    EXPECT_TRUE(b.allow());
    b.onFailure("boom 1");
    EXPECT_TRUE(b.allow());
    b.onFailure("boom 2");  // threshold reached: trips open

    CircuitBreaker::Snapshot snap = b.snapshot();
    EXPECT_EQ(snap.trips, 1);
    EXPECT_FALSE(b.allow()) << "open breaker rejects";
    EXPECT_GE(b.snapshot().rejected, 1);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_TRUE(b.allow()) << "cooldown elapsed: half-open probe";
    EXPECT_FALSE(b.allow()) << "only one probe in flight";

    b.onSuccess();  // probe succeeded: closed again
    snap = b.snapshot();
    EXPECT_EQ(snap.resets, 1);
    EXPECT_TRUE(b.allow());
}

TEST(Breaker, FailedProbeReopens)
{
    BreakerOptions opts;
    opts.failureThreshold = 1;
    opts.cooldownMs = 30;
    CircuitBreaker b("test", opts);

    b.onFailure("boom");
    EXPECT_FALSE(b.allow());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(b.allow());  // probe
    b.onFailure("probe failed");
    EXPECT_FALSE(b.allow()) << "failed probe reopens immediately";
    EXPECT_EQ(b.snapshot().trips, 2);
}

// ---------------------------------------------------------------------
// Server

ServeOptions
quietOptions()
{
    ServeOptions opts;
    opts.jobs = 2;
    opts.writeIncidents = false;  // unit tests don't litter artifacts/
    return opts;
}

TEST(Serve, HealthAndStatsBypassTheQueue)
{
    Server server(quietOptions());  // never started: no workers
    Collector out;
    server.handleLine("{\"id\":\"h\",\"kind\":\"health\"}", out.fn());
    server.handleLine("{\"id\":\"s\",\"kind\":\"stats\"}", out.fn());

    ASSERT_EQ(out.lines.size(), 2u);
    json::Value health = out.parsed(0);
    EXPECT_EQ(health.getString("type"), "health");
    EXPECT_EQ(health.getString("status"), "ok");
    ASSERT_NE(health.get("breakers"), nullptr);
    ASSERT_NE(health.get("requests"), nullptr);

    json::Value stats = out.parsed(1);
    EXPECT_EQ(stats.getString("type"), "stats");
    EXPECT_NE(stats.get("breakers"), nullptr);
    EXPECT_NE(stats.get("registry"), nullptr);
}

TEST(Serve, MalformedLineGetsExactlyOneError)
{
    Server server(quietOptions());
    Collector out;
    server.handleLine("this is not json", out.fn());
    server.handleLine("", out.fn());     // blank: ignored, no response
    server.handleLine("  \t ", out.fn());

    ASSERT_EQ(out.lines.size(), 1u);
    EXPECT_EQ(out.parsed(0).getString("type"), "error");
    EXPECT_EQ(out.parsed(0).getString("code"), "serve.request");
}

TEST(Serve, FullQueueShedsWithRetryAfter)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    opts.queueCapacity = 2;
    opts.retryAfterMs = 123;
    Server server(opts);  // not started: the queue only fills

    Collector out;
    for (int i = 0; i < 4; ++i)
        server.handleLine(requestLine(numbered("q", i),
                                      "analyze", kSmallProgram),
                          out.fn());

    // Two admitted silently, two shed immediately. retry_after_ms is
    // jittered ±20% around the configured base so a shed burst does
    // not come back as a synchronized retry storm.
    ASSERT_EQ(out.lines.size(), 2u);
    for (size_t i = 0; i < out.lines.size(); ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "overloaded");
        EXPECT_GE(v.getInt("retry_after_ms"), 99);   // 123 - 20%
        EXPECT_LE(v.getInt("retry_after_ms"), 147);  // 123 + 20%
    }
    EXPECT_EQ(server.requestCounters().shed, 2u);
    EXPECT_EQ(server.requestCounters().accepted, 2u);
    EXPECT_EQ(json::parse(server.healthLine("h")).value().getInt(
                  "queue_depth"),
              2);

    // Draining answers the admitted requests: nothing is lost.
    server.start();
    server.drain();
    ASSERT_EQ(out.lines.size(), 4u);
    EXPECT_EQ(out.countType("result"), 2);
    EXPECT_EQ(server.requestCounters().completed, 2u);
}

TEST(Serve, DrainLosesNoAcceptedRequests)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 3;
    opts.queueCapacity = 64;
    Server server(opts);
    server.start();

    Collector out;
    const int kRequests = 12;
    for (int i = 0; i < kRequests; ++i)
        server.handleLine(requestLine(numbered("r", i),
                                      i % 2 ? "compound" : "analyze",
                                      kSmallProgram),
                          out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), static_cast<size_t>(kRequests));
    std::map<std::string, int> perId;
    for (int i = 0; i < kRequests; ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "result") << out.lines[i];
        ++perId[v.getString("id")];
    }
    for (const auto &[id, n] : perId)
        EXPECT_EQ(n, 1) << "duplicate terminal response for " << id;
    EXPECT_EQ(perId.size(), static_cast<size_t>(kRequests));
    EXPECT_EQ(server.requestCounters().completed,
              static_cast<uint64_t>(kRequests));
}

TEST(Serve, DrainingServerCancelsNewWork)
{
    Server server(quietOptions());
    server.start();
    server.drain();

    Collector out;
    server.handleLine(requestLine("late", "analyze", kSmallProgram),
                      out.fn());
    ASSERT_EQ(out.lines.size(), 1u);
    EXPECT_EQ(out.parsed(0).getString("type"), "cancelled");

    // Introspection still works on a drained server.
    server.handleLine("{\"id\":\"h\",\"kind\":\"health\"}", out.fn());
    ASSERT_EQ(out.lines.size(), 2u);
    EXPECT_EQ(out.parsed(1).getString("status"), "draining");
}

TEST(Serve, RequestDeadlineTimesOutAndIsReported)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    Server server(opts);
    server.start();

    Collector out;
    // 25ms: an order of magnitude under the uncancelled simulate (so the
    // budget reliably expires mid-execution) but enough headroom that
    // scheduling delay on a loaded machine cannot expire it in the
    // admission queue first — deadline_ms=1 flaked as
    // `deadline-exceeded` whenever the worker popped >1ms late.
    server.handleLine(requestLine("t", "simulate", kHeavyProgram, 25),
                      out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 1u);
    json::Value v = out.parsed(0);
    EXPECT_EQ(v.getString("type"), "result");
    EXPECT_EQ(v.getString("status"), "timeout") << out.lines[0];
    ASSERT_NE(v.get("failures"), nullptr);
    EXPECT_FALSE(v.get("failures")->items().empty());
}

TEST(Serve, OpenOptimizeBreakerDegradesToIdentity)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    opts.breaker.cooldownMs = 60000;  // stays open for the whole test
    Server server(opts);

    // Trip the optimize breaker directly (threshold defaults to 3).
    for (int i = 0; i < opts.breaker.failureThreshold; ++i)
        server.breaker(Stage::Optimize).onFailure("induced");
    ASSERT_FALSE(server.breaker(Stage::Optimize).allow());

    server.start();
    Collector out;
    server.handleLine(requestLine("d", "compound", kSmallProgram),
                      out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 1u);
    json::Value v = out.parsed(0);
    EXPECT_EQ(v.getString("type"), "result");
    EXPECT_TRUE(v.getBool("degraded_by_breaker")) << out.lines[0];
    EXPECT_EQ(v.getString("rung"), "identity") << out.lines[0];
}

TEST(Serve, OpenLoadBreakerRejectsRequests)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    opts.breaker.cooldownMs = 60000;  // stays open for the whole test
    Server server(opts);
    for (int i = 0; i < opts.breaker.failureThreshold; ++i)
        server.breaker(Stage::Load).onFailure("induced");

    server.start();
    Collector out;
    server.handleLine(requestLine("x", "analyze", kSmallProgram),
                      out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 1u);
    json::Value v = out.parsed(0);
    EXPECT_EQ(v.getString("type"), "error");
    EXPECT_EQ(v.getString("code"), "serve.unavailable");
}

TEST(Serve, MixedCorpusGetsExactlyOneResponseEach)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 2;
    opts.queueCapacity = 64;
    Server server(opts);
    server.start();

    Collector out;
    int expected = 0;
    for (int i = 0; i < 8; ++i) {
        server.handleLine(requestLine(numbered("m", i),
                                      "analyze", kSmallProgram),
                          out.fn());
        ++expected;
    }
    server.handleLine("garbage", out.fn());
    ++expected;
    server.handleLine("{\"id\":\"h\",\"kind\":\"health\"}", out.fn());
    ++expected;
    server.handleLine("", out.fn());  // blank: no response expected
    server.drain();

    EXPECT_EQ(out.lines.size(), static_cast<size_t>(expected));
}

/** Programs the pipeline cannot run, a zero step and an element size
 *  the tape cannot hold, are answered with their diagnostic, and the
 *  request queued behind them on the one worker is still served. */
TEST(Serve, InvalidProgramsAreAnsweredAndTheNextRequestServed)
{
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    Server server(opts);
    server.start();

    const std::string zeroStep = "PROGRAM z\n"
                                 "  REAL*8 A(10)\n"
                                 "  DO I = 1, 10, 0\n"
                                 "    A(1) = 1.0\n"
                                 "  ENDDO\n"
                                 "END\n";
    const std::string wideElems = "PROGRAM w\n"
                                  "  PARAMETER N = 8\n"
                                  "  REAL*70000 A(N)\n"
                                  "  DO I = 1, N\n"
                                  "    A(I) = A(I) + 1.0\n"
                                  "  ENDDO\n"
                                  "END\n";
    Collector out;
    server.handleLine(requestLine("step", "simulate", zeroStep), out.fn());
    server.handleLine(requestLine("elem", "simulate", wideElems), out.fn());
    server.handleLine(requestLine("ok", "simulate", kSmallProgram),
                      out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 3u);
    std::map<std::string, json::Value> byId;
    for (size_t i = 0; i < out.lines.size(); ++i)
        byId[out.parsed(i).getString("id")] = out.parsed(i);
    EXPECT_EQ(byId["step"].getString("status"), "diag");
    EXPECT_EQ(byId["step"].getString("diag"),
              "parse.error at 3:17: loop step must be non-zero");
    EXPECT_EQ(byId["elem"].getString("status"), "diag");
    EXPECT_EQ(byId["elem"].getString("diag").rfind("validate.elem_size:", 0),
              0u);
    EXPECT_EQ(byId["ok"].getString("type"), "result");
    EXPECT_EQ(byId["ok"].getString("status"), "ok");
}

// ---------------------------------------------------------------------
// Request telemetry: timings, trace ids, the metrics kind, and top

TEST(Serve, ResultCarriesMonotonicStageTimings)
{
    Server server(quietOptions());
    server.start();

    Collector out;
    server.handleLine(
        "{\"id\":\"t1\",\"kind\":\"simulate\",\"program\":" +
            json::quote(kSmallProgram) + "}",
        out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 1u);
    json::Value v = out.parsed(0);
    ASSERT_EQ(v.getString("type"), "result") << out.lines[0];
    const json::Value *t = v.get("timings");
    ASSERT_NE(t, nullptr) << "result lacks a timings block";

    const double queueUs = t->getNumber("queue_us");
    const double loadUs = t->getNumber("load_us");
    const double optimizeUs = t->getNumber("optimize_us");
    const double verifyUs = t->getNumber("verify_us");
    const double simulateUs = t->getNumber("simulate_us");
    const double totalUs = t->getNumber("total_us");

    EXPECT_GE(queueUs, 0.0);
    EXPECT_GT(loadUs, 0.0) << "parsing the program takes time";
    EXPECT_GE(optimizeUs, 0.0);
    EXPECT_GE(verifyUs, 0.0);
    EXPECT_GT(simulateUs, 0.0) << "simulate requests simulate";
    EXPECT_GT(totalUs, 0.0);

    // The stages are disjoint slices of the request's wall time, so
    // their sum cannot exceed it (1us of float slack).
    EXPECT_LE(queueUs + loadUs + optimizeUs + verifyUs + simulateUs,
              totalUs + 1.0);
}

TEST(Serve, TraceIdEchoedWhenGivenMintedWhenAbsent)
{
    Server server(quietOptions());
    server.start();

    Collector out;
    server.handleLine(
        "{\"id\":\"a\",\"kind\":\"analyze\",\"trace_id\":\"tFEED\","
        "\"program\":" + json::quote(kSmallProgram) + "}",
        out.fn());
    server.handleLine(
        "{\"id\":\"b\",\"kind\":\"analyze\",\"program\":" +
            json::quote(kSmallProgram) + "}",
        out.fn());
    server.handleLine(
        "{\"id\":\"c\",\"kind\":\"analyze\",\"program\":" +
            json::quote(kSmallProgram) + "}",
        out.fn());
    server.drain();

    ASSERT_EQ(out.lines.size(), 3u);
    std::map<std::string, std::string> traceById;
    for (size_t i = 0; i < 3; ++i) {
        json::Value v = out.parsed(i);
        traceById[v.getString("id")] = v.getString("trace_id");
    }
    EXPECT_EQ(traceById["a"], "tFEED") << "client ids are echoed";
    EXPECT_FALSE(traceById["b"].empty()) << "server mints an id";
    EXPECT_FALSE(traceById["c"].empty());
    EXPECT_NE(traceById["b"], traceById["c"])
        << "two requests never share a minted trace id";
}

TEST(Serve, MetricsRequestAnswersInlineWithoutWorkers)
{
    obs::statsRegistry().resetValues();  // exact counts below
    Server server(quietOptions());  // never started: no workers
    Collector out;
    server.handleLine("{\"id\":\"m\",\"kind\":\"metrics\"}", out.fn());

    ASSERT_EQ(out.lines.size(), 1u);
    json::Value v = out.parsed(0);
    EXPECT_EQ(v.getString("type"), "metrics");
    EXPECT_EQ(v.getString("id"), "m");
    ASSERT_NE(v.get("registry"), nullptr);
    ASSERT_NE(v.get("breakers"), nullptr);
    EXPECT_GE(v.getInt("queue_capacity"), 1);

    // The embedded exposition is the same text the --metrics-port
    // endpoint serves.
    std::string expo = v.getString("exposition");
    EXPECT_NE(expo.find("# TYPE memoria_serve_requests_total counter"),
              std::string::npos)
        << expo.substr(0, 200);
    EXPECT_NE(expo.find("memoria_serve_requests_total 1"),
              std::string::npos)
        << "the metrics request itself is counted";
}

TEST(Top, ParsesMetricsResponseAndRendersFrame)
{
    obs::statsRegistry().resetValues();  // exact counts below
    Server server(quietOptions());
    server.start();
    Collector out;
    server.handleLine(
        "{\"id\":\"w\",\"kind\":\"compound\",\"program\":" +
            json::quote(kSmallProgram) + "}",
        out.fn());
    server.drain();
    server.handleLine("{\"id\":\"m\",\"kind\":\"metrics\"}", out.fn());
    ASSERT_EQ(out.lines.size(), 2u);

    TopSample cur = parseTopSample(out.parsed(1));
    ASSERT_TRUE(cur.valid);
    EXPECT_EQ(cur.counters["serve.requests_total"], 2u);
    EXPECT_TRUE(cur.draining);
    ASSERT_TRUE(cur.histograms.count("serve.latency_us.compound"));
    EXPECT_EQ(cur.histograms["serve.latency_us.compound"].count, 1u);
    EXPECT_FALSE(cur.breakers.empty());

    std::string frame = renderTopFrame(cur, nullptr);
    EXPECT_NE(frame.find("requests 2 total"), std::string::npos)
        << frame;
    EXPECT_NE(frame.find("compound"), std::string::npos);
    EXPECT_NE(frame.find("DRAINING"), std::string::npos);
    EXPECT_NE(frame.find("breakers"), std::string::npos);

    // RPS from a delta against a previous sample: 10 more requests
    // over one second.
    TopSample prev = cur;
    prev.tsMs = cur.tsMs - 1000;
    prev.counters["serve.requests_total"] = cur.counters["serve.requests_total"];
    cur.counters["serve.requests_total"] += 10;
    std::string frame2 = renderTopFrame(cur, &prev);
    EXPECT_NE(frame2.find("10.0 rps"), std::string::npos) << frame2;
}

TEST(Top, ParsesSnapshotFileLines)
{
    // The JSONL snapshot stream keys the registry as "stats".
    const char *line =
        "{\"ts_ms\":1000,\"queue_depth\":3,\"queue_capacity\":16,"
        "\"uptime_ms\":2000,\"draining\":false,"
        "\"stats\":{\"counters\":{\"serve.requests_total\":4},"
        "\"histograms\":{\"serve.stage.total_us\":{\"count\":4,"
        "\"p50\":100.0,\"p90\":200.0,\"p99\":300.0}}}}";
    Result<json::Value> v = json::parse(line);
    ASSERT_TRUE(v.ok());
    TopSample s = parseTopSample(v.value());
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.queueDepth, 3);
    EXPECT_EQ(s.counters["serve.requests_total"], 4u);
    EXPECT_DOUBLE_EQ(s.histograms["serve.stage.total_us"].p99, 300.0);
    // Lifetime-average RPS: 4 requests over 2s of uptime.
    std::string frame = renderTopFrame(s, nullptr);
    EXPECT_NE(frame.find("2.0 rps"), std::string::npos) << frame;

    TopSample bad = parseTopSample(json::Value::object());
    EXPECT_FALSE(bad.valid);
    EXPECT_NE(renderTopFrame(bad, nullptr).find("no metrics"),
              std::string::npos);
}

TEST(Top, RendersWorkerRowsFromSupervisedMetrics)
{
    const char *line =
        "{\"ts_ms\":1000,\"uptime_ms\":2000,\"queue_depth\":0,"
        "\"queue_capacity\":64,\"draining\":false,"
        "\"workers\":[{\"shard\":0,\"pid\":100,\"state\":\"up\","
        "\"inflight\":1,\"queued\":2,\"respawns\":3,\"crashes\":4,"
        "\"heartbeat_age_ms\":5},{\"shard\":1,\"pid\":-1,"
        "\"state\":\"down\",\"heartbeat_age_ms\":-1}],"
        "\"registry\":{\"counters\":{\"serve.requests_total\":1}}}";
    Result<json::Value> v = json::parse(line);
    ASSERT_TRUE(v.ok());
    TopSample s = parseTopSample(v.value());
    ASSERT_TRUE(s.valid);
    ASSERT_EQ(s.workers.size(), 2u);
    EXPECT_EQ(s.workers[0].pid, 100);
    EXPECT_EQ(s.workers[0].respawns, 3);
    EXPECT_EQ(s.workers[1].state, "down");

    std::string frame = renderTopFrame(s, nullptr);
    EXPECT_NE(frame.find("shard0"), std::string::npos) << frame;
    EXPECT_NE(frame.find("shard1"), std::string::npos);
    EXPECT_NE(frame.find("down"), std::string::npos);
}

// ---------------------------------------------------------------------
// Retry jitter

TEST(Protocol, RetryAfterJitterStaysInBounds)
{
    const int64_t base = 1000;
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = jitteredRetryAfterMs(base);
        EXPECT_GE(v, 800) << "more than 20% below base";
        EXPECT_LE(v, 1200) << "more than 20% above base";
        seen.insert(v);
    }
    // A constant would re-synchronize shed clients — the whole point
    // of the jitter is that it spreads.
    EXPECT_GT(seen.size(), 10u);

    // Degenerate bases still return something positive.
    EXPECT_GE(jitteredRetryAfterMs(0), 1);
    EXPECT_GE(jitteredRetryAfterMs(1), 1);
}

// ---------------------------------------------------------------------
// Hostile input: oversized lines, nesting bombs, node-count bombs

TEST(Protocol, OversizedLineRejectedAsTooLargeWithoutParsing)
{
    std::string big(1 << 20, 'x');
    Result<Request> r = parseRequest(big, 4096);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, "protocol.too-large");
}

TEST(Protocol, DeepNestingRejectedAsTooLarge)
{
    // 4 MiB budget, but 1000 levels of nesting: depth, not size,
    // must trip the cap.
    std::string bomb = "{\"id\":\"d\",\"kind\":\"health\",\"x\":";
    for (int i = 0; i < 1000; ++i)
        bomb += "[";
    bomb += "1";
    for (int i = 0; i < 1000; ++i)
        bomb += "]";
    bomb += "}";
    Result<Request> r = parseRequest(bomb);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, "protocol.too-large");
}

TEST(Json, NodeCountBombTripsTheLimitDiag)
{
    // Tiny input, huge node count: "[],[],[]..." amplifies ~60x in
    // memory. The parser's maxNodes cap reports "json.limit", the
    // code protocol.cc maps to protocol.too-large.
    std::string bomb = "[";
    for (int i = 0; i < 5000; ++i)
        bomb += "[],";
    bomb += "[]]";
    json::ParseOptions popts;
    popts.maxNodes = 1000;
    Result<json::Value> r = json::parse(bomb, popts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, "json.limit");

    // Same input under the default (1M) cap parses fine — the limit
    // exists for bombs, not for real requests.
    EXPECT_TRUE(json::parse(bomb).ok());
}

TEST(Serve, HostileInputFuzzGetsStructuredRejections)
{
    ServeOptions opts = quietOptions();
    opts.maxRequestBytes = 4096;
    Server server(opts);  // never started: rejections are inline
    Collector out;

    std::vector<std::string> hostile;
    hostile.push_back(std::string(8192, 'A'));            // oversized
    hostile.push_back("{\"id\":\"x\",\"kind\":");          // truncated
    hostile.push_back(std::string("\x00\xff\xfe garbage", 11));  // binary
    hostile.push_back("[[[[[[[[[[[[[[[[[[[[");             // unclosed
    {
        std::string deep = "{\"a\":";                      // deep
        for (int i = 0; i < 64; ++i)
            deep += "{\"a\":";
        deep += "1";
        for (int i = 0; i < 64; ++i)
            deep += "}";
        deep += "}";
        hostile.push_back(deep);
    }
    for (const std::string &line : hostile)
        server.handleLine(line, out.fn());

    ASSERT_EQ(out.lines.size(), hostile.size())
        << "every hostile line gets exactly one structured rejection";
    int tooLarge = 0;
    for (size_t i = 0; i < out.lines.size(); ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "error") << out.lines[i];
        std::string code = v.getString("code");
        EXPECT_TRUE(code == "serve.request" ||
                    code == "protocol.too-large")
            << code;
        if (code == "protocol.too-large")
            ++tooLarge;
    }
    EXPECT_GE(tooLarge, 2) << "size and depth caps both engage";
}

// ---------------------------------------------------------------------
// Write-ahead journal

TEST(Journal, AdmitDoneLifecycleAndReadback)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "memoria_j1.jsonl")
            .string();
    {
        Result<std::unique_ptr<Journal>> j = Journal::open(path);
        ASSERT_TRUE(j.ok()) << j.diag().str();
        Journal &journal = *j.value();
        journal.appendAdmit(1, "a", "analyze", 0, true, "{\"id\":\"a\"}");
        journal.appendAdmit(2, "b", "compound", 1, false,
                            "{\"id\":\"b\"}");
        journal.appendDone(1, "ok");
        journal.appendEvent("crash", {{"shard", "1"}, {"why", "test"}});
        EXPECT_EQ(journal.depth(), 1u);
        journal.sync();

        // seq 2 was admitted but never answered: readIncomplete must
        // surface exactly it.
        Result<std::vector<JournalEntry>> open =
            Journal::readIncomplete(path);
        ASSERT_TRUE(open.ok());
        ASSERT_EQ(open.value().size(), 1u);
        EXPECT_EQ(open.value()[0].seq, 2u);
        EXPECT_EQ(open.value()[0].id, "b");
        EXPECT_EQ(open.value()[0].kind, "compound");
        EXPECT_FALSE(open.value()[0].replay);
        EXPECT_EQ(open.value()[0].line, "{\"id\":\"b\"}");

        journal.appendDone(2, "worker-crashed");
        EXPECT_EQ(journal.depth(), 0u);
        journal.sync();
    }
    Result<std::vector<JournalEntry>> open = Journal::readIncomplete(path);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty()) << "clean close leaves no orphans";
    std::remove(path.c_str());
}

TEST(Journal, RotatesOnlyWhenQuiescentAndOverBudget)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "memoria_j2.jsonl")
            .string();
    JournalOptions jopts;
    jopts.maxBytes = 512;
    jopts.syncEveryRecords = 1;
    Result<std::unique_ptr<Journal>> j = Journal::open(path, jopts);
    ASSERT_TRUE(j.ok());
    Journal &journal = *j.value();

    // Push well past maxBytes with an admit held open: no rotation
    // while any request is unanswered.
    journal.appendAdmit(1, "pin", "analyze", 0, true, "{}");
    for (int i = 0; i < 20; ++i)
        journal.appendEvent("spawn", {{"shard", "0"}});
    size_t before = journal.bytes();
    EXPECT_GT(before, jopts.maxBytes);

    // The done both closes the window and triggers the rotation.
    journal.appendDone(1, "ok");
    EXPECT_LT(journal.bytes(), before);
    EXPECT_EQ(journal.depth(), 0u);
    std::remove(path.c_str());
}

TEST(Journal, RecycleEventsAndTornTailReadBackAsRecycleNotCrash)
{
    // A worker recycled mid-journal-write must audit as a graceful
    // recycle: the event records pass through readback untouched, the
    // torn tail is skipped, and only genuinely unanswered admits
    // surface — exactly the file a max-RSS recycle racing a kill -9
    // of the supervisor leaves behind.
    std::string path =
        (std::filesystem::temp_directory_path() / "memoria_j4.jsonl")
            .string();
    {
        std::ofstream out(path);
        out << "{\"op\":\"admit\",\"seq\":1,\"id\":\"a\","
               "\"kind\":\"analyze\",\"shard\":0,\"replay\":true,"
               "\"line\":\"{}\"}\n";
        out << "{\"op\":\"recycle_begin\",\"shard\":\"0\","
               "\"reason\":\"rss\",\"inflight\":\"1\"}\n";
        out << "{\"op\":\"done\",\"seq\":1,\"outcome\":\"ok\"}\n";
        out << "{\"op\":\"recycle\",\"shard\":\"0\","
               "\"reason\":\"rss\"}\n";
        out << "{\"op\":\"admit\",\"seq\":2,\"id\":\"b\","
               "\"kind\":\"analyze\",\"shard\":0,\"replay\":true,"
               "\"line\":\"{}\"}\n";
        out << "{\"op\":\"recycle_begin\",\"sha";  // torn mid-recycle
    }
    Result<std::vector<JournalEntry>> open = Journal::readIncomplete(path);
    ASSERT_TRUE(open.ok()) << open.diag().str();
    ASSERT_EQ(open.value().size(), 1u)
        << "recycle records and the torn tail must not pollute the audit";
    EXPECT_EQ(open.value()[0].seq, 2u);
    EXPECT_EQ(open.value()[0].id, "b");
    std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsSkippedOnReadback)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "memoria_j3.jsonl")
            .string();
    {
        std::ofstream out(path);
        out << "{\"op\":\"admit\",\"seq\":7,\"id\":\"x\","
               "\"kind\":\"analyze\",\"shard\":0,\"replay\":true,"
               "\"line\":\"{}\"}\n";
        out << "{\"op\":\"done\",\"se";  // killed mid-append
    }
    Result<std::vector<JournalEntry>> open = Journal::readIncomplete(path);
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(open.value().size(), 1u)
        << "torn tail ignored, whole records honored";
    EXPECT_EQ(open.value()[0].seq, 7u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Drain racing a signal under saturation

TEST(Serve, DrainRacingSignalUnderSaturationLosesNothing)
{
    signals::resetForTest();
    std::string snapshots =
        (std::filesystem::temp_directory_path() /
         "memoria_drain_race.jsonl")
            .string();
    std::remove(snapshots.c_str());

    ServeOptions opts = quietOptions();
    opts.jobs = 2;
    opts.queueCapacity = 4;  // saturates under the burst below
    opts.metricsPath = snapshots;
    Server server(opts);
    server.start();

    Collector out;
    const int kBurst = 32;
    for (int i = 0; i < kBurst; ++i)
        server.handleLine(requestLine(numbered("r", i),
                                      "analyze", kSmallProgram),
                          out.fn());

    // A SIGTERM-style drain request lands while a scraper hammers the
    // inline metrics path and a second drainer races the first.
    std::thread scraper([&server, &out] {
        for (int i = 0; i < 50; ++i) {
            server.handleLine("{\"id\":\"m\",\"kind\":\"metrics\"}",
                              out.fn());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    signals::requestDrain();
    std::thread racer([&server] { server.drain(); });
    server.drain();
    racer.join();
    scraper.join();
    EXPECT_TRUE(signals::drainRequested());

    // Exactly one terminal response per work request — completed or
    // shed, never silence, never duplicates.
    std::map<std::string, int> perId;
    int metricsSeen = 0;
    {
        std::lock_guard<std::mutex> lock(out.mutex);
        for (const std::string &line : out.lines) {
            Result<json::Value> v = json::parse(line);
            ASSERT_TRUE(v.ok()) << line;
            if (v.value().getString("type") == "metrics") {
                ++metricsSeen;
                continue;
            }
            ++perId[v.value().getString("id")];
        }
    }
    EXPECT_EQ(perId.size(), static_cast<size_t>(kBurst));
    for (const auto &[id, n] : perId)
        EXPECT_EQ(n, 1) << "duplicate terminal response for " << id;
    EXPECT_EQ(metricsSeen, 50);

    // The drain wrote the final snapshot despite the race.
    std::ifstream in(snapshots);
    ASSERT_TRUE(in.good());
    std::string line;
    int snapshotLines = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++snapshotLines;
    EXPECT_EQ(snapshotLines, 1)
        << "exactly one final snapshot, no duplicate from the racer";
    std::remove(snapshots.c_str());
    signals::resetForTest();
}

// ---------------------------------------------------------------------
// Status documents: the key sets of health, stats, metrics and a JSONL
// metrics snapshot, pinned per mode.

/** Every key path of `v` in document order: "a", "a.b", and "a[].c"
 *  inside arrays (first element only). The registry dumps ("registry",
 *  "stats") hold whatever stats exist, so they are named, not entered. */
void
collectKeyPaths(const json::Value &v, const std::string &prefix,
                std::vector<std::string> &out)
{
    if (v.isArray()) {
        if (!v.items().empty())
            collectKeyPaths(v.items().front(), prefix + "[]", out);
        return;
    }
    for (const json::Member &m : v.members()) {
        const std::string path =
            prefix.empty() ? m.first : prefix + "." + m.first;
        out.push_back(path);
        if (m.first != "registry" && m.first != "stats")
            collectKeyPaths(m.second, path, out);
    }
}

/** The key paths of one JSON document, space-separated. */
std::string
keyPaths(const std::string &line)
{
    Result<json::Value> v = json::parse(line);
    EXPECT_TRUE(v.ok()) << line;
    std::vector<std::string> paths;
    if (v.ok())
        collectKeyPaths(v.value(), "", paths);
    std::string joined;
    for (const std::string &p : paths)
        joined += (joined.empty() ? "" : " ") + p;
    return joined;
}

/** The last non-empty line of a file ("" when there is none). */
std::string
lastLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line, last;
    while (std::getline(in, line))
        if (!line.empty())
            last = line;
    return last;
}

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            (stem + std::to_string(::getpid()) + ".jsonl"))
        .string();
}

/** The `breakers` block's key paths (in-process shard). */
const std::string kBreakerPaths =
    "breakers breakers.load breakers.load.state "
    "breakers.load.consecutive_failures breakers.load.failures "
    "breakers.load.successes breakers.load.trips "
    "breakers.load.resets breakers.load.rejected "
    "breakers.optimize breakers.optimize.state "
    "breakers.optimize.consecutive_failures "
    "breakers.optimize.failures breakers.optimize.successes "
    "breakers.optimize.trips breakers.optimize.resets "
    "breakers.optimize.rejected breakers.simulate "
    "breakers.simulate.state "
    "breakers.simulate.consecutive_failures "
    "breakers.simulate.failures breakers.simulate.successes "
    "breakers.simulate.trips breakers.simulate.resets "
    "breakers.simulate.rejected";

/** The key paths of one `worker_table` / `workers` row. */
std::string
workerRowPaths(const std::string &array)
{
    std::string out;
    for (const char *f : {"shard", "pid", "state", "inflight", "queued",
                          "respawns", "crashes", "recycles", "served",
                          "rss_bytes", "heartbeat_age_ms"})
        out += std::string(out.empty() ? "" : " ") + array + "[]." + f;
    return out;
}

/** The health keys both modes share, up to `admission`. */
std::string
healthHeadPaths(const std::string &mode)
{
    return "id type status version uptime_ms " + mode +
           " queue_depth queue_capacity requests requests.received "
           "requests.accepted requests.completed requests.shed "
           "requests.cancelled requests.errors admission "
           "admission.queued_interactive admission.queued_batch "
           "admission.inflight admission.recycles";
}

TEST(StatusKeys, InProcessServeMatchesGolden)
{
    signals::resetForTest();
    const std::string snapshots = tempPath("memoria_keys_server");
    std::remove(snapshots.c_str());
    ServeOptions opts = quietOptions();
    opts.rssSoftBytes = uint64_t{1} << 40;  // a governor that never trips
    opts.metricsPath = snapshots;
    Server server(opts);
    server.start();

    EXPECT_EQ(keyPaths(server.healthLine("h")),
              healthHeadPaths("jobs") + " " + kBreakerPaths +
                  " governor governor.rss_bytes governor.soft_bytes "
                  "governor.hard_bytes governor.soft_pressure "
                  "governor.hard_pressure governor.soft_trips "
                  "governor.hard_trips cache cache.hits cache.misses "
                  "cache.inflight_joins cache.evictions cache.entries "
                  "cache.bytes cache.snapshot_rejected "
                  "cache.snapshot_loaded_entries");
    EXPECT_EQ(keyPaths(server.statsLine("s")),
              "id type " + kBreakerPaths + " registry");
    EXPECT_EQ(keyPaths(server.metricsLine("m")),
              "id type ts_ms uptime_ms queue_depth queue_capacity "
              "draining " + kBreakerPaths + " registry exposition");
    server.drain();
    EXPECT_EQ(keyPaths(lastLine(snapshots)),
              "ts_ms queue_depth queue_capacity uptime_ms draining " +
                  kBreakerPaths + " stats");
    std::remove(snapshots.c_str());
}

// ---------------------------------------------------------------------
// Supervisor: multi-process shard workers (spawns the real binary)

#ifdef MEMORIA_BIN

SupervisorOptions
supervisedOptions(int workers)
{
    SupervisorOptions opts;
    opts.workers = workers;
    opts.workerCommand = {MEMORIA_BIN, "serve", "--jobs", "2",
                          "--no-incidents", "--allow-faults"};
    opts.serve.writeIncidents = false;
    opts.serve.allowFaultRequests = true;
    opts.backoffBaseMs = 50;  // fast respawns keep the test short
    opts.journalPath =
        (std::filesystem::temp_directory_path() /
         ("memoria_sup_j" + std::to_string(::getpid()) + ".jsonl"))
            .string();
    return opts;
}

/** A parseable program whose text varies with `i` (and therefore its
 *  shard assignment). */
std::string
shardProgram(int i)
{
    std::string s = kSmallProgram;
    auto pos = s.find("PROGRAM t");
    return s.substr(0, pos) + "PROGRAM t" + std::to_string(i) +
           s.substr(pos + 9);
}

/** First program variant the consistent hash lands on `shard`. */
std::string
programOnShard(const Supervisor &sup, int shard)
{
    for (int i = 0; i < 256; ++i) {
        std::string p = shardProgram(i);
        if (sup.shardOf(p) == shard)
            return p;
    }
    ADD_FAILURE() << "no program variant hashed to shard " << shard;
    return shardProgram(0);
}

/** Wait until `pred` holds or ~deadlineMs passes. */
template <typename Pred>
bool
waitFor(Pred pred, int64_t deadlineMs = 10000)
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(deadlineMs);
    while (std::chrono::steady_clock::now() < until) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return pred();
}

TEST(Supervisor, ShardHashIsStableAndCoversWorkers)
{
    Supervisor sup(supervisedOptions(2));  // never started: pure hash
    std::set<int> hit;
    for (int i = 0; i < 64; ++i) {
        std::string p = shardProgram(i);
        int s = sup.shardOf(p);
        EXPECT_EQ(s, sup.shardOf(p)) << "hash must be deterministic";
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 2);
        hit.insert(s);
    }
    EXPECT_EQ(hit.size(), 2u) << "64 variants must cover both shards";
}

TEST(Supervisor, ServesWorkThroughShardWorkers)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(2);
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    Collector out;
    const int kRequests = 8;
    for (int i = 0; i < kRequests; ++i)
        sup.handleLine(requestLine(numbered("w", i), "analyze",
                                   shardProgram(i)),
                       out.fn());
    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= static_cast<size_t>(kRequests);
    })) << "workers must answer all forwarded requests";

    std::map<std::string, int> perId;
    for (int i = 0; i < kRequests; ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "result") << out.lines[i];
        ++perId[v.getString("id")];
    }
    EXPECT_EQ(perId.size(), static_cast<size_t>(kRequests));
    for (const auto &[id, n] : perId)
        EXPECT_EQ(n, 1) << id;

    sup.drain();
    EXPECT_EQ(sup.requestCounters().completed,
              static_cast<uint64_t>(kRequests));

    // Post-drain the journal audits clean: every admit has a done.
    Result<std::vector<JournalEntry>> open =
        Journal::readIncomplete(journalPath);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty());
    std::remove(journalPath.c_str());
}

TEST(Supervisor, WorkerCrashRetriesIdempotentAndRespawns)
{
    signals::resetForTest();
    obs::statsRegistry().resetValues();
    SupervisorOptions opts = supervisedOptions(2);
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    const std::string victim = programOnShard(sup, 0);
    const std::string bystander = programOnShard(sup, 1);

    Collector out;
    // Park legitimate work on the sibling shard first.
    sup.handleLine(requestLine("calm", "analyze", bystander), out.fn());

    // An idempotent request whose processing aborts the shard-0
    // worker: the supervisor must respawn the worker and transparently
    // retry (the fault spec is stripped on the second attempt).
    sup.handleLine("{\"id\":\"boom\",\"kind\":\"analyze\",\"program\":" +
                       json::quote(victim) +
                       ",\"fault\":\"serve.worker.crash:abort\"}",
                   out.fn());

    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= 2u;
    })) << "both requests must resolve despite the crash";

    json::Value calm, boom;
    for (size_t i = 0; i < 2; ++i) {
        json::Value v = out.parsed(i);
        if (v.getString("id") == "calm")
            calm = std::move(v);
        else if (v.getString("id") == "boom")
            boom = std::move(v);
    }
    EXPECT_EQ(calm.getString("type"), "result")
        << "sibling shard must be unaffected by the crash";
    EXPECT_EQ(boom.getString("type"), "result")
        << "idempotent request must be retried, not failed";
    EXPECT_TRUE(boom.getBool("retried"))
        << "the response must disclose it came from a retry";

    // The respawn is visible: worker rows and the counters both say
    // shard 0 died once and came back.
    ASSERT_TRUE(waitFor([&] {
        std::vector<WorkerRow> rows = sup.workerRows();
        return rows[0].state == "up" && rows[0].respawns >= 1;
    })) << "shard 0 must respawn after the abort";
    std::vector<WorkerRow> rows = sup.workerRows();
    EXPECT_GE(rows[0].crashes, 1u);
    EXPECT_EQ(rows[1].crashes, 0u) << "sibling never died";
    EXPECT_GE(obs::counter("serve.worker.respawns").value(), 1u);
    EXPECT_GE(obs::counter("serve.worker.retries").value(), 1u);

    // The crash kind was classified from the wait status.
    EXPECT_GE(obs::counter("serve.worker.crash.sigabrt").value(), 1u);

    // And `memoria top` renders the respawn from the metrics line.
    Result<json::Value> metrics = json::parse(sup.metricsLine("t"));
    ASSERT_TRUE(metrics.ok());
    TopSample sample = parseTopSample(metrics.value());
    ASSERT_TRUE(sample.valid);
    ASSERT_EQ(sample.workers.size(), 2u);
    EXPECT_GE(sample.workers[0].respawns, 1);

    sup.drain();
    Result<std::vector<JournalEntry>> open =
        Journal::readIncomplete(journalPath);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty())
        << "crash-retried requests still audit as answered";
    std::remove(journalPath.c_str());
}

TEST(Supervisor, NonIdempotentCrashGetsWorkerCrashedError)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(2);
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    const std::string victim = programOnShard(sup, 0);

    Collector out;
    // compound without "replay": the supervisor must NOT re-run it.
    sup.handleLine("{\"id\":\"nc\",\"kind\":\"compound\",\"program\":" +
                       json::quote(victim) +
                       ",\"fault\":\"serve.worker.crash:abort\"}",
                   out.fn());
    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= 1u;
    }));
    json::Value v = out.parsed(0);
    EXPECT_EQ(v.getString("type"), "error") << out.lines[0];
    EXPECT_EQ(v.getString("code"), "serve.worker-crashed");

    // With explicit opt-in, the same compound IS replayed and
    // succeeds on the respawned worker.
    sup.handleLine("{\"id\":\"rc\",\"kind\":\"compound\",\"program\":" +
                       json::quote(victim) +
                       ",\"fault\":\"serve.worker.crash:abort\"" +
                       ",\"replay\":true}",
                   out.fn());
    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= 2u;
    }));
    json::Value rv = out.parsed(1);
    EXPECT_EQ(rv.getString("type"), "result") << out.lines[1];
    EXPECT_TRUE(rv.getBool("retried"));

    sup.drain();
    std::remove(journalPath.c_str());
}

TEST(Supervisor, DrainCancelsQueuedAndExitsWorkersCleanly)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(2);
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    Collector out;
    for (int i = 0; i < 4; ++i)
        sup.handleLine(requestLine(numbered("d", i), "analyze",
                                   shardProgram(i)),
                       out.fn());
    sup.drain();

    // Every admitted request resolved (result or cancelled), and new
    // work is refused.
    {
        std::lock_guard<std::mutex> lock(out.mutex);
        EXPECT_EQ(out.lines.size(), 4u);
    }
    sup.handleLine(requestLine("late", "analyze", shardProgram(9)),
                   out.fn());
    {
        std::lock_guard<std::mutex> lock(out.mutex);
        ASSERT_EQ(out.lines.size(), 5u);
    }
    EXPECT_EQ(out.parsed(4).getString("type"), "cancelled");

    Result<std::vector<JournalEntry>> open =
        Journal::readIncomplete(journalPath);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty());
    std::remove(journalPath.c_str());
}

/** The first `n` program variants that hash to `shard`. */
std::vector<std::string>
programsOnShard(const Supervisor &sup, int shard, int n)
{
    std::vector<std::string> out;
    for (int i = 0; i < 1024 && static_cast<int>(out.size()) < n; ++i) {
        std::string p = shardProgram(i);
        if (sup.shardOf(p) == shard)
            out.push_back(p);
    }
    EXPECT_EQ(out.size(), static_cast<size_t>(n));
    return out;
}

TEST(Supervisor, MaxRequestsRecycleIsGracefulAndLosesNothing)
{
    signals::resetForTest();
    obs::statsRegistry().resetValues();
    SupervisorOptions opts = supervisedOptions(2);
    opts.maxRequestsPerWorker = 3;  // recycle every third answer
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    const int kRequests = 8;  // forces at least two recycles on shard 0
    std::vector<std::string> programs =
        programsOnShard(sup, 0, kRequests);
    Collector out;
    for (int i = 0; i < kRequests; ++i)
        sup.handleLine(requestLine(numbered("g", i), "analyze",
                                   programs[i]),
                       out.fn());

    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= static_cast<size_t>(kRequests);
    })) << "requests spanning a recycle must all be answered";

    // Exactly one *successful* terminal response per id: the recycle
    // is invisible to clients — no errors, no retries needed (the
    // worker drains its in-flight before exiting).
    std::map<std::string, int> perId;
    for (int i = 0; i < kRequests; ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "result") << out.lines[i];
        ++perId[v.getString("id")];
    }
    EXPECT_EQ(perId.size(), static_cast<size_t>(kRequests));
    for (const auto &[id, n] : perId)
        EXPECT_EQ(n, 1) << id;

    // The recycle is classified as graceful, not a crash.
    ASSERT_TRUE(waitFor([&] {
        std::vector<WorkerRow> rows = sup.workerRows();
        return rows[0].state == "up" && rows[0].recycles >= 2;
    })) << "shard 0 must recycle (twice for 8 answers at 3/life) and "
           "come back up";
    std::vector<WorkerRow> rows = sup.workerRows();
    EXPECT_EQ(rows[0].crashes, 0u)
        << "a graceful recycle must never count as a crash";
    EXPECT_EQ(rows[1].recycles, 0u) << "sibling shard untouched";
    EXPECT_GE(obs::counter("serve.worker.recycled").value(), 2u);
    EXPECT_EQ(obs::counter("serve.worker.crash.sigabrt").value(), 0u);
    EXPECT_EQ(obs::counter("serve.worker.retries").value(), 0u)
        << "nothing was re-run; in-flight drained before exit";

    // And the metrics line renders the recycle for `memoria top`.
    Result<json::Value> metrics = json::parse(sup.metricsLine("t"));
    ASSERT_TRUE(metrics.ok());
    TopSample sample = parseTopSample(metrics.value());
    ASSERT_TRUE(sample.valid);
    ASSERT_EQ(sample.workers.size(), 2u);
    EXPECT_GE(sample.workers[0].recycles, 2);

    sup.drain();
    Result<std::vector<JournalEntry>> open =
        Journal::readIncomplete(journalPath);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty())
        << "recycles admit/done-balance the journal like normal work";
    std::remove(journalPath.c_str());
}

TEST(Supervisor, SighupRollingRestartUnderLoadLosesNothing)
{
    signals::resetForTest();
    obs::statsRegistry().resetValues();
    SupervisorOptions opts = supervisedOptions(2);
    std::string journalPath = opts.journalPath;
    Supervisor sup(opts);
    sup.start();

    // Load both shards, then request the roll mid-stream.
    Collector out;
    const int kRequests = 16;
    for (int i = 0; i < kRequests; ++i) {
        sup.handleLine(requestLine(numbered("h", i), "analyze",
                                   shardProgram(i)),
                       out.fn());
        if (i == 4)
            signals::requestHup();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // The roll visits every shard, one at a time, and the fleet ends
    // whole.
    ASSERT_TRUE(waitFor([&] {
        std::vector<WorkerRow> rows = sup.workerRows();
        return rows[0].recycles >= 1 && rows[1].recycles >= 1 &&
               rows[0].state == "up" && rows[1].state == "up";
    })) << "SIGHUP must recycle every shard and end with all workers up";
    EXPECT_GE(obs::counter("serve.rolling_restarts").value(), 1u);

    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= static_cast<size_t>(kRequests);
    })) << "every request sent across the roll must be answered";

    std::map<std::string, int> perId;
    for (int i = 0; i < kRequests; ++i) {
        json::Value v = out.parsed(i);
        EXPECT_EQ(v.getString("type"), "result") << out.lines[i];
        ++perId[v.getString("id")];
    }
    EXPECT_EQ(perId.size(), static_cast<size_t>(kRequests));
    for (const auto &[id, n] : perId)
        EXPECT_EQ(n, 1) << "duplicate response for " << id;

    std::vector<WorkerRow> rows = sup.workerRows();
    EXPECT_EQ(rows[0].crashes, 0u);
    EXPECT_EQ(rows[1].crashes, 0u);

    sup.drain();
    Result<std::vector<JournalEntry>> open =
        Journal::readIncomplete(journalPath);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().empty());
    std::remove(journalPath.c_str());
}

TEST(Supervisor, QueueOptionBoundsEachShard)
{
    SupervisorOptions opts = supervisedOptions(2);
    opts.journalPath.clear();
    opts.serve.queueCapacity = 2;
    opts.serve.drainDeadlineMs = 50;  // never started: nothing runs
    Collector out;
    Supervisor sup(opts);

    std::vector<std::string> programs = programsOnShard(sup, 0, 3);
    for (int i = 0; i < 3; ++i)
        sup.handleLine(requestLine(numbered("q", i), "analyze",
                                   programs[i]),
                       out.fn());

    // Two queue silently on shard 0; the third is shed on arrival.
    ASSERT_EQ(out.lines.size(), 1u);
    json::Value shed = out.parsed(0);
    EXPECT_EQ(shed.getString("id"), "q2");
    EXPECT_EQ(shed.getString("type"), "overloaded");
    EXPECT_EQ(shed.getString("reason"), "queue-full");
    EXPECT_EQ(sup.requestCounters().accepted, 2u);

    Result<json::Value> health = json::parse(sup.healthLine("h"));
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health.value().getInt("queue_depth"), 2);
    EXPECT_EQ(health.value().getInt("queue_capacity"), 2 * 2)
        << "queue_capacity is the per-shard bound times the shards";
    sup.drain();
}

/** A simulate program that takes tens of ms; `i` varies its text. */
std::string
warmSimulateProgram(int i)
{
    return "PROGRAM warm" + std::to_string(i) +
           "\n"
           "  PARAMETER N = 64\n"
           "  REAL*8 A(N,N)\n"
           "  REAL*8 B(N,N)\n"
           "  DO I = 1, N\n"
           "    DO J = 1, N\n"
           "      DO K = 1, N\n"
           "        A(I,J) = A(I,J) + B(J,K)\n"
           "      ENDDO\n"
           "    ENDDO\n"
           "  ENDDO\n"
           "END\n";
}

TEST(Supervisor, FrontShedsInfeasibleDeadlineFromPerKindEstimate)
{
    signals::resetForTest();
    obs::statsRegistry().resetValues();
    SupervisorOptions opts = supervisedOptions(1);
    opts.workerCommand.push_back("--no-cache");  // every warm-up runs
    const std::string journalPath = opts.journalPath;
    Collector out;
    {
        Supervisor sup(opts);
        sup.start();

        // Eight samples of real simulate work give the front its
        // per-kind p90 (tens of ms).
        const int kWarm = 8;
        for (int i = 0; i < kWarm; ++i)
            sup.handleLine(requestLine(numbered("warm", i),
                                       "simulate",
                                       warmSimulateProgram(i)),
                           out.fn());
        ASSERT_TRUE(waitFor(
            [&] {
                std::lock_guard<std::mutex> lock(out.mutex);
                return out.lines.size() >= static_cast<size_t>(kWarm);
            },
            60000));
        for (int i = 0; i < kWarm; ++i)
            ASSERT_EQ(out.parsed(i).getString("type"), "result")
                << out.lines[i];

        const uint64_t before =
            obs::counter("serve.shed.deadline_infeasible").value();
        sup.handleLine(requestLine("tight", "simulate",
                                   warmSimulateProgram(kWarm), 5),
                       out.fn());
        {
            std::lock_guard<std::mutex> lock(out.mutex);
            ASSERT_EQ(out.lines.size(), static_cast<size_t>(kWarm + 1))
                << "an infeasible deadline is shed on arrival";
        }
        json::Value v = out.parsed(kWarm);
        EXPECT_EQ(v.getString("id"), "tight");
        EXPECT_EQ(v.getString("type"), "overloaded") << out.lines[kWarm];
        EXPECT_EQ(v.getString("reason"), "deadline-infeasible");
        EXPECT_EQ(obs::counter("serve.shed.deadline_infeasible").value(),
                  before + 1);
        sup.drain();
    }

    // The front decided before admitting: nothing was journaled or
    // forwarded for the shed request.
    std::ifstream in(journalPath);
    ASSERT_TRUE(in.good());
    std::string line;
    int admits = 0;
    while (std::getline(in, line)) {
        Result<json::Value> rec = json::parse(line);
        if (!rec.ok() || rec.value().getString("op") != "admit")
            continue;
        ++admits;
        EXPECT_NE(rec.value().getString("id"), "tight");
    }
    EXPECT_EQ(admits, 8);
    std::remove(journalPath.c_str());
}

TEST(Supervisor, HealthSharesItsKeysWithSingleProcessServe)
{
    Server server(quietOptions());
    SupervisorOptions opts = supervisedOptions(2);
    opts.journalPath.clear();
    Supervisor sup(opts);  // neither is started: health is inline

    Result<json::Value> single = json::parse(server.healthLine("h"));
    Result<json::Value> multi = json::parse(sup.healthLine("h"));
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(multi.ok());
    for (const char *key : {"status", "version", "uptime_ms",
                            "queue_depth", "queue_capacity", "requests",
                            "admission"}) {
        EXPECT_NE(single.value().get(key), nullptr) << key;
        EXPECT_NE(multi.value().get(key), nullptr) << key;
    }
    // And each mode keeps its own blocks.
    EXPECT_NE(single.value().get("breakers"), nullptr);
    EXPECT_NE(multi.value().get("worker_table"), nullptr);
}

TEST(StatusKeys, SupervisorWithOneWorkerMatchesGolden)
{
    signals::resetForTest();
    const std::string snapshots = tempPath("memoria_keys_sup");
    std::remove(snapshots.c_str());
    SupervisorOptions opts = supervisedOptions(1);
    opts.journalPath.clear();
    opts.serve.metricsPath = snapshots;
    Supervisor sup(opts);
    sup.start();
    ASSERT_TRUE(waitFor([&] { return sup.workerRows()[0].state == "up"; }));

    const std::string rows = workerRowPaths("workers");
    EXPECT_EQ(keyPaths(sup.healthLine("h")),
              healthHeadPaths("workers") + " worker_table " +
                  workerRowPaths("worker_table"));
    EXPECT_EQ(keyPaths(sup.statsLine("s")),
              "id type workers " + rows + " registry");
    EXPECT_EQ(keyPaths(sup.metricsLine("m")),
              "id type ts_ms uptime_ms queue_depth queue_capacity "
              "draining workers " + rows + " registry exposition");
    sup.drain();
    EXPECT_EQ(keyPaths(lastLine(snapshots)),
              "ts_ms queue_depth queue_capacity uptime_ms draining "
              "workers " + rows + " stats");
    std::remove(snapshots.c_str());
}

TEST(Supervisor, HardRssWatermarkRecyclesThroughTheWorkersGovernor)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(1);
    opts.journalPath.clear();
    opts.heartbeatMs = 100;
    // Any live worker is over 1 MB: its own governor latches hard
    // pressure at the first sample, and the heartbeat carries it back.
    opts.workerCommand.push_back("--rss-hard-mb");
    opts.workerCommand.push_back("1");
    Supervisor sup(opts);
    sup.start();

    auto row = [&sup] {
        Result<json::Value> health = json::parse(sup.healthLine("h"));
        EXPECT_TRUE(health.ok());
        const json::Value *table =
            health.ok() ? health.value().get("worker_table") : nullptr;
        return table && !table->items().empty() ? table->items().front()
                                                : json::Value();
    };
    ASSERT_TRUE(waitFor([&] { return row().getInt("recycles") >= 1; },
                        5000))
        << "a latched hard watermark must recycle the worker";
    EXPECT_EQ(row().getInt("crashes"), 0)
        << "a memory recycle is graceful, never a crash";
    sup.drain();
}

TEST(Supervisor, WorkerQueueTimeCoversTheWaitAtTheFront)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(1);
    opts.journalPath.clear();
    opts.serve.jobs = 1;  // the front forwards one request at a time
    opts.workerCommand = {MEMORIA_BIN, "serve", "--jobs", "1",
                          "--no-incidents", "--allow-faults"};
    Supervisor sup(opts);
    sup.start();
    ASSERT_TRUE(waitFor([&] { return sup.workerRows()[0].state == "up"; }));

    // The first request stalls 100 ms in the parser and holds the only
    // executor, so the second waits that long in the front's queue.
    Collector out;
    std::string stalled =
        requestLine("stalled", "analyze", shardProgram(0));
    stalled.insert(stalled.size() - 1,
                   ",\"fault\":\"parser.parse:stall\"");
    sup.handleLine(stalled, out.fn());
    sup.handleLine(requestLine("waiting", "analyze", shardProgram(1)),
                   out.fn());
    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return out.lines.size() >= 2;
    }));
    sup.drain();

    bool seen = false;
    for (size_t i = 0; i < 2; ++i) {
        json::Value v = out.parsed(i);
        if (v.getString("id") != "waiting")
            continue;
        seen = true;
        ASSERT_EQ(v.getString("type"), "result") << out.lines[i];
        const json::Value *t = v.get("timings");
        ASSERT_NE(t, nullptr) << out.lines[i];
        EXPECT_GE(t->getNumber("queue_us"), 50000.0)
            << "queue_us must count the wait at the front: "
            << out.lines[i];
        EXPECT_GE(t->getNumber("total_us"), t->getNumber("queue_us"));
    }
    EXPECT_TRUE(seen);
}

TEST(Supervisor, RequestAtTheSizeLimitIsAnsweredByItsWorker)
{
    signals::resetForTest();
    SupervisorOptions opts = supervisedOptions(1);
    opts.journalPath.clear();
    // The front forwards the line re-serialized, under a longer id
    // ("s1") and with its admission time: longer than the client's.
    const std::string line = requestLine("e", "analyze", shardProgram(0));
    opts.serve.maxRequestBytes = line.size();
    opts.workerCommand.push_back("--max-request-bytes");
    opts.workerCommand.push_back(std::to_string(line.size()));
    Supervisor sup(opts);
    sup.start();

    Collector out;
    sup.handleLine(line, out.fn());
    ASSERT_TRUE(waitFor([&] {
        std::lock_guard<std::mutex> lock(out.mutex);
        return !out.lines.empty();
    })) << "a request the front admitted must be answered";
    sup.drain();
    EXPECT_EQ(out.parsed(0).getString("type"), "result") << out.lines[0];
}

#endif  // MEMORIA_BIN

} // namespace
} // namespace serve
} // namespace memoria
