/** Unit tests for the observability subsystem: trace spans and sinks,
 *  the stats registry, logging verbosity, and the golden Compound
 *  decision-provenance trace. */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "driver/memoria.hh"
#include "suite/kernels.hh"
#include "support/export.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

/** Installs a RecordingSink for the test's lifetime. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto sink = std::make_unique<obs::RecordingSink>();
        rec_ = sink.get();
        obs::setTraceSink(std::move(sink));
        obs::statsRegistry().resetValues();
    }

    void
    TearDown() override
    {
        obs::setTraceSink(nullptr);
        obs::statsRegistry().resetValues();
        setLogLevel(LogLevel::Warn);
    }

    /** Completed spans (SpanEnd records) matching category/name. */
    std::vector<obs::TraceEvent>
    spans(const std::string &cat, const std::string &name) const
    {
        std::vector<obs::TraceEvent> out;
        for (const auto &e : rec_->events)
            if (e.type == obs::TraceEvent::Type::SpanEnd &&
                e.category == cat && e.name == name)
                out.push_back(e);
        return out;
    }

    /** Rendered value of one payload key ("" when absent). */
    static std::string
    argOf(const obs::TraceEvent &e, const std::string &key)
    {
        for (const auto &[k, v] : e.args)
            if (k == key)
                return v.render();
        return "";
    }

    obs::RecordingSink *rec_ = nullptr;
};

// ---------------------------------------------------------------------
// Spans and events

TEST_F(ObsTest, SpanNestingDepthAndTiming)
{
    {
        obs::TraceScope outer("t", "outer");
        outer.arg("k", int64_t(1));
        {
            obs::TraceScope inner("t", "inner");
            obs::traceEvent("t", "point", {{"x", 42}});
        }
    }
    ASSERT_EQ(rec_->events.size(), 5u);  // begin begin event end end

    const auto &beginOuter = rec_->events[0];
    const auto &beginInner = rec_->events[1];
    const auto &point = rec_->events[2];
    const auto &endInner = rec_->events[3];
    const auto &endOuter = rec_->events[4];

    EXPECT_EQ(beginOuter.type, obs::TraceEvent::Type::SpanBegin);
    EXPECT_EQ(beginOuter.depth, 0);
    EXPECT_EQ(beginInner.depth, 1);
    EXPECT_EQ(point.depth, 2);
    EXPECT_EQ(point.type, obs::TraceEvent::Type::Event);
    EXPECT_EQ(endInner.name, "inner");
    EXPECT_EQ(endInner.depth, 1);
    EXPECT_EQ(endOuter.name, "outer");
    EXPECT_EQ(endOuter.depth, 0);

    // Timing: the outer span contains the inner one.
    EXPECT_GE(endInner.durationUs, 0.0);
    EXPECT_GE(endOuter.durationUs, endInner.durationUs);

    // Sequence numbers increase monotonically.
    for (size_t i = 1; i < rec_->events.size(); ++i)
        EXPECT_GT(rec_->events[i].seq, rec_->events[i - 1].seq);

    EXPECT_EQ(argOf(endOuter, "k"), "1");
}

TEST_F(ObsTest, DisabledTracingIsInert)
{
    obs::setTraceSink(nullptr);
    EXPECT_FALSE(obs::tracingEnabled());
    obs::traceEvent("t", "dropped");
    obs::TraceScope s("t", "dropped");
    EXPECT_FALSE(s.active());
    s.arg("k", 1);  // must not crash
}

// ---------------------------------------------------------------------
// Stats registry

TEST_F(ObsTest, CounterRegistrationAndDump)
{
    obs::Counter &c = obs::counter("test.alpha");
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    // Lazy find-or-create returns the same object.
    EXPECT_EQ(&obs::counter("test.alpha"), &c);

    obs::gauge("test.level").set(2.5);
    obs::histogram("test.times").sample(2.0);
    obs::histogram("test.times").sample(4.0);

    std::ostringstream text;
    obs::statsRegistry().dumpText(text);
    EXPECT_NE(text.str().find("test.alpha"), std::string::npos);
    EXPECT_NE(text.str().find("5"), std::string::npos);

    std::ostringstream json;
    obs::statsRegistry().dumpJson(json);
    EXPECT_NE(json.str().find("\"test.alpha\":5"), std::string::npos);
    EXPECT_NE(json.str().find("\"test.level\":2.5"), std::string::npos);
    EXPECT_NE(json.str().find("\"count\":2"), std::string::npos);

    EXPECT_DOUBLE_EQ(obs::histogram("test.times").mean(), 3.0);
    EXPECT_DOUBLE_EQ(obs::histogram("test.times").min(), 2.0);
    EXPECT_DOUBLE_EQ(obs::histogram("test.times").max(), 4.0);

    // resetValues zeroes values but keeps references valid.
    obs::statsRegistry().resetValues();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(obs::histogram("test.times").count(), 0u);
}

// ---------------------------------------------------------------------
// JSON-lines sink well-formedness

/** Minimal JSON syntax checker (RFC 8259 subset, enough to validate the
 *  sink's output without a library dependency). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            unsigned char c = s_[pos_];
            if (c < 0x20)
                return false;  // raw control char: invalid JSON
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !isxdigit(static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;  // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t len = strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

TEST_F(ObsTest, JsonLinesSinkEveryLineParses)
{
    std::ostringstream out;
    obs::setTraceSink(std::make_unique<obs::JsonLinesSink>(out));

    // Hostile payloads: quotes, backslashes, newlines, control chars,
    // every value type, nested spans.
    {
        obs::TraceScope s("cat/with\"quote", "span\\name");
        s.arg("str", std::string("line1\nline2\t\"quoted\" \\ \x01"));
        s.arg("int", int64_t(-7));
        s.arg("float", 2.5);
        s.arg("bool", true);
        obs::traceEvent("ev", "empty-args");
        obs::traceEvent("ev", "more", {{"k", "v"}, {"n", 0}});
    }
    obs::setTraceSink(nullptr);

    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_TRUE(JsonChecker(line).valid()) << "bad JSON: " << line;
    }
    EXPECT_EQ(count, 4);  // begin + 2 events + span end
}

TEST_F(ObsTest, FullPipelineTraceIsValidJsonLines)
{
    std::ostringstream out;
    obs::setTraceSink(std::make_unique<obs::JsonLinesSink>(out));

    Program p = makeMatmul("IKJ", 12);
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(p, params);
    ASSERT_TRUE(simulateHitRates(opt, {CacheConfig::i860()}).ok());
    obs::setTraceSink(nullptr);

    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        ASSERT_TRUE(JsonChecker(line).valid()) << "bad JSON: " << line;
    }
    EXPECT_GT(count, 10);
}

// ---------------------------------------------------------------------
// Golden decision provenance

TEST_F(ObsTest, MatmulJkiGoldenProvenance)
{
    // JKI is already memory order for column-major matmul: Compound
    // must record exactly one nest span, memory order JKI, untouched.
    Program p = makeMatmul("JKI", 16);
    ModelParams params;
    params.lineBytes = 32;
    compoundTransform(p, params);

    auto nests = spans("pass.compound", "nest");
    ASSERT_EQ(nests.size(), 1u);
    const auto &nest = nests[0];
    EXPECT_EQ(argOf(nest, "memory_order"), "JKI");
    EXPECT_EQ(argOf(nest, "strategy"), "none");
    EXPECT_EQ(argOf(nest, "fail"), "none");
    EXPECT_EQ(argOf(nest, "orig_memory_order"), "true");
    EXPECT_EQ(argOf(nest, "final_memory_order"), "true");
    EXPECT_EQ(argOf(nest, "depth"), "3");
    EXPECT_NE(argOf(nest, "orig_cost"), "");
    EXPECT_EQ(argOf(nest, "orig_cost"), argOf(nest, "final_cost"));
}

TEST_F(ObsTest, MatmulWorstOrderRecordsOnePermutation)
{
    // IKJ must be permuted into memory order: exactly one nest span
    // with strategy "permute" and the JKI target, and exactly one
    // applied permutation counted.
    Program p = makeMatmul("IKJ", 16);
    ModelParams params;
    params.lineBytes = 32;
    compoundTransform(p, params);

    auto nests = spans("pass.compound", "nest");
    ASSERT_EQ(nests.size(), 1u);
    const auto &nest = nests[0];
    EXPECT_EQ(argOf(nest, "memory_order"), "JKI");
    EXPECT_EQ(argOf(nest, "strategy"), "permute");
    EXPECT_EQ(argOf(nest, "fail"), "none");
    EXPECT_EQ(argOf(nest, "orig_memory_order"), "false");
    EXPECT_EQ(argOf(nest, "final_memory_order"), "true");

    EXPECT_EQ(obs::counter("pass.permute.applied").value(), 1u);
    EXPECT_EQ(obs::counter("pass.compound.nests_permuted").value(), 1u);

    // The symbolic costs in the span match the paper's table: the
    // final/ideal cost drops below the original.
    EXPECT_NE(argOf(nest, "orig_cost"), argOf(nest, "final_cost"));
    EXPECT_EQ(argOf(nest, "final_cost"), argOf(nest, "ideal_cost"));
}

// ---------------------------------------------------------------------
// Cache counter reconciliation

TEST_F(ObsTest, CacheCountersReconcileWithHitRates)
{
    Program p = makeMatmul("IKJ", 16);
    ModelParams params;
    OptimizedProgram opt = optimizeProgram(p, params);

    obs::statsRegistry().resetValues();
    HitRates rates =
        simulateHitRates(opt, {CacheConfig::i860()}).value()[0];

    uint64_t accesses = obs::counter("cachesim.accesses").value();
    uint64_t hits = obs::counter("cachesim.hits").value();
    uint64_t misses = obs::counter("cachesim.misses").value();
    uint64_t cold = obs::counter("cachesim.cold_misses").value();
    uint64_t evictions = obs::counter("cachesim.evictions").value();

    EXPECT_GT(accesses, 0u);
    EXPECT_EQ(hits + misses, accesses);
    EXPECT_LE(cold, misses);
    EXPECT_LE(evictions, misses);

    // The published aggregate must reproduce the Table 4 whole-program
    // computation when re-derived per run.
    SweepResult orig = runWithCaches(opt.original, {CacheConfig::i860()});
    orig.cache[0].checkConsistent();
    double warmRate = orig.cache[0].hitRateWarm();
    EXPECT_NEAR(warmRate, rates.wholeOrig, 1e-9);
}

TEST_F(ObsTest, CacheStatsConsistencyChecked)
{
    CacheStats s;
    s.accesses = 10;
    s.hits = 6;
    s.misses = 4;
    s.coldMisses = 2;
    s.evictions = 1;
    s.checkConsistent();  // must not panic

    s.misses = 5;  // now hits + misses != accesses
    EXPECT_DEATH(s.checkConsistent(), "out of sync");
}

// ---------------------------------------------------------------------
// Logging verbosity and crash flushing

TEST_F(ObsTest, LogLevelGatesStderrButAlwaysTraces)
{
    setLogLevel(LogLevel::Quiet);
    testing::internal::CaptureStderr();
    warn("w1");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    warn("w2");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: w2"), std::string::npos);

    // Every message was mirrored into the trace sink regardless.
    int logEvents = 0;
    for (const auto &e : rec_->events)
        if (e.category == "log")
            ++logEvents;
    EXPECT_EQ(logEvents, 2);
}

TEST_F(ObsTest, FatalFlushesTraceSinkBeforeExit)
{
    // In the death-test child, install a JSON sink writing to a file;
    // fatal() must flush it so the trace survives the exit.
    EXPECT_EXIT(
        {
            obs::setTraceSink(std::make_unique<obs::JsonLinesSink>(
                "/tmp/memoria_fatal_trace_test.jsonl"));
            obs::traceEvent("t", "before-crash", {{"k", 1}});
            fatal("boom");
        },
        testing::ExitedWithCode(1), "fatal: boom");

    std::ifstream in("/tmp/memoria_fatal_trace_test.jsonl");
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);  // the event + the fatal log event
    for (const auto &l : lines)
        EXPECT_TRUE(JsonChecker(l).valid()) << l;
    EXPECT_NE(lines[1].find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------
// Histogram buckets and quantiles

TEST_F(ObsTest, HistogramBucketEdgesArePinned)
{
    // The exposition format promises stable bucket boundaries across
    // processes and versions: half-octave powers of two.
    using H = obs::Histogram;
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(0), 1.0);
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(1), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(2), 2.0);
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(4), 4.0);
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(20), 1024.0);
    EXPECT_DOUBLE_EQ(H::bucketUpperEdge(62), 2147483648.0);
    EXPECT_TRUE(std::isinf(H::bucketUpperEdge(63)));

    // Every sample lands in the bucket whose [lower, upper) range
    // holds it, for values spanning the whole scale.
    for (double v : {-3.0, 0.0, 0.5, 1.0, 1.41, 2.0, 3.0, 100.0,
                     1e6, 3e9, 1e30}) {
        int b = H::bucketIndex(v);
        ASSERT_GE(b, 0);
        ASSERT_LT(b, H::kNumBuckets);
        EXPECT_LT(v, H::bucketUpperEdge(b)) << v;
        if (b > 0) {
            EXPECT_GE(v, H::bucketUpperEdge(b - 1)) << v;
        }
    }
}

TEST_F(ObsTest, HistogramQuantilesWithinOneBucket)
{
    obs::Histogram &h = obs::histogram("test.quantiles");
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));

    // Log-scaled buckets bound the relative error at one half-octave
    // (a factor of sqrt(2)), and interpolation does better; allow the
    // full bucket width.
    for (double q : {0.5, 0.9, 0.99}) {
        double want = q * 1000.0;
        double got = h.quantile(q);
        EXPECT_GE(got, want / std::sqrt(2.0)) << "q=" << q;
        EXPECT_LE(got, want * std::sqrt(2.0)) << "q=" << q;
    }
    // Extremes clamp to the observed range.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);

    // dumpJson publishes the quantiles alongside count/sum.
    std::ostringstream json;
    obs::statsRegistry().dumpJson(json);
    EXPECT_NE(json.str().find("\"p50\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Request-scoped trace context

TEST_F(ObsTest, TraceContextStampsEveryNestedEvent)
{
    {
        obs::TraceContextScope ctx("tREQ42");
        obs::TraceScope outer("t", "outer");
        {
            obs::TraceScope inner("t", "inner");
            obs::traceEvent("t", "point");
        }
    }
    obs::traceEvent("t", "after");

    ASSERT_EQ(rec_->events.size(), 6u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(rec_->events[i].traceId, "tREQ42") << i;
    EXPECT_EQ(rec_->events[5].traceId, "")
        << "events outside the scope carry no trace id";

    // Spans get process-unique span ids; the inner span's SpanEnd
    // carries its own id, not the parent's.
    const auto &beginOuter = rec_->events[0];
    const auto &beginInner = rec_->events[1];
    const auto &endInner = rec_->events[3];
    const auto &endOuter = rec_->events[4];
    EXPECT_NE(beginOuter.spanId, 0u);
    EXPECT_NE(beginInner.spanId, 0u);
    EXPECT_NE(beginOuter.spanId, beginInner.spanId);
    EXPECT_EQ(endInner.spanId, beginInner.spanId);
    EXPECT_EQ(endOuter.spanId, beginOuter.spanId);
}

TEST_F(ObsTest, CompoundSpansCarryTheRequestTraceId)
{
    Program p = makeMatmul("IJK", 16);
    ModelParams params;
    params.lineBytes = 32;
    {
        obs::TraceContextScope ctx("tCOMPOUND");
        compoundTransform(p, params);
    }
    auto nests = spans("pass.compound", "nest");
    ASSERT_FALSE(nests.empty());
    for (const auto &e : rec_->events)
        EXPECT_EQ(e.traceId, "tCOMPOUND") << e.category << "/" << e.name;
}

TEST_F(ObsTest, ConcurrentContextsNeverShareTraceIds)
{
    obs::setTraceSink(nullptr);  // RecordingSink is not thread-safe

    std::mutex mutex;
    std::set<std::string> ids;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 250; ++i) {
                std::string id = obs::makeTraceId();
                obs::TraceContextScope ctx(id);
                // The context is thread-local: concurrent requests
                // each observe their own id, never a neighbor's.
                ASSERT_EQ(obs::currentTraceContext().traceId, id);
                std::lock_guard<std::mutex> lock(mutex);
                ids.insert(id);
            }
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(ids.size(), 1000u) << "minted trace ids must be unique";
}

TEST_F(ObsTest, RingSinkFlightRecorderFiltersByTraceId)
{
    auto sink = std::make_unique<obs::RingSink>(32);
    obs::RingSink *ring = sink.get();
    obs::setTraceSink(std::move(sink));

    {
        obs::TraceContextScope ctx("tAAA");
        obs::traceEvent("t", "first");
    }
    {
        obs::TraceContextScope ctx("tBBB");
        obs::traceEvent("t", "second");
        obs::traceEvent("t", "third");
    }

    EXPECT_EQ(ring->snapshot().size(), 3u);
    auto a = ring->snapshotFor("tAAA");
    ASSERT_EQ(a.size(), 1u);
    EXPECT_NE(a[0].find("\"first\""), std::string::npos);
    EXPECT_NE(a[0].find("\"trace\":\"tAAA\""), std::string::npos);
    auto b = ring->snapshotFor("tBBB");
    ASSERT_EQ(b.size(), 2u);
    EXPECT_TRUE(ring->snapshotFor("tZZZ").empty());
}

TEST_F(ObsTest, RingSinkRendersLikeJsonLinesSink)
{
    // The ring stores events and renders them only when snapshotted;
    // its lines must be the file sink's lines, byte for byte.
    const size_t capacity = 5;
    std::vector<obs::TraceEvent> events;
    for (int i = 0; i < 12; ++i) {
        obs::TraceEvent e;
        e.type = static_cast<obs::TraceEvent::Type>(i % 3);
        e.category = "cat" + std::to_string(i % 2);
        e.name = i % 4 == 0 ? "quote\"back\\slash\n" : "n";
        e.depth = i % 3;
        e.durationUs = 1.5 * i;
        e.seq = static_cast<uint64_t>(100 + i);
        if (i % 3 != 2) {
            e.traceId = i % 3 == 0 ? "tAAA" : "tBBB";
            e.spanId = static_cast<uint64_t>(i);
        }
        e.args.emplace_back("s", obs::TraceValue("v\t" + std::to_string(i)));
        e.args.emplace_back("i", obs::TraceValue(int64_t(-i)));
        e.args.emplace_back("f", obs::TraceValue(0.25 * i));
        e.args.emplace_back("b", obs::TraceValue(i % 2 == 0));
        events.push_back(std::move(e));
    }

    std::ostringstream out;
    obs::JsonLinesSink json(out);
    obs::RingSink ring(capacity);
    for (const obs::TraceEvent &e : events) {
        json.event(e);
        ring.event(e);
    }

    std::vector<std::string> lines;
    std::istringstream in(out.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), events.size());

    // The ring wrapped: it holds the last `capacity` lines, oldest first.
    const size_t first = events.size() - capacity;
    std::vector<std::string> tail(lines.begin() + first, lines.end());
    EXPECT_EQ(ring.snapshot(), tail);

    for (const std::string id : {"tAAA", "tBBB", ""}) {
        std::vector<std::string> want;
        for (size_t i = first; i < events.size(); ++i)
            if (events[i].traceId == id)
                want.push_back(lines[i]);
        EXPECT_FALSE(want.empty()) << id;
        EXPECT_EQ(ring.snapshotFor(id), want) << id;
    }
}

// ---------------------------------------------------------------------
// Prometheus exposition

TEST_F(ObsTest, PrometheusExpositionGoldenFormat)
{
    obs::counter("test.alpha") += 5;
    obs::counter("test.requests_total") += 2;
    obs::gauge("test.level").set(2.5);
    obs::histogram("test.times").sample(2.0);
    obs::histogram("test.times").sample(4.0);

    std::ostringstream out;
    obs::exportPrometheus(obs::statsRegistry(), out);
    const std::string text = out.str();

    // Counters: memoria_ prefix, dots mangled, _total suffixed once.
    EXPECT_NE(text.find("# TYPE memoria_test_alpha_total counter\n"
                        "memoria_test_alpha_total 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("memoria_test_requests_total 2\n"),
              std::string::npos)
        << "_total is not doubled";
    EXPECT_EQ(text.find("requests_total_total"), std::string::npos);

    EXPECT_NE(text.find("# TYPE memoria_test_level gauge\n"
                        "memoria_test_level 2.5\n"),
              std::string::npos);

    // Histogram: all 64 cumulative buckets, +Inf last, sum and count.
    EXPECT_NE(text.find("# TYPE memoria_test_times histogram"),
              std::string::npos);
    size_t buckets = 0, pos = 0;
    double prev = -1.0;
    while ((pos = text.find("memoria_test_times_bucket{le=\"", pos)) !=
           std::string::npos) {
        ++buckets;
        size_t valAt = text.find("} ", pos);
        ASSERT_NE(valAt, std::string::npos);
        double v = std::stod(text.substr(valAt + 2));
        EXPECT_GE(v, prev) << "cumulative buckets are monotonic";
        prev = v;
        ++pos;
    }
    EXPECT_EQ(buckets, 64u);
    EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("memoria_test_times_sum 6\n"),
              std::string::npos);
    EXPECT_NE(text.find("memoria_test_times_count 2\n"),
              std::string::npos);

    // prometheusName is the exported mangler the server reuses.
    EXPECT_EQ(obs::prometheusName("serve.latency_us.compound"),
              "memoria_serve_latency_us_compound");
}

// ---------------------------------------------------------------------
// Pipeline stage timers

TEST_F(ObsTest, StageTimersAccumulateIntoThreadLocalSlots)
{
    obs::stageTimes().reset();
    {
        obs::StageTimer t(&obs::StageTimes::loadUs);
        volatile double sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
    }
    {
        obs::StageTimer t(&obs::StageTimes::simulateUs);
    }
    EXPECT_GT(obs::stageTimes().loadUs, 0.0);
    EXPECT_GE(obs::stageTimes().simulateUs, 0.0);
    EXPECT_EQ(obs::stageTimes().optimizeUs, 0.0);

    obs::stageTimes().reset();
    EXPECT_EQ(obs::stageTimes().loadUs, 0.0);
}

} // namespace
} // namespace memoria
