/** Tests for the durable content-addressed result cache (src/serve/
 *  cache.*, snapshot.*): LRU bounds, key canonicalization, single-
 *  flight dedup with leader hand-off, snapshot roundtrip and
 *  corruption rejection, warm restart, supervisor journal-replay
 *  recovery, the `memoria top` restart marker, and incident-bundle
 *  retention. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/fault.hh"
#include "harness/incident.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/snapshot.hh"
#include "serve/supervisor.hh"
#include "serve/top.hh"
#include "support/json.hh"
#include "support/stats.hh"

namespace memoria {
namespace serve {
namespace {

namespace fs = std::filesystem;

const char *kProgram = "PROGRAM t\n"
                       "  PARAMETER N = 8\n"
                       "  REAL*8 A(N,N)\n"
                       "  DO I = 1, N\n"
                       "    DO J = 1, N\n"
                       "      A(I,J) = A(I,J) + 1.0\n"
                       "    ENDDO\n"
                       "  ENDDO\n"
                       "END\n";

/** Same program, formatting-only differences. */
const char *kProgramReformatted = "PROGRAM t\n"
                                  "  PARAMETER N = 8\n"
                                  "  REAL*8 A(N,N)\n"
                                  "  DO I = 1, N\n"
                                  "      DO J = 1, N\n"
                                  "    A(I,J)   =   A(I,J) + 1.0\n"
                                  "      ENDDO\n"
                                  "  ENDDO\n"
                                  "END\n";

std::string
requestLine(const std::string &id, const std::string &kind,
            const std::string &program)
{
    return "{\"id\":" + json::quote(id) +
           ",\"kind\":" + json::quote(kind) +
           ",\"program\":" + json::quote(program) + "}";
}

struct Collector
{
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<std::string> lines;

    Server::Respond
    fn()
    {
        return [this](const std::string &line) {
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
            arrived.notify_all();
        };
    }

    /** Block until at least `n` lines arrived (false after 30 s). */
    bool
    waitForLines(size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return arrived.wait_for(lock, std::chrono::seconds(30),
                                [&] { return lines.size() >= n; });
    }

    json::Value
    parsed(size_t i)
    {
        Result<json::Value> v = json::parse(lines.at(i));
        EXPECT_TRUE(v.ok()) << lines.at(i);
        return v.ok() ? v.value() : json::Value();
    }
};

ServeOptions
quietOptions()
{
    ServeOptions opts;
    opts.jobs = 2;
    opts.writeIncidents = false;
    return opts;
}

/** A scratch directory fresh per test, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &stem)
    {
        path = fs::temp_directory_path() /
               (stem + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter()++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    static std::atomic<int> &
    counter()
    {
        static std::atomic<int> c{0};
        return c;
    }
};

uint64_t
counterValue(const std::string &name)
{
    return obs::counter(name).value();
}

// ---------------------------------------------------------------------
// LRU + bounds

TEST(ResultCache, HitMissAndEntryEviction)
{
    CacheOptions opts;
    opts.maxEntries = 2;
    ResultCache cache(opts);

    auto t1 = cache.begin("k1");
    ASSERT_EQ(t1.role, ResultCache::Role::Leader);
    cache.publish(t1, "v1");
    auto t2 = cache.begin("k2");
    cache.publish(t2, "v2");

    auto hit = cache.begin("k1");
    EXPECT_EQ(hit.role, ResultCache::Role::Hit);
    EXPECT_EQ(hit.body, "v1");

    // k2 is now LRU tail; a third insert evicts it, not k1.
    auto t3 = cache.begin("k3");
    cache.publish(t3, "v3");
    EXPECT_EQ(cache.begin("k2").role, ResultCache::Role::Leader)
        << "k2 was the LRU victim";
    EXPECT_EQ(cache.begin("k1").role, ResultCache::Role::Hit);

    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_GE(s.evictions, 1u);
    EXPECT_GE(s.hits, 2u);
}

TEST(ResultCache, ByteBoundEvictsAndOversizeEntryIsSkipped)
{
    CacheOptions opts;
    opts.maxEntries = 100;
    opts.maxBytes = 64;
    ResultCache cache(opts);

    auto a = cache.begin("a");
    cache.publish(a, std::string(40, 'x'));
    auto b = cache.begin("b");
    cache.publish(b, std::string(40, 'y'));  // over 64 bytes: evicts a
    EXPECT_EQ(cache.begin("a").role, ResultCache::Role::Leader);
    EXPECT_EQ(cache.begin("b").role, ResultCache::Role::Hit);

    // A single entry larger than the whole budget is not inserted.
    auto c = cache.begin("c");
    cache.publish(c, std::string(200, 'z'));
    EXPECT_EQ(cache.begin("c").role, ResultCache::Role::Leader);
    EXPECT_LE(cache.stats().bytes, 64u);
}

// ---------------------------------------------------------------------
// Key canonicalization

TEST(ResultCache, KeyCanonicalizesFormattingVariants)
{
    std::string cfg = serveConfigDigest(ModelParams{},
                                        {CacheConfig::i860()});
    std::string k1 = resultCacheKey(kProgram, "compound", true, 0, cfg);
    std::string k2 =
        resultCacheKey(kProgramReformatted, "compound", true, 0, cfg);
    EXPECT_EQ(k1, k2) << "formatting-only variants share an entry";
    EXPECT_EQ(k1.size(), 32u);

    EXPECT_NE(k1, resultCacheKey(kProgram, "analyze", true, 0, cfg));
    EXPECT_NE(k1, resultCacheKey(kProgram, "compound", false, 0, cfg));
    EXPECT_NE(k1, resultCacheKey(kProgram, "compound", true, 2, cfg));
    EXPECT_NE(k1, resultCacheKey(kProgram, "compound", true, 0,
                                 "deadbeef00000000"));
}

TEST(ResultCache, ConfigDigestReflectsCacheGeometry)
{
    ModelParams params;
    std::string d1 = serveConfigDigest(params, {CacheConfig::i860()});
    std::string d2 = serveConfigDigest(params, {CacheConfig::rs6000()});
    EXPECT_NE(d1, d2);

    params.lineBytes *= 2;
    EXPECT_NE(d1, serveConfigDigest(params, {CacheConfig::i860()}));
}

// ---------------------------------------------------------------------
// Golden hashes. The literals were recorded from the implementation
// that first wrote them to disk: cache keys and snapshot checksums are
// persisted, and shard placement decides which worker's cache holds a
// program. A change to any value breaks warm restarts on existing
// snapshot directories, so it must be deliberate.

TEST(GoldenHash, CacheKeyAndConfigDigest)
{
    std::string cfg = serveConfigDigest(ModelParams{},
                                        {CacheConfig::i860()});
    EXPECT_EQ(cfg, "91ef074a63ccab61");
    EXPECT_EQ(resultCacheKey(kProgram, "compound", true, 0, cfg),
              "cb678da3541ff2df968e907572be57a4");
}

TEST(GoldenHash, SnapshotEntryAndFooterCrc)
{
    TempDir dir("memoria-golden");
    std::string path = (dir.path / "s.snap").string();
    ASSERT_TRUE(
        writeCacheSnapshot(path, {{"key", "the body"}}, 0, "cfg").ok());
    std::ifstream in(path);
    std::string header, entry, footer;
    ASSERT_TRUE(std::getline(in, header) && std::getline(in, entry) &&
                std::getline(in, footer));
    EXPECT_EQ(json::parse(entry).value().getString("crc"),
              "deab83b0d8701d23");
    EXPECT_EQ(json::parse(footer).value().getString("crc"),
              "e070d5a8ef071529");
}

TEST(GoldenHash, ShardPlacement)
{
    const std::vector<std::string> programs = {
        "", "PROGRAM a", "PROGRAM b", "PROGRAM c", "PROGRAM d",
        kProgram, kProgramReformatted};
    for (int workers : {2, 3}) {
        SupervisorOptions opts;
        opts.workers = workers;
        opts.workerCommand = {"/bin/false"};  // never started
        Supervisor sup(std::move(opts));
        std::string shards;
        for (const std::string &p : programs)
            shards += std::to_string(sup.shardOf(p));
        EXPECT_EQ(shards, workers == 2 ? "0110011" : "0112012") << workers;
    }
}

TEST(GoldenHash, SeededFaults)
{
    // The site index also depends on which fault sites this binary
    // registers; the action and hit count depend on the hash alone.
    std::string specs;
    for (uint64_t seed : {0ull, 1ull, 42ull, 9001ull})
        specs += harness::seededFault(seed).str() + ";";
    EXPECT_EQ(specs,
              "transform.distribute:throw:3;"
              "serve.cache.leader-crash:diag:3;"
              "transform.distribute:stall:1;"
              "serve.cache.corrupt-snapshot:stall:2;");
}

// ---------------------------------------------------------------------
// Single-flight

TEST(ResultCache, FollowersReceiveTheLeadersResult)
{
    ResultCache cache({});
    auto leader = cache.begin("k");
    ASSERT_EQ(leader.role, ResultCache::Role::Leader);

    const int kFollowers = 4;
    std::atomic<int> got{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kFollowers; ++i) {
        threads.emplace_back([&cache, &got] {
            auto t = cache.begin("k");
            ASSERT_EQ(t.role, ResultCache::Role::Follower);
            auto w = cache.wait(t, 5000);
            EXPECT_EQ(w, ResultCache::WaitOutcome::Value);
            EXPECT_EQ(t.body, "answer");
            ++got;
        });
    }
    // Give the followers a moment to join the flight, then publish.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cache.publish(leader, "answer");
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(got.load(), kFollowers);
    EXPECT_EQ(cache.stats().inflightJoins, 4u);
}

TEST(ResultCache, AbandonedFlightElectsAFollower)
{
    ResultCache cache({});
    auto leader = cache.begin("k");
    ASSERT_EQ(leader.role, ResultCache::Role::Leader);

    std::atomic<int> elected{0}, valued{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&] {
            auto t = cache.begin("k");
            ASSERT_EQ(t.role, ResultCache::Role::Follower);
            auto w = cache.wait(t, 5000);
            if (w == ResultCache::WaitOutcome::Elected) {
                // Exactly one follower takes over and finishes the
                // computation for the rest.
                EXPECT_EQ(t.role, ResultCache::Role::Leader);
                ++elected;
                cache.publish(t, "recovered");
            } else {
                EXPECT_EQ(w, ResultCache::WaitOutcome::Value);
                EXPECT_EQ(t.body, "recovered");
                ++valued;
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cache.abandon(leader);  // the "crash"
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(elected.load(), 1);
    EXPECT_EQ(valued.load(), 2);
    EXPECT_EQ(cache.begin("k").role, ResultCache::Role::Hit);
}

TEST(ResultCache, FollowerTimesOutWhenLeaderNeverPublishes)
{
    ResultCache cache({});
    auto leader = cache.begin("k");
    ASSERT_EQ(leader.role, ResultCache::Role::Leader);
    auto follower = cache.begin("k");
    ASSERT_EQ(follower.role, ResultCache::Role::Follower);
    EXPECT_EQ(cache.wait(follower, 30),
              ResultCache::WaitOutcome::TimedOut);
    cache.abandon(leader);
}

TEST(ResultCache, AbandonWithNoWaitersDissolvesTheFlight)
{
    ResultCache cache({});
    auto leader = cache.begin("k");
    cache.abandon(leader);
    // The next arrival starts a fresh flight, not a follower of a
    // dead one.
    EXPECT_EQ(cache.begin("k").role, ResultCache::Role::Leader);
}

// ---------------------------------------------------------------------
// Snapshot roundtrip + corruption

using Entries = std::vector<std::pair<std::string, std::string>>;

TEST(Snapshot, RoundtripPreservesEntries)
{
    TempDir dir("memoria-snap");
    std::string path = (dir.path / "cache-shard0.snap").string();
    Entries in = {{"k1", "body one"}, {"k2", "{\"json\":true}"}};

    Status w = writeCacheSnapshot(path, in, 0, "cfg123");
    ASSERT_TRUE(w.ok()) << w.diag().str();

    Result<Entries> r = readCacheSnapshot(path, "cfg123");
    ASSERT_TRUE(r.ok()) << r.diag().str();
    EXPECT_EQ(r.value(), in);
}

TEST(Snapshot, RejectsTruncatedTail)
{
    TempDir dir("memoria-snap");
    std::string path = (dir.path / "s.snap").string();
    ASSERT_TRUE(
        writeCacheSnapshot(path, {{"k", std::string(256, 'a')}}, 0,
                           "cfg")
            .ok());
    // Chop the file mid-entry: a crash mid-write-without-rename shape.
    fs::resize_file(path, fs::file_size(path) - 100);

    uint64_t before = counterValue("serve.cache.snapshot_rejected");
    Result<Entries> r = readCacheSnapshot(path, "cfg");
    EXPECT_FALSE(r.ok());
    EXPECT_GT(counterValue("serve.cache.snapshot_rejected"), before);
}

TEST(Snapshot, RejectsFlippedChecksumByte)
{
    TempDir dir("memoria-snap");
    std::string path = (dir.path / "s.snap").string();
    ASSERT_TRUE(
        writeCacheSnapshot(path, {{"key", "the body"}}, 0, "cfg").ok());

    std::ifstream in(path);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    size_t at = data.find("the body");
    ASSERT_NE(at, std::string::npos);
    data[at] = data[at] == 't' ? 'T' : 't';
    std::ofstream(path) << data;

    uint64_t before = counterValue("serve.cache.snapshot_rejected");
    EXPECT_FALSE(readCacheSnapshot(path, "cfg").ok())
        << "flipped body byte must fail the entry checksum";
    EXPECT_GT(counterValue("serve.cache.snapshot_rejected"), before);
}

TEST(Snapshot, RejectsVersionAndConfigMismatch)
{
    TempDir dir("memoria-snap");
    std::string path = (dir.path / "s.snap").string();
    ASSERT_TRUE(writeCacheSnapshot(path, {{"k", "v"}}, 0, "cfg").ok());

    // Same file, different config digest: stale geometry.
    EXPECT_FALSE(readCacheSnapshot(path, "other-cfg").ok());

    // A future format version must cold-start, not crash.
    std::ifstream in(path);
    std::string header, rest, line;
    std::getline(in, header);
    while (std::getline(in, line))
        rest += line + "\n";
    in.close();
    Result<json::Value> h = json::parse(header);
    ASSERT_TRUE(h.ok());
    json::Value hv = h.value();
    hv.set("version", json::Value::number(int64_t{99}));
    std::ofstream(path) << hv.dump() << "\n" << rest;

    uint64_t before = counterValue("serve.cache.snapshot_rejected");
    Result<Entries> r = readCacheSnapshot(path, "cfg");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.diag().str().find("version"), std::string::npos)
        << r.diag().str();
    EXPECT_GT(counterValue("serve.cache.snapshot_rejected"), before);
}

TEST(Snapshot, CorruptSnapshotFaultSiteDamagesTheWrite)
{
    TempDir dir("memoria-snap");
    std::string path = (dir.path / "s.snap").string();

    harness::FaultSpec spec;
    spec.site = "serve.cache.corrupt-snapshot";
    spec.action = harness::FaultAction::Throw;
    harness::armFault(spec);
    Status w = writeCacheSnapshot(
        path, {{"k", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}}, 0, "cfg");
    harness::clearFault();
    ASSERT_TRUE(w.ok()) << "the write itself succeeds; the bytes lie";

    EXPECT_FALSE(readCacheSnapshot(path, "cfg").ok())
        << "the injected damage must not load";
}

// ---------------------------------------------------------------------
// Server integration

/** `v` without the fields a replay re-stamps per request: id,
 *  trace_id, timings.queue_us/total_us and the provenance stamps. */
json::Value
withoutRestamped(const json::Value &v)
{
    json::Value out = json::Value::object();
    for (const json::Member &m : v.members()) {
        if (m.first == "id" || m.first == "trace_id" ||
            m.first == "cache_hit" || m.first == "dedup_follower")
            continue;
        if (m.first == "timings" && m.second.isObject()) {
            json::Value t = json::Value::object();
            for (const json::Member &tm : m.second.members())
                if (tm.first != "queue_us" && tm.first != "total_us")
                    t.set(tm.first, tm.second);
            out.set(m.first, t);
            continue;
        }
        out.set(m.first, m.second);
    }
    return out;
}

TEST(ServeCache, SecondIdenticalRequestIsACacheHit)
{
    // Analyze runs at the identity rung, so its outcome reads
    // "degraded" although nothing failed; it replays like any clean
    // outcome.
    for (const std::string kind : {"compound", "analyze"}) {
        SCOPED_TRACE(kind);
        Server server(quietOptions());
        server.start();
        Collector out;
        server.handleLine(requestLine("r1", kind, kProgram), out.fn());
        // With two jobs r2 could be picked up first and lead; waiting
        // for r1's answer makes r1 the leader in every run.
        ASSERT_TRUE(out.waitForLines(1));
        server.handleLine(requestLine("r2", kind, kProgram), out.fn());
        // Formatting variant: canonicalization should hit too.
        server.handleLine(requestLine("r3", kind, kProgramReformatted),
                          out.fn());
        server.drain();

        ASSERT_EQ(out.lines.size(), 3u);
        json::Value fresh, hit, reformatted;
        for (size_t i = 0; i < 3; ++i) {
            json::Value v = out.parsed(i);
            ASSERT_EQ(v.getString("type"), "result") << out.lines[i];
            if (v.getString("id") == "r1")
                fresh = v;
            else if (v.getString("id") == "r2")
                hit = v;
            else
                reformatted = v;
        }
        if (kind == "analyze") {
            EXPECT_EQ(fresh.getString("status"), "degraded");
            EXPECT_EQ(fresh.getString("rung"), "identity");
        }
        EXPECT_FALSE(fresh.getBool("cache_hit", false));
        EXPECT_TRUE(hit.getBool("cache_hit", false))
            << "identical request must be answered from the cache";
        EXPECT_TRUE(reformatted.getBool("cache_hit", false) ||
                    reformatted.getBool("dedup_follower", false));

        // Replayed responses are the leader's result modulo the
        // volatile fields; the stage timings describe the computation
        // and replay too.
        EXPECT_EQ(withoutRestamped(hit).dump(),
                  withoutRestamped(fresh).dump());

        ResultCacheStats s = server.cacheStats();
        EXPECT_GE(s.hits + s.inflightJoins, 2u);
    }
}

TEST(ServeCache, HealthCarriesTheCacheBlock)
{
    Server server(quietOptions());
    server.start();
    Collector out;
    server.handleLine(requestLine("r1", "analyze", kProgram), out.fn());
    server.handleLine(requestLine("r2", "analyze", kProgram), out.fn());
    server.drain();
    // Health answers inline; after the drain the counters are settled
    // (introspection still works on a drained server).
    server.handleLine("{\"id\":\"h\",\"kind\":\"health\"}", out.fn());

    json::Value health;
    for (size_t i = 0; i < out.lines.size(); ++i)
        if (out.parsed(i).getString("type") == "health")
            health = out.parsed(i);
    const json::Value *cache = health.get("cache");
    ASSERT_TRUE(cache && cache->isObject()) << "health lacks cache block";
    EXPECT_GE(cache->getInt("hits", -1) + cache->getInt("misses", -1),
              1);
}

TEST(ServeCache, NoCacheOptionDisablesStamps)
{
    ServeOptions opts = quietOptions();
    opts.resultCache.maxEntries = 0;  // --no-cache
    Server server(opts);
    server.start();
    Collector out;
    server.handleLine(requestLine("r1", "analyze", kProgram), out.fn());
    server.handleLine(requestLine("r2", "analyze", kProgram), out.fn());
    server.drain();
    ASSERT_EQ(out.lines.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(out.parsed(i).getBool("cache_hit", false));
        EXPECT_FALSE(out.parsed(i).getBool("dedup_follower", false));
    }
}

TEST(ServeCache, LeaderCrashFaultStillAnswersAndRecovers)
{
    // One worker, deterministically: with two, "boom" and "after" race
    // for flight leadership and the one-shot crash plan sometimes
    // fires for "after" instead (observed ~1/10 under TSan).
    ServeOptions opts = quietOptions();
    opts.jobs = 1;
    Server server(opts);
    server.start();

    // Global arm (no program filter): fires for the first led flight.
    harness::FaultSpec spec;
    spec.site = "serve.cache.leader-crash";
    spec.action = harness::FaultAction::Throw;
    harness::armFault(spec);

    Collector out;
    server.handleLine(requestLine("boom", "compound", kProgram),
                      out.fn());
    // One-shot plan: the retry below runs clean.
    server.handleLine(requestLine("after", "compound", kProgram),
                      out.fn());
    server.drain();
    harness::clearFault();

    ASSERT_EQ(out.lines.size(), 2u);
    json::Value crashed, after;
    for (size_t i = 0; i < 2; ++i) {
        json::Value v = out.parsed(i);
        (v.getString("id") == "boom" ? crashed : after) = v;
    }
    EXPECT_EQ(crashed.getString("type"), "error");
    EXPECT_EQ(crashed.getString("code"), "serve.internal")
        << "a crashed leader still answers exactly once";
    EXPECT_EQ(after.getString("type"), "result")
        << "the abandoned flight must not wedge the key";
}

TEST(ServeCache, WarmRestartServesFromTheSnapshot)
{
    TempDir dir("memoria-warm");
    std::string snap = (dir.path / "cache-shard0.snap").string();

    ServeOptions opts = quietOptions();
    opts.cacheSnapshotPath = snap;

    {
        Server first(opts);
        first.start();
        Collector out;
        first.handleLine(requestLine("r1", "compound", kProgram),
                         out.fn());
        first.drain();  // writes the snapshot on the way out
        ASSERT_EQ(out.lines.size(), 1u);
    }
    ASSERT_TRUE(fs::exists(snap)) << "drain must persist the cache";

    uint64_t loadedBefore =
        counterValue("serve.cache.snapshot_loaded_entries");
    Server second(opts);
    second.start();
    EXPECT_GT(counterValue("serve.cache.snapshot_loaded_entries"),
              loadedBefore)
        << "warm start seeds from the snapshot";

    Collector out;
    second.handleLine(requestLine("r2", "compound", kProgram), out.fn());
    second.drain();
    ASSERT_EQ(out.lines.size(), 1u);
    EXPECT_TRUE(out.parsed(0).getBool("cache_hit", false))
        << "the restarted server answers from the previous "
           "incarnation's work";
}

TEST(ServeCache, CorruptSnapshotColdStartsWithoutCrashing)
{
    TempDir dir("memoria-cold");
    std::string snap = (dir.path / "cache-shard0.snap").string();
    ServeOptions opts = quietOptions();
    opts.cacheSnapshotPath = snap;

    {
        Server first(opts);
        first.start();
        Collector out;
        first.handleLine(requestLine("r1", "compound", kProgram),
                         out.fn());
        first.drain();
    }
    // Damage the snapshot on disk, as external corruption would.
    fs::resize_file(snap, fs::file_size(snap) - 20);

    uint64_t rejectedBefore =
        counterValue("serve.cache.snapshot_rejected");
    Server second(opts);
    second.start();  // must not crash
    EXPECT_GT(counterValue("serve.cache.snapshot_rejected"),
              rejectedBefore);

    Collector out;
    second.handleLine(requestLine("r2", "compound", kProgram), out.fn());
    second.drain();
    ASSERT_EQ(out.lines.size(), 1u);
    EXPECT_EQ(out.parsed(0).getString("type"), "result");
    EXPECT_FALSE(out.parsed(0).getBool("cache_hit", false))
        << "cold start: the damaged snapshot contributed nothing";
}

// ---------------------------------------------------------------------
// Supervisor journal-replay recovery

TEST(SupervisorRecovery, HealthReportsUnansweredAdmissions)
{
    TempDir dir("memoria-journal");
    std::string path = (dir.path / "journal.jsonl").string();
    {
        // A previous incarnation: two admits, one answered.
        std::ofstream j(path);
        j << "{\"op\":\"admit\",\"seq\":1,\"id\":\"a\",\"kind\":"
             "\"analyze\",\"shard\":0,\"replay\":false,\"line\":"
             "\"{}\"}\n";
        j << "{\"op\":\"admit\",\"seq\":2,\"id\":\"b\",\"kind\":"
             "\"compound\",\"shard\":1,\"replay\":true,\"line\":"
             "\"{}\"}\n";
        j << "{\"op\":\"done\",\"seq\":1,\"outcome\":\"ok\"}\n";
    }

    SupervisorOptions opts;
    opts.workers = 2;
    opts.workerCommand = {"/bin/false"};  // never started
    opts.journalPath = path;
    Supervisor sup(std::move(opts));

    Result<json::Value> health = json::parse(sup.healthLine("h"));
    ASSERT_TRUE(health.ok());
    const json::Value *rec = health.value().get("recovery");
    ASSERT_TRUE(rec && rec->isObject())
        << "restart after unanswered admissions must surface a "
           "recovery block: "
        << sup.healthLine("h");
    EXPECT_TRUE(rec->getBool("journal_replayed", false));
    EXPECT_EQ(rec->getInt("unanswered", -1), 1);
    const json::Value *entries = rec->get("entries");
    ASSERT_TRUE(entries && entries->isArray());
    ASSERT_EQ(entries->items().size(), 1u);
    EXPECT_EQ(entries->items()[0].getString("id"), "b");
    EXPECT_EQ(entries->items()[0].getString("kind"), "compound");
}

TEST(SupervisorRecovery, CleanJournalMeansNoRecoveryBlock)
{
    TempDir dir("memoria-journal");
    std::string path = (dir.path / "journal.jsonl").string();
    {
        std::ofstream j(path);
        j << "{\"op\":\"admit\",\"seq\":1,\"id\":\"a\",\"kind\":"
             "\"analyze\",\"shard\":0,\"replay\":false,\"line\":"
             "\"{}\"}\n";
        j << "{\"op\":\"done\",\"seq\":1,\"outcome\":\"ok\"}\n";
    }
    SupervisorOptions opts;
    opts.workers = 1;
    opts.workerCommand = {"/bin/false"};
    opts.journalPath = path;
    Supervisor sup(std::move(opts));
    Result<json::Value> health = json::parse(sup.healthLine("h"));
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health.value().get("recovery"), nullptr);
}

// ---------------------------------------------------------------------
// memoria top: restart marker, clamp, cache panel

json::Value
topPayload(int64_t tsMs, int64_t uptimeMs, int64_t total)
{
    json::Value v = json::Value::object();
    v.set("ts_ms", json::Value::number(tsMs));
    v.set("uptime_ms", json::Value::number(uptimeMs));
    json::Value reg = json::Value::object();
    json::Value counters = json::Value::object();
    counters.set("serve.requests_total", json::Value::number(total));
    reg.set("counters", std::move(counters));
    v.set("registry", std::move(reg));
    return v;
}

TEST(Top, CounterResetRendersRestartedNotGarbage)
{
    TopSample prev = parseTopSample(topPayload(1000, 60000, 5000));
    // The process restarted: total fell to 3, uptime reset.
    TopSample cur = parseTopSample(topPayload(3000, 2000, 3));
    ASSERT_TRUE(prev.valid);
    ASSERT_TRUE(cur.valid);

    std::string frame = renderTopFrame(cur, &prev);
    EXPECT_NE(frame.find("(restarted)"), std::string::npos) << frame;
    EXPECT_EQ(frame.find("-"), frame.find("- "))
        << "no negative rate anywhere: " << frame;
    // The fallback is the new incarnation's lifetime average (3 req
    // over 2s = 1.5 rps), not a delta against the old counter.
    EXPECT_NE(frame.find("1.5 rps"), std::string::npos) << frame;
}

TEST(Top, CachePanelReadsCountersOrGauges)
{
    json::Value v = json::Value::object();
    v.set("ts_ms", json::Value::number(int64_t{1000}));
    v.set("uptime_ms", json::Value::number(int64_t{10000}));
    json::Value counters = json::Value::object();
    counters.set("serve.requests_total",
                 json::Value::number(int64_t{10}));
    json::Value gauges = json::Value::object();
    gauges.set("serve.cache.hits", json::Value::number(int64_t{30}));
    gauges.set("serve.cache.misses", json::Value::number(int64_t{10}));
    gauges.set("serve.cache.entries", json::Value::number(int64_t{7}));
    gauges.set("serve.cache.bytes",
               json::Value::number(int64_t{4096}));
    json::Value reg = json::Value::object();
    reg.set("counters", std::move(counters));
    reg.set("gauges", std::move(gauges));
    v.set("registry", std::move(reg));

    TopSample s = parseTopSample(v);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.gauges.at("serve.cache.hits"), 30.0);

    std::string frame = renderTopFrame(s, nullptr);
    EXPECT_NE(frame.find("cache 30 hits / 10 misses (75.0%)"),
              std::string::npos)
        << frame;
    EXPECT_NE(frame.find("7 entries 4KiB"), std::string::npos) << frame;
}

// ---------------------------------------------------------------------
// Incident retention

TEST(IncidentRetention, OldestBundlesArePrunedBeyondTheCap)
{
    TempDir dir("memoria-incidents");
    incident::Incident inc;
    inc.kind = "panic-contained";
    inc.source = "PROGRAM x\nEND\n";

    std::vector<std::string> written;
    for (int i = 0; i < 7; ++i) {
        inc.name = "prog" + std::to_string(i);
        Result<std::string> r =
            incident::writeBundle(inc, dir.path.string(), 3);
        ASSERT_TRUE(r.ok()) << r.diag().str();
        written.push_back(r.value());
        // Distinct mtimes so oldest-first pruning is deterministic.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    size_t remaining = 0;
    for (const auto &e : fs::directory_iterator(dir.path))
        if (e.is_directory())
            ++remaining;
    EXPECT_EQ(remaining, 3u);
    EXPECT_TRUE(fs::exists(written.back()))
        << "the newest bundle always survives";
    EXPECT_FALSE(fs::exists(written.front()))
        << "the oldest bundle is pruned";
}

} // namespace
} // namespace serve
} // namespace memoria
