/**
 * @file
 * Unit tests for the serve overload-control building blocks: the
 * admission controller (deadline-aware shed-on-arrival, per-client
 * fair share, CoDel aging), the memory governor's watermark state
 * machine, the procstat RSS reader, and the protocol fields the
 * admission path added. All pure in-process — the multi-process
 * recycle behavior lives in test_serve.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness/ladder.hh"
#include "serve/admission.hh"
#include "serve/cache.hh"
#include "serve/governor.hh"
#include "serve/protocol.hh"
#include "strings.hh"
#include "support/json.hh"
#include "support/procstat.hh"

namespace memoria {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// Priority parsing

TEST(Priority, Parse)
{
    Priority p = Priority::Batch;
    EXPECT_TRUE(parsePriority("", p));
    EXPECT_EQ(p, Priority::Interactive) << "empty means interactive";
    EXPECT_TRUE(parsePriority("interactive", p));
    EXPECT_EQ(p, Priority::Interactive);
    EXPECT_TRUE(parsePriority("batch", p));
    EXPECT_EQ(p, Priority::Batch);
    EXPECT_FALSE(parsePriority("urgent", p)) << "unknown class rejected";
}

// ---------------------------------------------------------------------
// Admission: capacity and per-client caps

AdmissionOptions
smallQueue(size_t cap)
{
    AdmissionOptions o;
    o.queueCapacity = cap;
    return o;
}

TEST(Admission, QueueFullShedCarriesDepthAndReason)
{
    AdmissionController ac(smallQueue(2));
    int64_t now = 1'000'000;
    for (uint64_t id = 1; id <= 2; ++id) {
        AdmissionDecision d =
            ac.decide("a", Priority::Interactive, 0, 0, now);
        ASSERT_TRUE(d.admitted);
        ac.enqueue(id, "a", Priority::Interactive, 0, now);
    }
    AdmissionDecision d =
        ac.decide("a", Priority::Interactive, 0, 0, now);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "queue-full");
    EXPECT_EQ(d.queueDepth, 2u) << "shed reports the depth it saw";
    EXPECT_GE(d.retryAfterMs, 1) << "hint is always at least 1ms";
}

TEST(Admission, ClientCapShedsTheFlooderOnly)
{
    AdmissionOptions o = smallQueue(64);
    o.perClientCap = 3;
    AdmissionController ac(o);
    int64_t now = 1'000'000;
    uint64_t id = 1;
    for (int i = 0; i < 3; ++i) {
        AdmissionDecision d =
            ac.decide("flood", Priority::Interactive, 0, 0, now);
        ASSERT_TRUE(d.admitted);
        ac.enqueue(id++, "flood", Priority::Interactive, 0, now);
    }
    AdmissionDecision flooded =
        ac.decide("flood", Priority::Interactive, 0, 0, now);
    EXPECT_FALSE(flooded.admitted);
    EXPECT_EQ(flooded.reason, "client-capped");

    AdmissionDecision neighbor =
        ac.decide("calm", Priority::Interactive, 0, 0, now);
    EXPECT_TRUE(neighbor.admitted)
        << "the cap is per-client, not global";
}

// ---------------------------------------------------------------------
// Admission: deadline feasibility and honest retry hints

TEST(Admission, DeadlineInfeasibleShedsOnArrival)
{
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;

    // No service estimate yet: fail open even with a tight deadline.
    AdmissionDecision blind = ac.decide("a", Priority::Interactive,
                                        now + 1000, 0, now);
    EXPECT_TRUE(blind.admitted) << "no estimate means no feasibility check";

    // Caller-supplied estimate (the p90 path): 50ms of service cannot
    // fit a 10ms deadline.
    AdmissionDecision est = ac.decide("a", Priority::Interactive,
                                      now + 10'000, 50'000, now);
    EXPECT_FALSE(est.admitted);
    EXPECT_EQ(est.reason, "deadline-infeasible");

    // A roomy deadline with the same estimate is admitted.
    AdmissionDecision roomy = ac.decide("a", Priority::Interactive,
                                        now + 200'000, 50'000, now);
    EXPECT_TRUE(roomy.admitted);

    // The controller's own EWMA kicks in as the fallback estimate.
    ac.recordService(80'000);
    AdmissionDecision ewma = ac.decide("a", Priority::Interactive,
                                       now + 10'000, 0, now);
    EXPECT_FALSE(ewma.admitted);
    EXPECT_EQ(ewma.reason, "deadline-infeasible");
}

TEST(Admission, QueueDelayFeedsFeasibility)
{
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;

    // Establish a drain rate of ~10ms per finish.
    std::vector<AdmissionDrop> drops;
    for (uint64_t id = 1; id <= 8; ++id) {
        ac.enqueue(id, "a", Priority::Interactive, 0, now);
        EXPECT_EQ(ac.pop(now, drops), id);
        now += 10'000;
        ac.finish(id, now);
    }
    ASSERT_GT(ac.interFinishUs(), 5'000);

    // Stack 10 ahead of the candidate: queue delay alone (~100ms)
    // blows a 20ms deadline even though service is only 1ms.
    for (uint64_t id = 100; id < 110; ++id)
        ac.enqueue(id, "a", Priority::Interactive, 0, now);
    AdmissionDecision d = ac.decide("b", Priority::Interactive,
                                    now + 20'000, 1'000, now);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline-infeasible");
}

TEST(Admission, RetryHintTracksDrainRate)
{
    AdmissionOptions o = smallQueue(4);
    o.retryAfterMs = 5;
    AdmissionController ac(o);
    int64_t now = 1'000'000;

    // ~20ms inter-finish gap.
    std::vector<AdmissionDrop> drops;
    for (uint64_t id = 1; id <= 8; ++id) {
        ac.enqueue(id, "a", Priority::Interactive, 0, now);
        EXPECT_EQ(ac.pop(now, drops), id);
        now += 20'000;
        ac.finish(id, now);
    }

    for (uint64_t id = 10; id < 14; ++id)
        ac.enqueue(id, "a", Priority::Interactive, 0, now);
    AdmissionDecision d =
        ac.decide("b", Priority::Interactive, 0, 0, now);
    ASSERT_FALSE(d.admitted);
    // 5 requests ahead (4 queued + self) at ~20ms each ≈ 100ms; the
    // jitter is ±20%, so anywhere in [80, 120] is honest — and far
    // from the 5ms configured floor.
    EXPECT_GE(d.retryAfterMs, 60);
    EXPECT_LE(d.retryAfterMs, 150);
}

// ---------------------------------------------------------------------
// Admission: fair-share dequeue

TEST(Admission, DrrInterleavesClientsWithinAClass)
{
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;
    uint64_t id = 1;
    // Client "hog" floods 8 before "b" and "c" arrive with one each.
    for (int i = 0; i < 8; ++i)
        ac.enqueue(id++, "hog", Priority::Interactive, 0, now);
    uint64_t bId = id;
    ac.enqueue(id++, "b", Priority::Interactive, 0, now);
    uint64_t cId = id;
    ac.enqueue(id++, "c", Priority::Interactive, 0, now);

    std::vector<AdmissionDrop> drops;
    std::vector<uint64_t> order;
    for (int i = 0; i < 4; ++i)
        order.push_back(ac.pop(now, drops));
    // Round-robin: b and c are served within the first three pops
    // despite eight hog entries ahead of them in arrival order.
    EXPECT_NE(std::find(order.begin(), order.begin() + 3, bId),
              order.begin() + 3);
    EXPECT_NE(std::find(order.begin(), order.begin() + 3, cId),
              order.begin() + 3);
    EXPECT_TRUE(drops.empty());
}

TEST(Admission, InteractiveOutweighsBatchWithoutStarvingIt)
{
    AdmissionController ac(smallQueue(256));
    int64_t now = 1'000'000;
    uint64_t id = 1;
    std::set<uint64_t> batchIds;
    for (int i = 0; i < 40; ++i)
        ac.enqueue(id++, "i", Priority::Interactive, 0, now);
    for (int i = 0; i < 40; ++i) {
        batchIds.insert(id);
        ac.enqueue(id++, "b", Priority::Batch, 0, now);
    }

    std::vector<AdmissionDrop> drops;
    int batchInFirst20 = 0;
    std::vector<uint64_t> first;
    for (int i = 0; i < 20; ++i) {
        uint64_t got = ac.pop(now, drops);
        ASSERT_NE(got, 0u);
        first.push_back(got);
        if (batchIds.count(got))
            ++batchInFirst20;
    }
    // 4:1 weighting: expect ~4 batch pops in 20, and at least one
    // (never starved) but well under half (interactive dominates).
    EXPECT_GE(batchInFirst20, 2);
    EXPECT_LE(batchInFirst20, 8);

    // Drain everything: both classes fully served eventually.
    uint64_t got;
    size_t total = first.size();
    while ((got = ac.pop(now, drops)) != 0)
        ++total;
    EXPECT_EQ(total, 80u);
}

TEST(Admission, PoppedClientAtCapIsSkippedNotDropped)
{
    AdmissionOptions o = smallQueue(64);
    o.perClientCap = 1;
    AdmissionController ac(o);
    int64_t now = 1'000'000;
    ac.enqueue(1, "a", Priority::Interactive, 0, now);
    ac.enqueue(2, "a", Priority::Interactive, 0, now);
    ac.enqueue(3, "b", Priority::Interactive, 0, now);

    std::vector<AdmissionDrop> drops;
    EXPECT_EQ(ac.pop(now, drops), 1u);
    // "a" is at its in-flight cap: its second entry waits, "b" runs.
    EXPECT_EQ(ac.pop(now, drops), 3u);
    EXPECT_EQ(ac.pop(now, drops), 0u) << "everything runnable is out";
    ac.finish(1, now + 1000);
    EXPECT_EQ(ac.pop(now + 1000, drops), 2u)
        << "finish unblocks the capped client";
    EXPECT_TRUE(drops.empty());
}

// ---------------------------------------------------------------------
// Admission: in-queue expiry and CoDel aging

TEST(Admission, ExpiredEntriesDropAtPopWithoutRunning)
{
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;
    ac.enqueue(1, "a", Priority::Interactive, now + 5'000, now);
    ac.enqueue(2, "a", Priority::Interactive, 0, now);

    std::vector<AdmissionDrop> drops;
    uint64_t got = ac.pop(now + 10'000, drops);
    EXPECT_EQ(got, 2u) << "the live entry runs";
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].id, 1u);
    EXPECT_TRUE(drops[0].expired) << "deadline-exceeded, not aged";
    EXPECT_EQ(ac.depth(), 0u);
}

TEST(Admission, CodelAgesTheOldestAfterASustainedInterval)
{
    AdmissionOptions o = smallQueue(64);
    o.ageTargetMs = 10;
    AdmissionController ac(o);
    int64_t now = 1'000'000;
    ac.enqueue(1, "a", Priority::Interactive, 0, now);
    ac.enqueue(2, "a", Priority::Interactive, 0, now + 1000);

    std::vector<AdmissionDrop> drops;
    // First pop past the target arms the aging clock but drops
    // nothing (a burst may still drain on its own)...
    EXPECT_EQ(ac.pop(now + 12'000, drops), 1u);
    EXPECT_TRUE(drops.empty());
    // ...a full interval later with the head still over target, the
    // oldest entry is shed as queue-aged.
    EXPECT_EQ(ac.pop(now + 24'000, drops), 0u)
        << "the aged head was dropped, nothing else is queued";
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].id, 2u);
    EXPECT_FALSE(drops[0].expired) << "aged, not deadline-exceeded";
}

TEST(Admission, CodelAgedDropOfSoleQueuedEntryLeavesCleanState)
{
    // Regression: the aged drop used to read through a pointer into
    // the Entry it had just pop_front'd whenever the drop emptied the
    // client's queue (the common sole-entry case) — a use-after-free
    // ASan trips on. Pin the client with an in-flight cap so its
    // queued entry can only leave via aging.
    AdmissionOptions o = smallQueue(64);
    o.ageTargetMs = 10;
    o.perClientCap = 1;
    AdmissionController ac(o);
    int64_t now = 1'000'000;
    // Long key on purpose: past SSO the destroyed Entry's client
    // string frees its heap buffer, so the old read-after-pop is a
    // heap-use-after-free ASan can actually see.
    const std::string solo(64, 's');
    ac.enqueue(1, solo, Priority::Interactive, 0, now);
    std::vector<AdmissionDrop> drops;
    EXPECT_EQ(ac.pop(now, drops), 1u);
    ac.enqueue(2, solo, Priority::Interactive, 0, now);

    // Arm the aging clock (nothing dropped), then a full interval
    // later the sole queued entry is aged out and its queue empties.
    EXPECT_EQ(ac.pop(now + 12'000, drops), 0u) << "client is capped";
    EXPECT_TRUE(drops.empty());
    EXPECT_EQ(ac.pop(now + 24'000, drops), 0u);
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].id, 2u);
    EXPECT_FALSE(drops[0].expired);
    EXPECT_EQ(ac.depth(), 0u);

    // The controller is still coherent: the in-flight record remains,
    // finish releases it, and the client can run again.
    EXPECT_EQ(ac.clientRecords(), 1u) << "in-flight keeps the record";
    ac.finish(1, now + 25'000);
    EXPECT_EQ(ac.clientRecords(), 0u);
    ac.enqueue(3, solo, Priority::Interactive, 0, now + 26'000);
    drops.clear();
    EXPECT_EQ(ac.pop(now + 26'000, drops), 3u);
    EXPECT_TRUE(drops.empty());
}

TEST(Admission, ExpiredDropsDoNotLeakClientRecordsUnderChurn)
{
    // Regression: the expiry sweep used operator[] on the clients map
    // and never erased emptied records, so one-shot client churn grew
    // the map without bound.
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;
    for (uint64_t i = 0; i < 10; ++i)
        ac.enqueue(i + 1, numbered("oneshot", i),
                   Priority::Interactive, now + 1'000, now);
    ASSERT_EQ(ac.clientRecords(), 10u);

    std::vector<AdmissionDrop> drops;
    EXPECT_EQ(ac.pop(now + 10'000, drops), 0u)
        << "everything expired in queue";
    EXPECT_EQ(drops.size(), 10u);
    for (const AdmissionDrop &d : drops)
        EXPECT_TRUE(d.expired);
    EXPECT_EQ(ac.depth(), 0u);
    EXPECT_EQ(ac.clientRecords(), 0u)
        << "idle records must die with their last entry";
}

TEST(Admission, FinishIsTolerantOfQueuedAndUnknownIds)
{
    AdmissionController ac(smallQueue(64));
    int64_t now = 1'000'000;
    ac.enqueue(1, "a", Priority::Interactive, 0, now);
    ac.enqueue(2, "a", Priority::Interactive, 0, now);

    // Finishing a still-queued id removes it (the drain sweep path).
    ac.finish(2, now);
    EXPECT_EQ(ac.depth(), 1u);

    // Unknown and double finishes are no-ops, not corruption.
    ac.finish(99, now);
    std::vector<AdmissionDrop> drops;
    EXPECT_EQ(ac.pop(now, drops), 1u);
    ac.finish(1, now + 1000);
    ac.finish(1, now + 2000);
    EXPECT_EQ(ac.inflight(), 0u);
    EXPECT_EQ(ac.depth(), 0u);
}

// ---------------------------------------------------------------------
// Memory governor

std::string
fatBody(char c)
{
    return std::string(1024, c);
}

TEST(Governor, SoftTripShrinksCacheAndFloorsTheLadder)
{
    ResultCache cache(CacheOptions{});
    for (int i = 0; i < 8; ++i)
        cache.seed(numbered("k", i), fatBody('a' + i));
    ASSERT_EQ(cache.stats().entries, 8u);

    GovernorOptions gopts;
    gopts.softBytes = 100 << 20;
    gopts.hardBytes = 200 << 20;
    MemoryGovernor gov(gopts, &cache);
    ASSERT_TRUE(gov.enabled());
    EXPECT_EQ(gov.rungFloor(), harness::Rung::FullCompound);

    gov.evaluate(120 << 20);  // over soft, under hard
    EXPECT_TRUE(gov.softPressure());
    EXPECT_FALSE(gov.hardPressure());
    EXPECT_EQ(gov.softTrips(), 1u);
    EXPECT_EQ(gov.rungFloor(), harness::Rung::PermuteOnly);
    EXPECT_LE(cache.stats().entries, 4u)
        << "soft pressure halves the cache footprint";

    // Hovering just under the watermark does NOT release (hysteresis).
    gov.evaluate((100 << 20) - 1024);
    EXPECT_TRUE(gov.softPressure()) << "within the hysteresis band";

    // A tenth below the watermark does.
    gov.evaluate(85 << 20);
    EXPECT_FALSE(gov.softPressure());
    EXPECT_EQ(gov.rungFloor(), harness::Rung::FullCompound);
    EXPECT_EQ(gov.softTrips(), 1u) << "release is not a trip";
}

TEST(Governor, SustainedSoftPressureKeepsTheCacheClamped)
{
    // Regression: the squeeze used to run only on the soft-pressure
    // rising edge; while pressure stayed latched the cache regrew to
    // its configured bounds, making the reclaim effectively one-shot.
    ResultCache cache(CacheOptions{});
    for (int i = 0; i < 8; ++i)
        cache.seed(numbered("k", i), fatBody('a' + i));

    GovernorOptions gopts;
    gopts.softBytes = 100 << 20;
    MemoryGovernor gov(gopts, &cache);

    gov.evaluate(120 << 20);
    ASSERT_TRUE(gov.softPressure());
    const size_t clamped = cache.stats().entries;
    ASSERT_LE(clamped, 4u);

    // Between samples the cache regrows (shrinkTo is one-shot)...
    for (int i = 10; i < 18; ++i)
        cache.seed(numbered("k", i), fatBody('z'));
    ASSERT_GT(cache.stats().entries, clamped);

    // ...but the next sample under sustained pressure re-clamps it,
    // without counting as a fresh trip.
    gov.evaluate(120 << 20);
    EXPECT_TRUE(gov.softPressure());
    EXPECT_EQ(gov.softTrips(), 1u) << "latched, not re-tripped";
    EXPECT_LE(cache.stats().entries, clamped);

    // Release clears the clamp: regrowth is free again.
    gov.evaluate(85 << 20);
    EXPECT_FALSE(gov.softPressure());
    for (int i = 20; i < 28; ++i)
        cache.seed(numbered("k", i), fatBody('w'));
    gov.evaluate(85 << 20);
    EXPECT_GT(cache.stats().entries, clamped + 2)
        << "no squeeze after release";
}

TEST(Governor, HardPressureLatches)
{
    GovernorOptions gopts;
    gopts.softBytes = 100 << 20;
    gopts.hardBytes = 200 << 20;
    MemoryGovernor gov(gopts, nullptr);

    gov.evaluate(250 << 20);
    EXPECT_TRUE(gov.hardPressure());
    EXPECT_EQ(gov.hardTrips(), 1u);

    // RSS falling back does not un-latch: the worker must recycle.
    gov.evaluate(10 << 20);
    EXPECT_TRUE(gov.hardPressure());
    EXPECT_EQ(gov.hardTrips(), 1u) << "latched, not re-tripped";
}

TEST(Governor, DisabledGovernorNeverDegrades)
{
    MemoryGovernor gov(GovernorOptions{}, nullptr);
    EXPECT_FALSE(gov.enabled());
    gov.evaluate(1ull << 40);
    EXPECT_FALSE(gov.softPressure());
    EXPECT_FALSE(gov.hardPressure());
    EXPECT_EQ(gov.rungFloor(), harness::Rung::FullCompound);
}

// ---------------------------------------------------------------------
// procstat

TEST(Procstat, SelfRssIsPositiveAndBogusPidIsZero)
{
    EXPECT_GT(procstat::rssBytes(), 0u)
        << "a running test binary has resident pages";
    EXPECT_GT(procstat::rssBytes(::getpid()), 0u);
    // pid_t is 32-bit signed and kernel pids stop well short of this.
    EXPECT_EQ(procstat::rssBytes(2'000'000'000), 0u)
        << "unknown reads as 0";
}

// ---------------------------------------------------------------------
// Protocol: admission fields

TEST(Protocol, ParsesPriorityClientIdAndRejectsUnknownPriority)
{
    Result<Request> r = parseRequest(
        "{\"id\":\"x\",\"kind\":\"analyze\",\"program\":\"P\","
        "\"priority\":\"batch\",\"client_id\":\"alice\","
        "\"deadline_ms\":250}");
    ASSERT_TRUE(r.ok()) << r.diag().str();
    EXPECT_EQ(r.value().priority, "batch");
    EXPECT_EQ(r.value().clientId, "alice");
    EXPECT_EQ(r.value().deadlineMs, 250);

    Result<Request> bad = parseRequest(
        "{\"id\":\"x\",\"kind\":\"analyze\",\"program\":\"P\","
        "\"priority\":\"asap\"}");
    EXPECT_FALSE(bad.ok()) << "unknown priority is a request error";
}

TEST(Protocol, OverloadedResponseCarriesDepthAndReason)
{
    Result<json::Value> v = json::parse(
        overloadedResponse("r9", 120, 17, "client-capped"));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().getString("type"), "overloaded");
    EXPECT_EQ(v.value().getString("id"), "r9");
    EXPECT_EQ(v.value().getInt("retry_after_ms"), 120);
    EXPECT_EQ(v.value().getInt("queue_depth"), 17);
    EXPECT_EQ(v.value().getString("reason"), "client-capped");

    // Defaults preserve the original wire shape.
    Result<json::Value> d = json::parse(overloadedResponse("r1", 50));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().getString("reason"), "queue-full");
    EXPECT_EQ(d.value().getInt("queue_depth"), 0);
}

TEST(Protocol, DeadlineExceededResponseShape)
{
    Result<json::Value> v =
        json::parse(deadlineExceededResponse("r2", 345));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().getString("type"), "error");
    EXPECT_EQ(v.value().getString("code"), "serve.deadline-exceeded");
    EXPECT_EQ(v.value().getInt("waited_ms"), 345);
}

// ---------------------------------------------------------------------
// Cache shrink + rung floor combinator (governor collaborators)

TEST(Cache, ShrinkToSqueezesLruTailAndAllowsRegrowth)
{
    ResultCache cache(CacheOptions{});
    for (int i = 0; i < 10; ++i)
        cache.seed(numbered("k", i), fatBody('x'));
    // k9 is MRU; shrink to 3 keeps the 3 most recent.
    size_t evicted = cache.shrinkTo(3, 0);
    EXPECT_EQ(evicted, 7u);
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 3u);
    auto kept = cache.entries();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].first, "k9") << "MRU survives the squeeze";

    // The configured bounds are untouched: the cache regrows.
    for (int i = 20; i < 26; ++i)
        cache.seed(numbered("k", i), fatBody('y'));
    EXPECT_EQ(cache.stats().entries, 9u);
}

TEST(Ladder, WeakerRungPicksTheCheaperFloor)
{
    using harness::Rung;
    using harness::weakerRung;
    EXPECT_EQ(weakerRung(Rung::FullCompound, Rung::PermuteOnly),
              Rung::PermuteOnly);
    EXPECT_EQ(weakerRung(Rung::Identity, Rung::NoFusion),
              Rung::Identity);
    EXPECT_EQ(weakerRung(Rung::NoFusion, Rung::NoFusion),
              Rung::NoFusion);
}

} // namespace
} // namespace serve
} // namespace memoria
