/**
 * Tests for the single-sweep multi-configuration cache simulation
 * (cachesim/sweep.hh): the sweep must be bitwise-identical to
 * independent per-config simulations, the reuse-distance analyzer must
 * agree with a direct fully-associative cache, and a sweep must cost
 * exactly one interpreter pass no matter how many configs it feeds.
 * End-to-end counters are checked against the test-only reference
 * evaluator (reference_interp.hh) feeding plain Caches.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "interp/interp.hh"
#include "reference_interp.hh"
#include "suite/kernels.hh"
#include "support/stats.hh"

namespace memoria {
namespace {

CacheConfig
makeConfig(int64_t size, int assoc, int line)
{
    CacheConfig c;
    c.name = "t" + std::to_string(size) + "x" + std::to_string(assoc) +
             "x" + std::to_string(line);
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = line;
    return c;
}

/** A deterministic pseudo-random access trace with plenty of reuse. */
std::vector<AccessRecord>
syntheticTrace(size_t n)
{
    std::vector<AccessRecord> trace;
    trace.reserve(n);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mix streaming (i * 8) with reuse of a small working set.
        uint64_t addr = (i % 3 == 0) ? (state % 4096) * 8
                                     : (i * 8) % 65536;
        trace.push_back({addr, 8, i % 5 == 0});
    }
    return trace;
}

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.coldMisses, b.coldMisses);
    EXPECT_EQ(a.evictions, b.evictions);
}

TEST(Sweep, IdenticalToPerConfigAcrossGeometries)
{
    const std::vector<AccessRecord> trace = syntheticTrace(20000);

    // assoc "full" means fully associative: one set.
    std::vector<CacheConfig> configs;
    for (int line : {32, 128}) {
        const int64_t size = 4096;
        for (int assoc : {1, 2, 4})
            configs.push_back(makeConfig(size, assoc, line));
        configs.push_back(
            makeConfig(size, static_cast<int>(size / line), line));
    }

    MultiCacheSim sweep(configs);
    sweep.consumeBatch(trace.data(), trace.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        Cache direct(configs[i]);
        for (const AccessRecord &r : trace)
            direct.probe(r.addr);
        expectSameStats(sweep.stats(i), direct.stats());
        sweep.stats(i).checkConsistent();
        EXPECT_EQ(sweep.stats(i).hits + sweep.stats(i).misses,
                  sweep.stats(i).accesses);
    }
}

TEST(Sweep, BatchBoundariesDoNotChangeCounters)
{
    const std::vector<AccessRecord> trace = syntheticTrace(10007);
    std::vector<CacheConfig> configs = {CacheConfig::i860(),
                                        CacheConfig::rs6000()};

    MultiCacheSim whole(configs);
    whole.consumeBatch(trace.data(), trace.size());

    MultiCacheSim chunked(configs);
    const size_t kChunk = 977;  // deliberately not a divisor
    for (size_t off = 0; off < trace.size(); off += kChunk) {
        size_t n = std::min(kChunk, trace.size() - off);
        chunked.consumeBatch(trace.data() + off, n);
    }

    for (size_t i = 0; i < configs.size(); ++i)
        expectSameStats(whole.stats(i), chunked.stats(i));
}

TEST(Sweep, ResetClearsEverything)
{
    const std::vector<AccessRecord> trace = syntheticTrace(5000);
    SweepReuseOptions reuse;
    reuse.enabled = true;
    MultiCacheSim sim({CacheConfig::i860()}, reuse);
    sim.consumeBatch(trace.data(), trace.size());
    ASSERT_GT(sim.stats(0).accesses, 0u);
    ASSERT_NE(sim.reuse(), nullptr);

    sim.reset();
    EXPECT_EQ(sim.stats(0).accesses, 0u);
    EXPECT_EQ(sim.reuse()->warmAccesses(), 0u);
    EXPECT_EQ(sim.reuse()->coldAccesses(), 0u);

    // After a reset the counters match a fresh simulation.
    sim.consumeBatch(trace.data(), trace.size());
    MultiCacheSim fresh({CacheConfig::i860()});
    fresh.consumeBatch(trace.data(), trace.size());
    expectSameStats(sim.stats(0), fresh.stats(0));
}

TEST(Sweep, ReuseDistanceMatchesFullyAssociativeCache)
{
    const std::vector<AccessRecord> trace = syntheticTrace(20000);
    const int lineBytes = 32;

    SweepReuseOptions reuse;
    reuse.enabled = true;
    reuse.lineBytes = lineBytes;
    MultiCacheSim sim(std::vector<CacheConfig>{}, reuse);
    sim.consumeBatch(trace.data(), trace.size());
    ASSERT_NE(sim.reuse(), nullptr);

    // A fully associative LRU cache of capacity C lines misses exactly
    // the cold accesses plus the warm accesses with reuse distance
    // >= C — the analyzer's missRatio must reproduce the direct
    // simulation for several capacities.
    for (int64_t capacityLines : {16, 64, 256}) {
        Cache direct(
            makeConfig(capacityLines * lineBytes,
                       static_cast<int>(capacityLines), lineBytes));
        for (const AccessRecord &r : trace)
            direct.probe(r.addr);

        uint64_t warm = sim.reuse()->warmAccesses();
        uint64_t cold = sim.reuse()->coldAccesses();
        EXPECT_EQ(cold, direct.stats().coldMisses);
        uint64_t predictedWarmMisses = static_cast<uint64_t>(
            sim.reuse()->missRatio(
                static_cast<uint64_t>(capacityLines)) *
                static_cast<double>(warm) +
            0.5);
        uint64_t directWarmMisses =
            direct.stats().misses - direct.stats().coldMisses;
        EXPECT_EQ(predictedWarmMisses, directWarmMisses)
            << "capacity " << capacityLines << " lines";
    }
}

TEST(Sweep, RunWithCachesMatchesReferencePerConfig)
{
    Program p = makeMatmul("IJK", 24);
    std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                        CacheConfig::i860()};
    SweepResult sweep = runWithCaches(p, configs);
    ASSERT_EQ(sweep.cache.size(), configs.size());
    ASSERT_EQ(sweep.cycles.size(), configs.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        // The independent side: the test-only reference evaluator
        // feeding a plain Cache one access at a time.
        Cache direct(configs[i]);
        ReferenceRun ref = runReference(p, &direct);
        ASSERT_TRUE(ref.status.ok());
        expectSameStats(sweep.cache[i], direct.stats());
        EXPECT_EQ(sweep.checksum, ref.checksum);
        EXPECT_EQ(sweep.exec.memRefs, ref.stats.memRefs);
        EXPECT_EQ(sweep.exec.loopIterations, ref.stats.loopIterations);

        // The one-config entry point is the same sweep.
        RunResult one = runWithCache(p, configs[i]);
        expectSameStats(one.cache, direct.stats());
        EXPECT_DOUBLE_EQ(one.cycles, sweep.cycles[i]);
    }
}

TEST(Sweep, OneInterpreterPassPerSweep)
{
    Program p = makeAdiScalarized(16);
    std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                        CacheConfig::i860()};

    obs::Counter &runs = obs::counter("interp.runs");
    uint64_t before = runs.value();
    SweepResult sweep = runWithCaches(p, configs);
    EXPECT_EQ(runs.value() - before, 1u)
        << "a 2-config sweep must execute the interpreter exactly once";
    ASSERT_EQ(sweep.cache.size(), 2u);
    EXPECT_EQ(sweep.cache[0].accesses, sweep.cache[1].accesses);

    // The reference evaluator is outside the interpreter's counters
    // and sees the same stream.
    before = runs.value();
    Cache direct(configs[0]);
    ASSERT_TRUE(runReference(p, &direct).status.ok());
    EXPECT_EQ(runs.value() - before, 0u);
    expectSameStats(sweep.cache[0], direct.stats());

    before = runs.value();
    Result<RunResult> one = tryRunWithCache(p, configs[0]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(runs.value() - before, 1u);
}

TEST(Sweep, FaultingProgramReportsDiag)
{
    // MOD-by-zero style faults must come back as a Diag from the
    // checked sweep entry point, not abort the process.
    Program p = makeMatmul("IJK", 8);
    Result<SweepResult> ok =
        tryRunWithCaches(p, {CacheConfig::i860()});
    ASSERT_TRUE(ok.ok());

    // An empty config list still runs (exec stats only).
    SweepResult none = runWithCaches(p, {});
    EXPECT_EQ(none.cache.size(), 0u);
    EXPECT_GT(none.exec.memRefs, 0u);
    EXPECT_EQ(none.checksum, ok.value().checksum);
}

} // namespace
} // namespace memoria
