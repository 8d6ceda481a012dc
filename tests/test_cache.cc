/** Unit tests for the set-associative LRU cache simulator. */

#include <gtest/gtest.h>

#include "cachesim/cache.hh"

namespace memoria {
namespace {

CacheConfig
tinyCache(int64_t size, int assoc, int line)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = line;
    return c;
}

TEST(Cache, Configs)
{
    CacheConfig c1 = CacheConfig::rs6000();
    EXPECT_EQ(c1.sizeBytes, 64 * 1024);
    EXPECT_EQ(c1.associativity, 4);
    EXPECT_EQ(c1.lineBytes, 128);
    EXPECT_EQ(c1.numSets(), 128);

    CacheConfig c2 = CacheConfig::i860();
    EXPECT_EQ(c2.numSets(), 128);
}

TEST(Cache, SpatialHitsWithinLine)
{
    Cache c(tinyCache(1024, 2, 32));
    // 8-byte elements: 4 per 32-byte line -> 1 miss + 3 hits per line.
    for (uint64_t a = 0; a < 32 * 8; a += 8)
        c.access(a, 8, false);
    EXPECT_EQ(c.stats().accesses, 32u);
    EXPECT_EQ(c.stats().misses, 8u);
    EXPECT_EQ(c.stats().hits, 24u);
    EXPECT_EQ(c.stats().coldMisses, 8u);
    // With cold misses excluded every warm access hit.
    EXPECT_DOUBLE_EQ(c.stats().hitRateWarm(), 100.0);
}

TEST(Cache, TemporalReuseWithinCapacity)
{
    Cache c(tinyCache(1024, 2, 32));
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t a = 0; a < 1024; a += 32)
            c.access(a, 8, false);
    // 32 lines fit exactly: only the first pass misses.
    EXPECT_EQ(c.stats().misses, 32u);
    EXPECT_EQ(c.stats().coldMisses, 32u);
}

TEST(Cache, LruEviction)
{
    // 1 set, 2 ways, 32B lines: a direct test of LRU order.
    Cache c(tinyCache(64, 2, 32));
    EXPECT_FALSE(c.probe(0));       // miss, loads line 0
    EXPECT_FALSE(c.probe(64));      // miss, loads line 2 (same set)
    EXPECT_TRUE(c.probe(0));        // hit, line 0 now MRU
    EXPECT_FALSE(c.probe(128));     // evicts line 2 (LRU)
    EXPECT_TRUE(c.probe(0));        // line 0 still resident
    EXPECT_FALSE(c.probe(64));      // line 2 was evicted
}

TEST(Cache, ConflictMissesInDirectMapped)
{
    // Direct-mapped, 2 sets: addresses 0 and 64 conflict (same set).
    Cache c(tinyCache(64, 1, 32));
    c.probe(0);
    c.probe(64);
    EXPECT_FALSE(c.probe(0));  // was evicted by 64
    // Cold misses counted once per distinct line.
    EXPECT_EQ(c.stats().coldMisses, 2u);
    EXPECT_EQ(c.stats().misses, 3u);
}

/** Property: at fixed size and line, higher associativity never turns a
 *  previously-hitting strided scan into more misses for LRU-friendly
 *  sequential workloads. */
class AssocSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AssocSweep, SequentialScanMissesAreCompulsoryOnly)
{
    int assoc = GetParam();
    Cache c(tinyCache(4096, assoc, 32));
    for (uint64_t a = 0; a < 4096; a += 8)
        c.access(a, 8, false);
    EXPECT_EQ(c.stats().misses, 4096u / 32u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, AssocSweep,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
} // namespace memoria
