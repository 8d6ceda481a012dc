/**
 * Ground truth for the cache simulator (cachesim/cache.hh).
 *
 * ModelLru below is a deliberately plain LRU cache that shares no code
 * with src/cachesim: one std::list of resident lines per set, most
 * recent first, and a std::set of every line seen for cold misses. It
 * finds lines with division and modulo rather than shifts and masks.
 * Every test feeds the same address stream to it and to Cache and
 * requires the same verdict on every access and the same five
 * counters at the end.
 */

#include <algorithm>
#include <cstdint>
#include <list>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "reference_interp.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

struct ModelStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coldMisses = 0;
    uint64_t evictions = 0;
};

class ModelLru
{
  public:
    ModelLru(uint64_t sizeBytes, uint64_t ways, uint64_t lineBytes)
        : ways_(ways), lineBytes_(lineBytes),
          sets_(sizeBytes / (ways * lineBytes))
    {
    }

    /** Returns true on a hit. */
    bool
    access(uint64_t addr)
    {
        const uint64_t line = addr / lineBytes_;
        std::list<uint64_t> &set = sets_[line % sets_.size()];
        ++stats.accesses;
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            ++stats.hits;
            set.splice(set.begin(), set, it);
            return true;
        }
        ++stats.misses;
        if (seen_.insert(line).second)
            ++stats.coldMisses;
        if (set.size() == ways_) {
            set.pop_back();
            ++stats.evictions;
        }
        set.push_front(line);
        return false;
    }

    ModelStats stats;

  private:
    uint64_t ways_;
    uint64_t lineBytes_;
    std::vector<std::list<uint64_t>> sets_;
    std::set<uint64_t> seen_;
};

CacheConfig
geometry(int64_t sizeBytes, int ways, int lineBytes)
{
    CacheConfig c;
    c.name = std::to_string(sizeBytes) + "B/" + std::to_string(ways) +
             "-way/" + std::to_string(lineBytes) + "B";
    c.sizeBytes = sizeBytes;
    c.associativity = ways;
    c.lineBytes = lineBytes;
    return c;
}

/** 1, 2, 4 and 8 ways at 8KB, and fully associative with 256 ways,
 *  each at 32- and 128-byte lines. */
std::vector<CacheConfig>
geometries()
{
    std::vector<CacheConfig> out;
    for (int line : {32, 128}) {
        for (int ways : {1, 2, 4, 8})
            out.push_back(geometry(8192, ways, line));
        out.push_back(geometry(256 * int64_t(line), 256, line));
    }
    return out;
}

/** Feeds `stream` to a Cache and a ModelLru of `config`, requiring the
 *  same verdict per access and the same counters at the end. */
void
expectAgree(const CacheConfig &config, const std::vector<uint64_t> &stream,
            const std::string &what)
{
    SCOPED_TRACE(what + " on " + config.name);
    Cache cache(config);
    ModelLru model(config.sizeBytes, config.associativity,
                   config.lineBytes);
    for (size_t i = 0; i < stream.size(); ++i)
        ASSERT_EQ(cache.probe(stream[i]), model.access(stream[i]))
            << "access " << i << " at " << stream[i];
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses, model.stats.accesses);
    EXPECT_EQ(s.hits, model.stats.hits);
    EXPECT_EQ(s.misses, model.stats.misses);
    EXPECT_EQ(s.coldMisses, model.stats.coldMisses);
    EXPECT_EQ(s.evictions, model.stats.evictions);
    s.checkConsistent();
}

std::vector<uint64_t>
randomStream(uint64_t seed, size_t n, uint64_t base, uint64_t span)
{
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(base + rng() % span);
    return out;
}

/** `passes` sweeps over `count` elements `stride` bytes apart. */
std::vector<uint64_t>
stridedStream(uint64_t base, uint64_t stride, size_t count, int passes)
{
    std::vector<uint64_t> out;
    for (int p = 0; p < passes; ++p)
        for (size_t i = 0; i < count; ++i)
            out.push_back(base + i * stride);
    return out;
}

/** Records the addresses a program touches, in order. */
class AddressRecorder final : public MemoryListener
{
  public:
    void
    access(uint64_t addr, int, bool) override
    {
        addrs.push_back(addr);
    }

    std::vector<uint64_t> addrs;
};

TEST(CacheModel, SeededRandomStreams)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        // Working sets from a quarter of the cache to four times it.
        for (uint64_t span : {2048u, 16384u, 131072u}) {
            std::vector<uint64_t> s =
                randomStream(seed, 20000, 0x100000, span);
            for (const CacheConfig &c : geometries())
                expectAgree(c, s,
                            "seed " + std::to_string(seed) + " span " +
                                std::to_string(span));
        }
    }
}

TEST(CacheModel, StridedStreams)
{
    for (uint64_t stride : {8u, 24u, 128u, 1024u, 4096u, 1u << 20}) {
        std::vector<uint64_t> s = stridedStream(0x100000, stride, 700, 3);
        for (const CacheConfig &c : geometries())
            expectAgree(c, s, "stride " + std::to_string(stride));
    }
}

TEST(CacheModel, KernelStreamsAtN24)
{
    std::vector<Program> progs;
    for (const char *order : {"IJK", "IKJ", "JKI"})
        progs.push_back(makeMatmul(order, 24));
    progs.push_back(makeCholeskyKIJ(24));
    progs.push_back(makeCholeskyKJI(24));
    progs.push_back(makeAdiScalarized(24));
    progs.push_back(makeAdiFused(24));
    progs.push_back(makeErlebacherDistributed(24));
    progs.push_back(makeErlebacherHand(24));
    progs.push_back(makeGmtry(24));
    progs.push_back(makeSimpleHydro(24));
    progs.push_back(makeVpenta(24));
    progs.push_back(makeJacobiBadOrder(24));

    std::vector<CacheConfig> configs = geometries();
    configs.push_back(CacheConfig::rs6000());
    configs.push_back(CacheConfig::i860());
    for (const Program &p : progs) {
        AddressRecorder rec;
        ASSERT_TRUE(runReference(p, &rec).status.ok()) << p.name;
        ASSERT_FALSE(rec.addrs.empty()) << p.name;
        for (const CacheConfig &c : configs)
            expectAgree(c, rec.addrs, p.name);
    }
}

TEST(CacheModel, LinesBelowTheFirstLineSeen)
{
    // Descending from high to low: every new line lies below all the
    // lines before it, near the first one and far below it.
    std::vector<uint64_t> s;
    for (uint64_t a = 0x4000000; a >= 0x100000; a -= 4104)
        s.push_back(a);
    for (uint64_t a : {0x80ull, 0x0ull, 0x100040ull, 0x3ff0000ull})
        s.push_back(a);
    std::vector<uint64_t> again = s;
    s.insert(s.end(), again.rbegin(), again.rend());
    for (const CacheConfig &c : geometries())
        expectAgree(c, s, "descending");
}

TEST(CacheModel, FarApartLines)
{
    const uint64_t top = ~uint64_t(0);
    const std::vector<uint64_t> points = {
        0,          uint64_t(1) << 40,  top - 7,
        top - 4096, (uint64_t(1) << 40) + 64, 64,
        0x100000,   (uint64_t(1) << 63), top,
    };
    std::vector<uint64_t> s;
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t p : points)
            s.push_back(p);
        // Dense runs around each point interleave window lines with
        // lines far outside any window.
        for (uint64_t p : points)
            for (uint64_t k = 0; k < 40; ++k)
                s.push_back(p >= 40 * 32 ? p - k * 32 : p + k * 32);
    }
    for (const CacheConfig &c : geometries())
        expectAgree(c, s, "far apart");
    expectAgree(CacheConfig::rs6000(), s, "far apart");
    expectAgree(CacheConfig::i860(), s, "far apart");
}

TEST(CacheModel, FreshCachePerStream)
{
    const std::vector<std::vector<uint64_t>> streams = {
        randomStream(7, 5000, 0x100000, 65536),
        stridedStream(uint64_t(1) << 40, 96, 400, 2),
        randomStream(8, 5000, 0, 1u << 20),
        stridedStream(0x100000, 32, 600, 2),
    };
    for (const CacheConfig &c : geometries()) {
        for (size_t k = 0; k < streams.size(); ++k) {
            SCOPED_TRACE("stream " + std::to_string(k) + " on " + c.name);
            Cache cache(c);
            ModelLru model(c.sizeBytes, c.associativity, c.lineBytes);
            for (uint64_t a : streams[k])
                ASSERT_EQ(cache.probe(a), model.access(a)) << a;
            EXPECT_EQ(cache.stats().accesses, model.stats.accesses);
            EXPECT_EQ(cache.stats().hits, model.stats.hits);
            EXPECT_EQ(cache.stats().misses, model.stats.misses);
            EXPECT_EQ(cache.stats().coldMisses, model.stats.coldMisses);
            EXPECT_EQ(cache.stats().evictions, model.stats.evictions);
        }
    }
}

} // namespace
} // namespace memoria
