#include "cachesim/cache.hh"

#include <algorithm>

#include "harness/fault.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {

namespace {

/** Fires once per simulated run (at cache construction), so arming it
 *  never costs anything on the per-access hot path. */
harness::FaultSite gCachesimFault("cachesim.run");

/** Bounds of the touched-line bitmap, in 64-line words: it starts at
 *  4096 lines and stops growing at 4M lines (512 KiB). */
constexpr uint64_t kMinSeenWords = 64;
constexpr uint64_t kMaxSeenWords = uint64_t(1) << 16;

} // namespace

CacheConfig
CacheConfig::rs6000()
{
    CacheConfig c;
    c.name = "cache1 (RS/6000 64KB 4-way 128B)";
    c.sizeBytes = 64 * 1024;
    c.associativity = 4;
    c.lineBytes = 128;
    return c;
}

CacheConfig
CacheConfig::i860()
{
    CacheConfig c;
    c.name = "cache2 (i860 8KB 2-way 32B)";
    c.sizeBytes = 8 * 1024;
    c.associativity = 2;
    c.lineBytes = 32;
    return c;
}

double
CacheStats::hitRateWarm() const
{
    uint64_t warm = accesses - coldMisses;
    return warm == 0 ? 100.0 : 100.0 * hits / warm;
}

void
CacheStats::checkConsistent() const
{
    MEMORIA_ASSERT(hits + misses == accesses,
                   "cache counters out of sync: " << hits << " hits + "
                       << misses << " misses != " << accesses
                       << " accesses");
    MEMORIA_ASSERT(coldMisses <= misses,
                   "more cold misses than misses");
    MEMORIA_ASSERT(evictions <= misses, "more evictions than misses");
}

Cache::Cache(CacheConfig config) : config_(std::move(config))
{
    gCachesimFault.fireNoDiag();
    MEMORIA_ASSERT(config_.lineBytes > 0 &&
                       (config_.lineBytes & (config_.lineBytes - 1)) == 0,
                   "line size must be a power of two");
    MEMORIA_ASSERT(config_.numSets() > 0 &&
                       (config_.numSets() & (config_.numSets() - 1)) == 0,
                   "set count must be a power of two");
    while ((1 << lineShift_) < config_.lineBytes)
        ++lineShift_;
    setMask_ = static_cast<uint64_t>(config_.numSets()) - 1;
    ways_ = static_cast<size_t>(config_.associativity);
    tags_.assign(config_.numSets() * config_.associativity, 0);
    fill_.assign(config_.numSets(), 0);
}

void
Cache::access(uint64_t addr, int size, bool isWrite)
{
    (void)size;
    bool hit = probe(addr);
    if (samplePeriod_ && obs::tracingEnabled() &&
        stats_.accesses % samplePeriod_ == 0) {
        obs::traceEvent("cachesim", "access",
                        {{"addr", addr},
                         {"write", isWrite},
                         {"hit", hit}});
    }
}

bool
Cache::firstTouch(uint64_t line)
{
    uint64_t word = (line >> 6) - seenBaseWord_;
    if (word < seenBits_.size()) {
        uint64_t bit = uint64_t(1) << (line & 63);
        bool first = !(seenBits_[word] & bit);
        seenBits_[word] |= bit;
        return first;
    }
    return firstTouchOutsideWindow(line);
}

void
Cache::miss(uint64_t line, uint64_t set)
{
    ++stats_.misses;
    MEMORIA_ASSERT(stats_.hits + stats_.misses == stats_.accesses,
                   "cache counters out of sync");
    if (firstTouch(line))
        ++stats_.coldMisses;
    // Shift the set down one place, dropping the last (least recently
    // used) line when it is full.
    uint64_t *tags = &tags_[set * ways_];
    uint32_t &fill = fill_[set];
    if (fill == ways_)
        ++stats_.evictions;
    else
        ++fill;
    for (uint32_t w = fill - 1; w > 0; --w)
        tags[w] = tags[w - 1];
    tags[0] = line;
}

bool
Cache::firstTouchOutsideWindow(uint64_t line)
{
    const uint64_t word = line >> 6;
    const uint64_t oldLo = seenBaseWord_;
    const uint64_t oldSize = seenBits_.size();
    uint64_t lo = oldSize ? std::min(oldLo, word) : word;
    uint64_t hi = oldSize ? std::max(oldLo + oldSize, word + 1) : word + 1;
    if (hi - lo > kMaxSeenWords)
        return seenOutside_.insert(line).second;

    // Grow geometrically toward the new line, so a stream walking
    // past an edge regrows the window O(log n) times.
    const uint64_t size = std::min(
        kMaxSeenWords, std::max({hi - lo, 2 * oldSize, kMinSeenWords}));
    if (oldSize && word < oldLo)
        lo = hi >= size ? hi - size : 0;
    std::vector<uint64_t> bits(size, 0);
    if (oldSize)
        std::copy(seenBits_.begin(), seenBits_.end(),
                  bits.begin() + (oldLo - lo));
    seenBits_.swap(bits);
    seenBaseWord_ = lo;
    // No line in seenOutside_ can lie in the grown window: the window
    // only grows, and each of those lines was refused because the
    // window of that time plus the line spanned more than
    // kMaxSeenWords.
    return firstTouch(line);
}

void
Cache::publishStats(const std::string &prefix) const
{
    stats_.checkConsistent();
    obs::counter(prefix + ".accesses") += stats_.accesses;
    obs::counter(prefix + ".hits") += stats_.hits;
    obs::counter(prefix + ".misses") += stats_.misses;
    obs::counter(prefix + ".cold_misses") += stats_.coldMisses;
    obs::counter(prefix + ".evictions") += stats_.evictions;
}

} // namespace memoria
