/**
 * @file
 * Set-associative cache simulator with LRU replacement.
 *
 * Models the two configurations of the paper's Table 4: cache1, the IBM
 * RS/6000 data cache (64KB, 4-way, 128-byte lines), and cache2, the
 * Intel i860 (8KB, 2-way, 32-byte lines). Hit rates can be reported
 * with cold (first-touch) misses excluded, as the paper does.
 */

#ifndef MEMORIA_CACHESIM_CACHE_HH
#define MEMORIA_CACHESIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace memoria {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    int64_t sizeBytes = 64 * 1024;
    int associativity = 4;
    int lineBytes = 128;

    int64_t
    numSets() const
    {
        return sizeBytes / (static_cast<int64_t>(associativity) *
                            lineBytes);
    }

    /** cache1: IBM RS/6000 — 64KB, 4-way, 128-byte lines. */
    static CacheConfig rs6000();

    /** cache2: Intel i860 — 8KB, 2-way, 32-byte lines. */
    static CacheConfig i860();
};

/** Hit/miss counters. Invariant: hits + misses == accesses (asserted
 *  by Cache on every probe; see checkConsistent). */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coldMisses = 0;
    uint64_t evictions = 0;  ///< valid lines displaced by a fill

    /** Hit rate in percent over all accesses. */
    double hitRate() const;

    /** Hit rate in percent with cold misses excluded (Table 4). */
    double hitRateWarm() const;

    /** Panics unless the counters reconcile (hits + misses == accesses,
     *  cold misses and evictions bounded by misses). */
    void checkConsistent() const;
};

/** One scalar memory access, as buffered by the interpreter. */
struct AccessRecord
{
    uint64_t addr = 0;
    uint32_t size = 0;
    bool isWrite = false;
};

/**
 * Interface for components observing the memory reference stream.
 *
 * The interpreter buffers accesses and delivers them in batches
 * through consumeBatch(); the default forwards each record to
 * access(), so a listener that only cares about single accesses
 * implements access() alone. Listeners with a cheaper bulk path
 * (MultiCacheSim) override consumeBatch().
 */
class MemoryListener
{
  public:
    virtual ~MemoryListener() = default;

    /** One scalar access of `size` bytes at virtual address `addr`. */
    virtual void access(uint64_t addr, int size, bool isWrite) = 0;

    /** Consume `n` records, in stream order; called repeatedly over
     *  the stream. */
    virtual void
    consumeBatch(const AccessRecord *rec, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            access(rec[i].addr, static_cast<int>(rec[i].size),
                   rec[i].isWrite);
    }
};

/** A single-level set-associative LRU cache. */
class Cache : public MemoryListener
{
  public:
    explicit Cache(CacheConfig config);

    void access(uint64_t addr, int size, bool isWrite) override;

    /** Probe one address; returns true on hit. Updates LRU state. */
    bool probe(uint64_t addr);

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Empty the cache and zero the statistics. */
    void reset();

    /**
     * Emit every `period`-th access as a `cachesim/access` trace event
     * (0 disables, the default). Events only fire while a trace sink is
     * installed, so sampling can stay configured at zero run cost.
     */
    void setAccessTraceSampling(uint64_t period) { samplePeriod_ = period; }

    /** Add this cache's counters into the process stats registry under
     *  `prefix` (e.g. "cachesim"). */
    void publishStats(const std::string &prefix = "cachesim") const;

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    CacheStats stats_;
    std::vector<Way> ways_;  ///< numSets x associativity, row-major
    std::unordered_set<uint64_t> touchedLines_;
    uint64_t clock_ = 0;
    int lineShift_ = 0;
    uint64_t samplePeriod_ = 0;
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_CACHE_HH
