/**
 * @file
 * Single-sweep multi-configuration cache simulation.
 *
 * The paper's Table 4 evaluates every program against two cache
 * geometries; the batch driver and the compile service re-simulate the
 * same access stream per configuration. Producing the stream costs
 * about twice as much per access as probing one cache
 * (docs/PERFORMANCE.md gives the measured split), so this layer
 * consumes the reference stream **once** and feeds N set-associative
 * caches in lockstep, plus an optional reuse-distance analyzer that
 * answers hit rates for *all* fully-associative capacities from the
 * same pass (cachesim/reuse.hh; cf. Fauzia et al., "Beyond Reuse
 * Distance Analysis").
 *
 * Accesses arrive in batches (MemoryListener::consumeBatch) rather
 * than one virtual call per reference: the interpreter fills a fixed
 * buffer and flushes it in chunks, so the per-access cost inside the
 * simulator is a plain array walk. Each per-config cache is the
 * ordinary `Cache` (recency-ordered sets and a touched-line bitmap;
 * cachesim/cache.hh), the same code path as a standalone run, which
 * is what makes the sweep's counters bitwise-identical to independent
 * per-config simulations (asserted in tests/test_cachesim.cc, against
 * the reference evaluator feeding a plain Cache).
 */

#ifndef MEMORIA_CACHESIM_SWEEP_HH
#define MEMORIA_CACHESIM_SWEEP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/reuse.hh"

namespace memoria {

/** Optional reuse-distance mode for a MultiCacheSim sweep. */
struct SweepReuseOptions
{
    bool enabled = false;
    int lineBytes = 32;
};

/**
 * N set-associative caches advanced in lockstep over one access
 * stream, with an optional reuse-distance histogram sharing the pass.
 */
class MultiCacheSim final : public MemoryListener
{
  public:
    explicit MultiCacheSim(const std::vector<CacheConfig> &configs,
                           SweepReuseOptions reuse = {});

    void
    access(uint64_t addr, int size, bool isWrite) override
    {
        AccessRecord rec{addr, static_cast<uint32_t>(size), isWrite};
        consumeBatch(&rec, 1);
    }

    void consumeBatch(const AccessRecord *rec, size_t n) override;

    size_t configCount() const { return caches_.size(); }
    const Cache &cache(size_t i) const { return caches_[i]; }
    const CacheStats &stats(size_t i) const
    {
        return caches_[i].stats();
    }

    /** Null unless reuse mode was enabled. */
    const ReuseDistanceAnalyzer *reuse() const { return reuse_.get(); }

  private:
    std::vector<Cache> caches_;
    std::unique_ptr<ReuseDistanceAnalyzer> reuse_;
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_SWEEP_HH
