#include "cachesim/sweep.hh"

#include "support/stats.hh"

namespace memoria {

MultiCacheSim::MultiCacheSim(const std::vector<CacheConfig> &configs,
                             SweepReuseOptions reuse)
{
    caches_.reserve(configs.size());
    for (const CacheConfig &c : configs)
        caches_.emplace_back(c);
    if (reuse.enabled)
        reuse_ = std::make_unique<ReuseDistanceAnalyzer>(reuse.lineBytes);
}

void
MultiCacheSim::consumeBatch(const AccessRecord *rec, size_t n)
{
    // Config-major over the batch: each cache's set array stays hot
    // while it walks the records, instead of being reloaded per access.
    for (Cache &c : caches_)
        for (size_t i = 0; i < n; ++i)
            c.probe(rec[i].addr);
    if (reuse_)
        for (size_t i = 0; i < n; ++i)
            reuse_->access(rec[i].addr, static_cast<int>(rec[i].size),
                           rec[i].isWrite);
    static obs::Counter &cBatches = obs::counter("cachesim.sweep.batches");
    ++cBatches;
}

} // namespace memoria
