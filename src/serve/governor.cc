#include "serve/governor.hh"

#include "serve/cache.hh"
#include "support/procstat.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

MemoryGovernor::MemoryGovernor(GovernorOptions opts, ResultCache *cache)
    : opts_(opts), cache_(cache)
{
}

void
MemoryGovernor::sample()
{
    const uint64_t rss = procstat::rssBytes();
    if (rss == 0)
        return;  // /proc unavailable: fail open, never degrade blind
    evaluate(rss);
}

void
MemoryGovernor::evaluate(uint64_t rssBytes)
{
    rss_.store(rssBytes);
    obs::gauge("serve.governor.rss_bytes")
        .set(static_cast<double>(rssBytes));

    if (opts_.softBytes > 0) {
        const bool wasSoft = soft_.load();
        if (!wasSoft && rssBytes >= opts_.softBytes) {
            soft_.store(true);
            ++softTrips_;
            ++obs::counter("serve.governor.soft_trips");
            size_t evicted = 0;
            if (cache_) {
                // Squeeze the cache to half its *current* footprint:
                // repeated trips keep halving, one trip does not wipe
                // the warm set the next recycle wants to snapshot.
                ResultCacheStats s = cache_->stats();
                squeezeEntries_ = s.entries > 1 ? s.entries / 2 : 1;
                squeezeBytes_ = s.bytes > 1 ? s.bytes / 2 : 1;
                evicted =
                    cache_->shrinkTo(squeezeEntries_, squeezeBytes_);
            }
            obs::traceEvent(
                "serve.governor", "soft-pressure",
                {{"rss_bytes", static_cast<int64_t>(rssBytes)},
                 {"watermark_bytes",
                  static_cast<int64_t>(opts_.softBytes)},
                 {"cache_evicted", static_cast<int64_t>(evicted)},
                 {"rung_floor",
                  harness::rungName(kSoftPressureRung)}});
        } else if (wasSoft &&
                   rssBytes < opts_.softBytes -
                                  opts_.softBytes / 10) {
            // Hysteresis: release a tenth below the watermark so RSS
            // hovering at the line doesn't flap the rung floor.
            soft_.store(false);
            squeezeEntries_ = 0;
            squeezeBytes_ = 0;
            obs::traceEvent(
                "serve.governor", "soft-release",
                {{"rss_bytes", static_cast<int64_t>(rssBytes)},
                 {"watermark_bytes",
                  static_cast<int64_t>(opts_.softBytes)}});
        } else if (wasSoft && cache_ && squeezeEntries_ > 0) {
            // Soft pressure persists: the trip-time shrink was
            // one-shot, so without this the cache regrows to its
            // configured bounds while RSS is still pinned above the
            // watermark. Hold it at the squeezed bounds until release
            // (a no-op sample when it hasn't regrown).
            const size_t evicted =
                cache_->shrinkTo(squeezeEntries_, squeezeBytes_);
            if (evicted > 0)
                obs::counter("serve.governor.squeeze_evictions") +=
                    evicted;
        }
    }

    if (opts_.hardBytes > 0 && !hard_.load() &&
        rssBytes >= opts_.hardBytes) {
        hard_.store(true);
        ++hardTrips_;
        ++obs::counter("serve.governor.hard_trips");
        obs::traceEvent(
            "serve.governor", "hard-pressure",
            {{"rss_bytes", static_cast<int64_t>(rssBytes)},
             {"watermark_bytes",
              static_cast<int64_t>(opts_.hardBytes)},
             {"action", "recycle-wanted"}});
    }
    obs::gauge("serve.governor.soft_pressure")
        .set(soft_.load() ? 1.0 : 0.0);
    obs::gauge("serve.governor.hard_pressure")
        .set(hard_.load() ? 1.0 : 0.0);
}

} // namespace serve
} // namespace memoria
