/**
 * @file
 * Memory governor for `memoria serve`: RSS watermarks that trade
 * optimization strength for staying alive.
 *
 * Unbounded memory growth in a long-lived worker ends one way: the
 * kernel OOM-killer takes the process mid-request and the supervisor
 * counts a crash. The governor samples the process's own resident set
 * (support/procstat.hh) on a dedicated thread and applies two
 * watermarks, in the same spirit as the load breaker — degrade
 * deliberately before failing accidentally:
 *
 *  - **soft**: shed memory and cost — the result cache is squeezed to
 *    half its current footprint and the degradation ladder is forced
 *    to start at a cheaper rung (responses carry
 *    `"degraded_by_memory":true`); released once RSS falls back under
 *    ~90% of the watermark. Note RSS is what the allocator returned
 *    to the kernel, not live bytes — on allocators that hoard, soft
 *    pressure can be sticky even after the cache shrank; the rung
 *    floor (cheaper work, smaller peaks) is what actually arrests
 *    growth then.
 *  - **hard**: this process should not continue — `hardPressure()`
 *    latches, the worker's health heartbeat reports it, and the
 *    supervisor answers with a graceful recycle (drain, snapshot,
 *    exit 0, warm respawn) instead of waiting for the OOM-killer's
 *    SIGKILL.
 *
 * Every watermark crossing is an obs event with provenance
 * (`serve.governor` trace events carrying rss/watermark/action), the
 * way Compound's nest decisions are traced.
 */

#ifndef MEMORIA_SERVE_GOVERNOR_HH
#define MEMORIA_SERVE_GOVERNOR_HH

#include <atomic>
#include <cstdint>

#include "harness/ladder.hh"

namespace memoria {
namespace serve {

class ResultCache;

/** Sampling cadence of the governor thread. */
inline constexpr int64_t kGovernorSampleMs = 200;

/** Rung floor applied under soft pressure. */
inline constexpr harness::Rung kSoftPressureRung =
    harness::Rung::PermuteOnly;

struct GovernorOptions
{
    /** Soft watermark in bytes (0 = disabled). */
    uint64_t softBytes = 0;

    /** Hard watermark in bytes (0 = disabled). */
    uint64_t hardBytes = 0;
};

/**
 * Owns no thread itself — the Executor runs `sample()` on its governor
 * thread every kGovernorSampleMs; all accessors are lock-free reads so
 * the request path can consult the floor per-request.
 */
class MemoryGovernor
{
  public:
    MemoryGovernor(GovernorOptions opts, ResultCache *cache);

    /** True when either watermark is configured. */
    bool enabled() const
    {
        return opts_.softBytes > 0 || opts_.hardBytes > 0;
    }

    /** One sampling step: read RSS, cross/release watermarks. */
    void sample();

    /** Test hook: evaluate against an injected RSS reading. */
    void evaluate(uint64_t rssBytes);

    uint64_t rssBytes() const { return rss_.load(); }
    bool softPressure() const { return soft_.load(); }
    /** Latched: once hard pressure is seen the worker should be
     *  recycled; there is no release. */
    bool hardPressure() const { return hard_.load(); }

    /**
     * The ladder start-rung floor the request path must apply:
     * FullCompound (no constraint) normally, kSoftPressureRung under
     * soft pressure.
     */
    harness::Rung rungFloor() const
    {
        return soft_.load() ? kSoftPressureRung
                            : harness::Rung::FullCompound;
    }

    uint64_t softTrips() const { return softTrips_.load(); }
    uint64_t hardTrips() const { return hardTrips_.load(); }

    const GovernorOptions &options() const { return opts_; }

  private:
    GovernorOptions opts_;
    ResultCache *cache_;

    /** The bounds the soft trip squeezed the cache to. shrinkTo() is
     *  one-shot — the cache regrows to its configured limits — so
     *  while soft pressure stays latched every sample re-applies this
     *  clamp; cleared (0) on release. Touched only by evaluate(), i.e.
     *  the governor thread. */
    size_t squeezeEntries_ = 0;
    size_t squeezeBytes_ = 0;

    std::atomic<uint64_t> rss_{0};
    std::atomic<bool> soft_{false};
    std::atomic<bool> hard_{false};
    std::atomic<uint64_t> softTrips_{0};
    std::atomic<uint64_t> hardTrips_{0};
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_GOVERNOR_HH
