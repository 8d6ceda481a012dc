/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic corpus and the property tests must be reproducible across
 * runs and platforms, so we carry our own tiny PRNG (splitmix64) instead
 * of relying on implementation-defined std::rand or distribution details.
 */

#ifndef MEMORIA_SUPPORT_RNG_HH
#define MEMORIA_SUPPORT_RNG_HH

#include <cstdint>

namespace memoria {

/** Splitmix64's state increment (the 64-bit golden ratio). */
constexpr uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/**
 * Splitmix64's output for state `x`: one increment, then a bijective
 * mix. Rng streams it; the fault campaign and shard placement use it
 * as a one-shot hash finalizer.
 */
inline uint64_t
splitmix64(uint64_t x)
{
    x += kSplitmixGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Splitmix64: tiny, fast, deterministic PRNG with full 64-bit state. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t z = splitmix64(state_);
        state_ += kSplitmixGamma;
        return z;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability num/den. */
    bool
    chance(uint64_t num, uint64_t den)
    {
        return below(den) < num;
    }

  private:
    uint64_t state_;
};

} // namespace memoria

#endif // MEMORIA_SUPPORT_RNG_HH
