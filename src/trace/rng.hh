/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in ddcache flows through Rng so that a given
 * configuration + seed reproduces bit-identical statistics on any
 * platform.  The generator is xoshiro256** seeded via SplitMix64.
 */

#ifndef DDC_TRACE_RNG_HH
#define DDC_TRACE_RNG_HH

#include <cstdint>
#include <vector>

namespace ddc {

/**
 * A small, fast, seedable PRNG (xoshiro256**).
 *
 * Not cryptographic; plenty for workload synthesis.
 */
class Rng
{
  public:
    /** Seed deterministically from a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) ; @p bound must be positive. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p);

    /**
     * Sample an index from a discrete distribution given by
     * non-negative @p weights (need not be normalized).
     */
    std::size_t nextWeighted(const std::vector<double> &weights);

    /**
     * Sample from a bounded geometric-like distribution over
     * [0, bound): P(k) proportional to decay^k.  Used to model
     * LRU-stack-distance locality in synthetic address streams.
     */
    std::uint64_t nextGeometric(double decay, std::uint64_t bound);

  private:
    std::uint64_t state[4];
};

/**
 * Zipf(s) sampler over [0, n) with a precomputed inverse CDF.
 *
 * Valid for any exponent s >= 0 (s == 0 degenerates to uniform);
 * sampling is O(log n) via binary search.
 */
class ZipfSampler
{
  public:
    /**
     * @param s Zipf exponent (>= 0).
     * @param n Support size (> 0); index 0 is the most popular item.
     */
    ZipfSampler(double s, std::uint64_t n);

    /** Draw one sample using @p rng. */
    std::uint64_t sample(Rng &rng) const;

    /** Support size. */
    std::uint64_t size() const { return cdf.size(); }

  private:
    std::vector<double> cdf;
};

} // namespace ddc

#endif // DDC_TRACE_RNG_HH
