#include "trace/rng.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace ddc {

namespace {

/** SplitMix64 step, used only to expand the user seed. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state)
        word = splitmix64(sm);
    // xoshiro must not start in the all-zero state.
    if ((state[0] | state[1] | state[2] | state[3]) == 0)
        state[0] = 1;
}

std::uint64_t
Rng::next()
{
    std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    ddc_assert(bound > 0, "nextBelow bound must be positive");
    // Rejection sampling to avoid modulo bias.
    std::uint64_t threshold = (~bound + 1) % bound; // (2^64 - bound) % bound
    for (;;) {
        std::uint64_t value = next();
        if (value >= threshold)
            return value % bound;
    }
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    ddc_assert(lo <= hi, "nextRange requires lo <= hi");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    ddc_assert(!weights.empty(), "nextWeighted needs weights");
    double total = 0.0;
    for (double w : weights) {
        ddc_assert(w >= 0.0, "weights must be non-negative");
        total += w;
    }
    ddc_assert(total > 0.0, "weights must not all be zero");
    double pick = nextDouble() * total;
    double run = 0.0;
    for (std::size_t i = 0; i < weights.size(); i++) {
        run += weights[i];
        if (pick < run)
            return i;
    }
    return weights.size() - 1;
}

std::uint64_t
Rng::nextGeometric(double decay, std::uint64_t bound)
{
    ddc_assert(bound > 0, "nextGeometric bound must be positive");
    ddc_assert(decay > 0.0 && decay < 1.0, "decay must lie in (0, 1)");
    // Inverse transform over a truncated geometric distribution.
    double u = nextDouble();
    double mass = 1.0 - std::pow(decay, static_cast<double>(bound));
    double x = std::log(1.0 - u * mass) / std::log(decay);
    auto k = static_cast<std::uint64_t>(x);
    return k >= bound ? bound - 1 : k;
}

ZipfSampler::ZipfSampler(double s, std::uint64_t n)
{
    ddc_assert(n > 0, "ZipfSampler needs a positive support size");
    ddc_assert(s >= 0.0, "ZipfSampler exponent must be non-negative");
    cdf.resize(static_cast<std::size_t>(n));
    double run = 0.0;
    for (std::uint64_t k = 0; k < n; k++) {
        run += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[static_cast<std::size_t>(k)] = run;
    }
    for (auto &value : cdf)
        value /= run;
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    double u = rng.nextDouble();
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        --it;
    return static_cast<std::uint64_t>(it - cdf.begin());
}

} // namespace ddc
