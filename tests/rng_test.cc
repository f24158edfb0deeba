/** @file Unit tests for the deterministic RNG and samplers. */

#include <gtest/gtest.h>

#include <map>

#include "trace/rng.hh"

namespace ddc {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; i++) {
        if (a.next() == b.next())
            equal++;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        auto value = rng.nextRange(5, 8);
        EXPECT_GE(value, 5u);
        EXPECT_LE(value, 8u);
        saw_lo = saw_lo || value == 5;
        saw_hi = saw_hi || value == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; i++) {
        double value = rng.nextDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 32; i++) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; i++) {
        if (rng.chance(0.25))
            hits++;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(9);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(rng.nextWeighted(weights), 1u);
}

TEST(Rng, WeightedRoughlyProportional)
{
    Rng rng(17);
    std::vector<double> weights{1.0, 3.0};
    int counts[2] = {0, 0};
    const int trials = 20000;
    for (int i = 0; i < trials; i++)
        counts[rng.nextWeighted(weights)]++;
    EXPECT_NEAR(static_cast<double>(counts[1]) / trials, 0.75, 0.02);
}

TEST(Rng, GeometricBounded)
{
    Rng rng(23);
    for (int i = 0; i < 2000; i++)
        EXPECT_LT(rng.nextGeometric(0.5, 10), 10u);
}

TEST(Rng, GeometricFavorsSmallValues)
{
    Rng rng(29);
    int small = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; i++) {
        if (rng.nextGeometric(0.5, 32) == 0)
            small++;
    }
    // P(0) for decay 0.5 truncated at 32 is ~0.5.
    EXPECT_NEAR(static_cast<double>(small) / trials, 0.5, 0.03);
}

TEST(ZipfSampler, UniformWhenExponentZero)
{
    Rng rng(31);
    ZipfSampler zipf(0.0, 4);
    std::map<std::uint64_t, int> counts;
    const int trials = 40000;
    for (int i = 0; i < trials; i++)
        counts[zipf.sample(rng)]++;
    for (auto &[value, count] : counts) {
        EXPECT_LT(value, 4u);
        EXPECT_NEAR(static_cast<double>(count) / trials, 0.25, 0.02);
    }
}

TEST(ZipfSampler, SkewsTowardsHead)
{
    Rng rng(37);
    ZipfSampler zipf(1.2, 1000);
    int head = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; i++) {
        if (zipf.sample(rng) < 10)
            head++;
    }
    // With s = 1.2 the top 10 of 1000 items draw most of the mass.
    EXPECT_GT(head, trials / 2);
}

TEST(ZipfSampler, SamplesWithinSupport)
{
    Rng rng(41);
    ZipfSampler zipf(0.8, 7);
    for (int i = 0; i < 2000; i++)
        EXPECT_LT(zipf.sample(rng), 7u);
}

} // namespace
} // namespace ddc
