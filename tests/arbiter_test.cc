/** @file Unit tests for the bus arbitration policies. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/arbiter.hh"

namespace ddc {
namespace {

TEST(RoundRobin, RotatesThroughRequesters)
{
    auto arbiter = makeArbiter(ArbiterKind::RoundRobin);
    ClientMask all{0, 1, 2};
    EXPECT_EQ(arbiter->pick(all), 0);
    EXPECT_EQ(arbiter->pick(all), 1);
    EXPECT_EQ(arbiter->pick(all), 2);
    EXPECT_EQ(arbiter->pick(all), 0);
}

TEST(RoundRobin, SkipsNonRequesters)
{
    auto arbiter = makeArbiter(ArbiterKind::RoundRobin);
    EXPECT_EQ(arbiter->pick({0, 1, 2, 3}), 0);
    EXPECT_EQ(arbiter->pick({2, 3}), 2);
    EXPECT_EQ(arbiter->pick({0, 1}), 0); // wraps past 2
}

TEST(RoundRobin, SingleRequesterAlwaysWins)
{
    auto arbiter = makeArbiter(ArbiterKind::RoundRobin);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(arbiter->pick({3}), 3);
}

TEST(RoundRobin, NoStarvationUnderFullLoad)
{
    auto arbiter = makeArbiter(ArbiterKind::RoundRobin);
    ClientMask all{0, 1, 2, 3, 4};
    std::map<int, int> grants;
    for (int i = 0; i < 100; i++)
        grants[arbiter->pick(all)]++;
    for (int client = 0; client < 5; client++)
        EXPECT_EQ(grants[client], 20);
}

TEST(RoundRobin, WrapsAcrossAWordBoundary)
{
    auto arbiter = makeArbiter(ArbiterKind::RoundRobin);
    ClientMask spread{3, 63, 64, 130};
    EXPECT_EQ(arbiter->pick(spread), 3);
    EXPECT_EQ(arbiter->pick(spread), 63);
    EXPECT_EQ(arbiter->pick(spread), 64); // into the second word
    EXPECT_EQ(arbiter->pick(spread), 130); // into the third
    EXPECT_EQ(arbiter->pick(spread), 3); // wraps to the first
    EXPECT_EQ(arbiter->pick({70, 200}), 70);
    EXPECT_EQ(arbiter->pick({70, 200}), 200);
    // Nothing above 200: wrap to the lowest member, which sits in the
    // second word.
    EXPECT_EQ(arbiter->pick({64, 65}), 64);
}

TEST(FixedPriority, AlwaysPicksLowestIndex)
{
    auto arbiter = makeArbiter(ArbiterKind::FixedPriority);
    EXPECT_EQ(arbiter->pick({2, 5, 7}), 2);
    EXPECT_EQ(arbiter->pick({2, 5, 7}), 2);
    EXPECT_EQ(arbiter->pick({5, 7}), 5);
}

TEST(Random, PicksOnlyRequesters)
{
    auto arbiter = makeArbiter(ArbiterKind::Random, 42);
    ClientMask some{1, 4, 6};
    for (int i = 0; i < 200; i++) {
        int grant = arbiter->pick(some);
        EXPECT_TRUE(grant == 1 || grant == 4 || grant == 6);
    }
}

TEST(Random, DeterministicBySeed)
{
    auto a = makeArbiter(ArbiterKind::Random, 7);
    auto b = makeArbiter(ArbiterKind::Random, 7);
    ClientMask all{0, 1, 2, 3};
    for (int i = 0; i < 50; i++)
        EXPECT_EQ(a->pick(all), b->pick(all));
}

TEST(Random, GrantSequenceMatchesTheListIndexedDraw)
{
    // The grant is the nextBelow(count)-th member in ascending order:
    // the same draw, and so the same grants, as indexing the sorted
    // requester list.  Pinned to that list-indexed sequence for seed
    // 2024, across three mask words.
    auto arbiter = makeArbiter(ArbiterKind::Random, 2024);
    ClientMask requesters{1, 4, 6, 63, 64, 70, 127, 128, 150};
    const std::vector<int> expected{
        64, 63, 6, 70, 127, 64, 127, 128, 128, 128, 128, 63,
        127, 150, 4, 70, 150, 1, 1, 70, 70, 6, 64, 1};
    std::vector<int> grants;
    for (std::size_t i = 0; i < expected.size(); i++)
        grants.push_back(arbiter->pick(requesters));
    EXPECT_EQ(grants, expected);
}

TEST(Random, RoughlyUniform)
{
    auto arbiter = makeArbiter(ArbiterKind::Random, 11);
    ClientMask all{0, 1};
    int zero = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; i++) {
        if (arbiter->pick(all) == 0)
            zero++;
    }
    EXPECT_NEAR(static_cast<double>(zero) / trials, 0.5, 0.03);
}

TEST(ClientMask, MembersAcrossWords)
{
    ClientMask mask;
    mask.resize(130);
    EXPECT_EQ(mask.numWords(), 3u);
    EXPECT_TRUE(mask.empty());
    EXPECT_EQ(mask.first(), -1);
    for (int client : {129, 0, 64, 63})
        mask.set(client);
    EXPECT_EQ(mask.count(), 4u);
    EXPECT_TRUE(mask.test(64));
    EXPECT_FALSE(mask.test(65));
    EXPECT_EQ(mask.first(), 0);
    EXPECT_EQ(mask.nextAfter(0), 63);
    EXPECT_EQ(mask.nextAfter(63), 64);
    EXPECT_EQ(mask.nextAfter(64), 129);
    EXPECT_EQ(mask.nextAfter(129), -1);
    EXPECT_EQ(mask.nth(0), 0);
    EXPECT_EQ(mask.nth(2), 64);
    EXPECT_EQ(mask.nth(3), 129);
    mask.reset(0);
    EXPECT_EQ(mask.first(), 63);
    mask.clear();
    EXPECT_TRUE(mask.empty());
    EXPECT_EQ(mask.numWords(), 3u);
}

TEST(ArbiterNames, AllPrintable)
{
    EXPECT_EQ(toString(ArbiterKind::RoundRobin), "RoundRobin");
    EXPECT_EQ(toString(ArbiterKind::FixedPriority), "FixedPriority");
    EXPECT_EQ(toString(ArbiterKind::Random), "Random");
}

} // namespace
} // namespace ddc
