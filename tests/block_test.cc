/**
 * @file
 * Tests of the multi-word-block extension (the assumption-7 ablation
 * machinery): block mapping, block fills and snarfs, write-allocate
 * fill phases, block write-backs and supplies, block-granular false
 * sharing, bus occupancy of block transfers, and consistency under
 * every protocol with multi-word blocks.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "sim/scenario.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

TEST(Block, ReadFillsWholeBlock)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, /*block_words=*/4);
    // Pre-set memory via another PE's writes in a different block so
    // the block 8..11 holds known values.
    scenario.write(1, 8, 10);
    scenario.write(1, 9, 11);
    scenario.write(1, 10, 12); // PE1 ends Local on block 8..11

    // PE0 reads word 9: the supply + fill moves the whole block.
    EXPECT_EQ(scenario.read(0, 9), 11u);
    EXPECT_EQ(scenario.value(0, 8), 10u);
    EXPECT_EQ(scenario.value(0, 10), 12u);
    // Words of one block share the line state.
    EXPECT_EQ(scenario.state(0, 8).tag, LineTag::Readable);
    EXPECT_EQ(scenario.state(0, 11).tag, LineTag::Readable);
}

TEST(Block, WriteMissFillsThenWritesThrough)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, 4);
    scenario.write(0, 4, 1); // fill block 4..7, then write through
    EXPECT_EQ(scenario.counters().get("cache.fill"), 1u);
    EXPECT_EQ(scenario.state(0, 4).tag, LineTag::Local);
    EXPECT_EQ(scenario.value(0, 4), 1u);
    EXPECT_EQ(scenario.value(0, 5), 0u); // rest of block present
    EXPECT_EQ(scenario.memoryValue(4), 1u);
}

TEST(Block, LocalWritesToOtherWordsOfOwnedBlockAreSilent)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, 4);
    scenario.write(0, 4, 1);
    auto busy = scenario.busTransactions();
    scenario.write(0, 5, 2); // same block, already Local
    scenario.write(0, 6, 3);
    EXPECT_EQ(scenario.busTransactions(), busy);
    EXPECT_EQ(scenario.value(0, 5), 2u);
}

TEST(Block, DirtyBlockWriteBackOnEviction)
{
    // 2 lines x 4-word blocks: blocks 0..7 and 8..15 map to lines 0/1;
    // block 16..19 collides with block 0..3.
    Scenario scenario(ProtocolKind::Rb, 1, 2, 2, 4);
    scenario.write(0, 0, 1);
    scenario.write(0, 1, 2); // dirty Local block 0..3
    EXPECT_EQ(scenario.memoryValue(1), 0u); // not yet written back

    scenario.read(0, 16); // evicts block 0..3
    EXPECT_EQ(scenario.memoryValue(0), 1u);
    EXPECT_EQ(scenario.memoryValue(1), 2u);
    EXPECT_EQ(scenario.counters().get("cache.writeback"), 1u);
}

TEST(Block, OwnerSuppliesWholeBlock)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, 4);
    scenario.write(0, 8, 5);
    scenario.write(0, 9, 6); // dirty Local block 8..11 (memory stale at 9)
    EXPECT_EQ(scenario.memoryValue(9), 0u);

    EXPECT_EQ(scenario.read(1, 9), 6u); // killed + block supply
    EXPECT_EQ(scenario.memoryValue(8), 5u);
    EXPECT_EQ(scenario.memoryValue(9), 6u);
    EXPECT_EQ(scenario.state(0, 9).tag, LineTag::Readable);
}

TEST(Block, FalseSharingInvalidatesWholeBlockUnderRb)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, 4);
    // PE0 and PE1 use different words of the same block.
    scenario.write(0, 0, 1);
    EXPECT_EQ(scenario.state(0, 0).tag, LineTag::Local);

    scenario.write(1, 1, 2); // different word, same block
    // PE0's whole block is invalidated although word 0 was untouched.
    EXPECT_EQ(scenario.state(0, 0).tag, LineTag::Invalid);
    EXPECT_EQ(scenario.state(1, 1).tag, LineTag::Local);
}

TEST(Block, NoFalseSharingWithOneWordBlocks)
{
    Scenario scenario(ProtocolKind::Rb, 2, 8, 2, 1);
    scenario.write(0, 0, 1);
    scenario.write(1, 1, 2);
    EXPECT_EQ(scenario.state(0, 0).tag, LineTag::Local);
    EXPECT_EQ(scenario.state(1, 1).tag, LineTag::Local);
}

TEST(Block, RwbWordSnarfUpdatesOneWordOfBlock)
{
    // k = 3 so PE0's second write to the block still broadcasts data
    // (with the paper's k = 2 it would confirm block-local usage and
    // send BI instead -- the write streak is block-granular).
    Scenario scenario(ProtocolKind::Rwb, 2, 8, /*k=*/3, 4);
    scenario.write(0, 0, 1);
    scenario.read(1, 0);      // PE1 holds the block
    scenario.read(1, 1);
    scenario.write(0, 1, 9);  // word write broadcast
    EXPECT_EQ(scenario.value(1, 1), 9u); // updated word
    EXPECT_EQ(scenario.value(1, 0), 1u); // other words intact
    EXPECT_EQ(scenario.state(1, 1).tag, LineTag::Readable);
}

TEST(Block, RwbSecondWriteToBlockConfirmsBlockLocal)
{
    Scenario scenario(ProtocolKind::Rwb, 2, 8, 2, 4);
    scenario.write(0, 0, 1);
    scenario.read(1, 0);
    scenario.write(0, 1, 9); // streak 2 on the block -> BI -> Local
    EXPECT_EQ(scenario.state(0, 0).tag, LineTag::Local);
    EXPECT_EQ(scenario.state(1, 0).tag, LineTag::Invalid);
}

TEST(Block, BlockTransferOccupiesBusLonger)
{
    auto trace = makeSequentialWalkTrace(1, 64, 1);
    for (std::size_t block : {1u, 4u}) {
        SystemConfig config;
        config.num_pes = 1;
        config.cache_lines = 64;
        config.block_words = block;
        config.protocol = ProtocolKind::Rb;
        System system(config);
        system.loadTrace(trace);
        system.run();
        auto counters = system.counters();
        // 64-word sweep: B=1 does 64 one-cycle reads; B=4 does 16
        // four-cycle block reads -- same total bus occupancy, fewer
        // misses.
        if (block == 1) {
            EXPECT_EQ(counters.get("bus.read"), 64u);
            EXPECT_EQ(counters.get("bus.transfer_cycles"), 0u);
        } else {
            EXPECT_EQ(counters.get("bus.read"), 16u);
            EXPECT_EQ(counters.get("bus.transfer_cycles"), 48u);
        }
    }
}

TEST(Block, SequentialWalkMissRatioFallsWithBlockSize)
{
    auto trace = makeSequentialWalkTrace(2, 256, 2, 7);
    double previous = 2.0;
    for (std::size_t block : {1u, 2u, 4u, 8u}) {
        SystemConfig config;
        config.num_pes = 2;
        config.cache_lines = 512 / block; // constant capacity in words
        config.block_words = block;
        config.protocol = ProtocolKind::Rb;
        auto result = exp::executeTraceRun({.config = config, .trace = trace});
        ASSERT_EQ(result.status, RunStatus::Finished);
        EXPECT_LT(result.metric("miss_ratio"), previous) << "B=" << block;
        previous = result.metric("miss_ratio");
    }
}

TEST(Block, FalseSharingTrafficGrowsWithBlockSize)
{
    auto trace = makeFalseSharingTrace(4, 64);
    std::uint64_t small_traffic = 0;
    for (std::size_t block : {1u, 4u}) {
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 64;
        config.block_words = block;
        config.protocol = ProtocolKind::Rb;
        auto result = exp::executeTraceRun(
            {.config = config, .trace = trace, .check_consistency = true});
        ASSERT_EQ(result.status, RunStatus::Finished);
        ASSERT_TRUE(result.consistent);
        if (block == 1) {
            small_traffic = result.bus_transactions;
        } else {
            EXPECT_GT(result.bus_transactions, 2 * small_traffic);
        }
    }
}

class BlockConsistency
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>>
{
};

TEST_P(BlockConsistency, RandomTracesStayConsistent)
{
    auto [kind, block] = GetParam();
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 16;
    config.block_words = static_cast<std::size_t>(block);
    config.protocol = kind;

    auto trace = makeUniformRandomTrace(4, 600, 48, 0.35, 0.1, 321);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockConsistency,
    ::testing::Combine(::testing::Values(ProtocolKind::Rb,
                                         ProtocolKind::Rwb,
                                         ProtocolKind::WriteOnce,
                                         ProtocolKind::WriteThrough,
                                         ProtocolKind::CmStar),
                       ::testing::Values(2, 4, 8)),
    [](const auto &info) {
        return std::string(toString(std::get<0>(info.param))) + "_B" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Block, LockExperimentsWorkWithBlocks)
{
    // TS/TTS correctness must not depend on the block size, even with
    // the lock and counter words falsely shared in one block.
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 64;
    config.block_words = 4;
    config.protocol = ProtocolKind::Rb;
    config.record_log = true;

    auto trace = makeHotSpotTrace(4, 8, 4);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

} // namespace
} // namespace ddc
