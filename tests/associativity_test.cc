/**
 * @file
 * Tests of set-associative caches (the "set size 1" half of
 * assumption 7 made configurable): mapping, LRU replacement, conflict
 * elimination, duplicate-tag prevention, and consistency under every
 * protocol with associativity.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "sim/scenario.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

/** A one-PE system for victim/replacement observation. */
std::unique_ptr<System>
makeSystem(std::size_t lines, std::size_t ways,
           ProtocolKind protocol = ProtocolKind::Rb)
{
    SystemConfig config;
    config.num_pes = 1;
    config.cache_lines = lines;
    config.ways = ways;
    config.protocol = protocol;
    return std::make_unique<System>(config);
}

void
runRefs(System &system, const std::vector<MemRef> &refs)
{
    Trace trace(1);
    for (const auto &ref : refs)
        trace.append(0, ref);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());
}

MemRef
read(Addr addr)
{
    return {CpuOp::Read, addr, 0, DataClass::Shared};
}

MemRef
write(Addr addr, Word data)
{
    return {CpuOp::Write, addr, data, DataClass::Shared};
}

TEST(Associativity, TwoWaySurvivesPingPongConflict)
{
    // 4 lines, 2 ways -> 2 sets.  Addresses 0 and 2 map to set 0; in
    // a direct-mapped cache (2 lines) they'd evict each other.
    auto system = makeSystem(4, 2);
    std::vector<MemRef> refs;
    for (int i = 0; i < 10; i++) {
        refs.push_back(read(0));
        refs.push_back(read(2));
    }
    runRefs(*system, refs);
    // Two cold misses, all the rest hit.
    EXPECT_EQ(system->counters().get("bus.read"), 2u);
    EXPECT_EQ(system->lineState(0, 0).tag, LineTag::Readable);
    EXPECT_EQ(system->lineState(0, 2).tag, LineTag::Readable);
}

TEST(Associativity, DirectMappedThrashesOnTheSamePattern)
{
    auto system = makeSystem(2, 1);
    std::vector<MemRef> refs;
    for (int i = 0; i < 10; i++) {
        refs.push_back(read(0));
        refs.push_back(read(2));
    }
    runRefs(*system, refs);
    EXPECT_EQ(system->counters().get("bus.read"), 20u); // all miss
}

TEST(Associativity, LruEvictsTheColdestWay)
{
    // One set of two ways; three conflicting addresses 0, 2, 4.
    auto system = makeSystem(2, 2);
    runRefs(*system, {read(0), read(2), read(0), read(4)});
    // LRU of {0, 2} at the fill of 4 is 2.
    EXPECT_EQ(system->lineState(0, 0).tag, LineTag::Readable);
    EXPECT_EQ(system->lineState(0, 2).tag, LineTag::NotPresent);
    EXPECT_EQ(system->lineState(0, 4).tag, LineTag::Readable);
}

TEST(Associativity, DirtyVictimInOneWayWrittenBack)
{
    auto system = makeSystem(2, 2);
    runRefs(*system, {
        write(0, 1), write(0, 2), // way A: dirty Local
        read(2),                  // way B
        read(2),                  // make way A the LRU victim
        read(4),                  // evicts 0: write-back expected
    });
    EXPECT_EQ(system->memoryValue(0), 2u);
    EXPECT_EQ(system->counters().get("cache.writeback"), 1u);
}

TEST(Associativity, NoDuplicateTagsAfterInvalidationRefill)
{
    // An Invalid line keeps its tag; a refill must reuse that way,
    // not allocate the address into a second way of the set.
    SystemConfig config;
    config.num_pes = 2;
    config.cache_lines = 4;
    config.ways = 2;
    config.protocol = ProtocolKind::Rb;

    System system(config);
    Trace trace(2);
    trace.append(0, read(0));
    trace.append(1, write(0, 9)); // invalidates PE0's copy
    for (int i = 0; i < 8; i++)
        trace.append(0, read(0)); // refill
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.cacheValue(0, 0), 9u);
    EXPECT_EQ(system.lineState(0, 0).tag, LineTag::Readable);
}

TEST(Associativity, FullyAssociativeNeverConflicts)
{
    auto system = makeSystem(8, 8); // one set
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 4; pass++) {
        for (Addr a = 0; a < 8; a++)
            refs.push_back(read(a * 16 + 1)); // wild strides
    }
    runRefs(*system, refs);
    EXPECT_EQ(system->counters().get("bus.read"), 8u); // cold only
}

TEST(Associativity, InvalidConfigRejected)
{
    EXPECT_DEATH(makeSystem(4, 3), "associativity");
}

class AssociativityConsistency
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>>
{
};

TEST_P(AssociativityConsistency, RandomTracesStayConsistent)
{
    auto [kind, ways] = GetParam();
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 16;
    config.ways = static_cast<std::size_t>(ways);
    config.protocol = kind;

    auto trace = makeUniformRandomTrace(4, 600, 48, 0.35, 0.1, 654);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssociativityConsistency,
    ::testing::Combine(::testing::Values(ProtocolKind::Rb,
                                         ProtocolKind::Rwb,
                                         ProtocolKind::WriteOnce,
                                         ProtocolKind::WriteThrough),
                       ::testing::Values(2, 4, 16)),
    [](const auto &info) {
        return std::string(toString(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });

TEST(Associativity, ComposesWithMultiWordBlocks)
{
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 16;
    config.ways = 4;
    config.block_words = 4;
    config.protocol = ProtocolKind::Rb;

    auto trace = makeUniformRandomTrace(4, 500, 48, 0.35, 0.1, 655);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

TEST(Associativity, ScenarioRigStillDirectMapped)
{
    Scenario scenario(ProtocolKind::Rb, 2, 4);
    scenario.write(0, 1, 5);
    scenario.read(1, 5); // conflicts with 1 (mod 4)
    EXPECT_EQ(scenario.value(0, 1), 5u);
}

} // namespace
} // namespace ddc
