/** @file Unit tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include "trace/synthetic.hh"

namespace ddc {
namespace {

TEST(Regions, AreDisjointPerPe)
{
    EXPECT_NE(codeBase(0), codeBase(1));
    EXPECT_NE(localBase(0), localBase(1));
    EXPECT_LT(codeBase(0), localBase(0));
    EXPECT_GT(sharedBase(), localBase(63));
}

TEST(CmStarTrace, Deterministic)
{
    auto params = cmStarApplicationA();
    auto a = makeCmStarTrace(params, 2, 500, 99);
    auto b = makeCmStarTrace(params, 2, 500, 99);
    EXPECT_EQ(a, b);
}

TEST(CmStarTrace, DifferentSeedsDiffer)
{
    auto params = cmStarApplicationA();
    auto a = makeCmStarTrace(params, 2, 500, 1);
    auto b = makeCmStarTrace(params, 2, 500, 2);
    EXPECT_NE(a, b);
}

TEST(CmStarTrace, MixRoughlyMatchesParams)
{
    auto params = cmStarApplicationB(); // 6.7% local writes, 10% shared
    const std::size_t refs = 20000;
    auto trace = makeCmStarTrace(params, 1, refs, 7);

    std::size_t local_writes = 0;
    std::size_t shared = 0;
    for (const auto &ref : trace.stream(0)) {
        if (ref.op == CpuOp::Write && ref.cls == DataClass::Local)
            local_writes++;
        if (ref.cls == DataClass::Shared)
            shared++;
    }
    EXPECT_NEAR(static_cast<double>(local_writes) / refs, 0.067, 0.01);
    EXPECT_NEAR(static_cast<double>(shared) / refs, 0.10, 0.01);
}

TEST(CmStarTrace, AddressesStayInTheRightRegions)
{
    auto params = cmStarApplicationA();
    auto trace = makeCmStarTrace(params, 2, 2000, 5);
    for (PeId pe = 0; pe < 2; pe++) {
        for (const auto &ref : trace.stream(pe)) {
            switch (ref.cls) {
              case DataClass::Code:
                EXPECT_GE(ref.addr, codeBase(pe));
                EXPECT_LT(ref.addr, codeBase(pe) + params.code_footprint);
                break;
              case DataClass::Local:
                EXPECT_GE(ref.addr, localBase(pe));
                EXPECT_LT(ref.addr, localBase(pe) + params.local_footprint);
                break;
              case DataClass::Shared:
                EXPECT_GE(ref.addr, sharedBase());
                EXPECT_LT(ref.addr,
                          sharedBase() + params.shared_footprint);
                break;
            }
        }
    }
}

TEST(CmStarTrace, CodeReferencesAreReadOnly)
{
    auto trace = makeCmStarTrace(cmStarApplicationA(), 2, 5000, 3);
    for (PeId pe = 0; pe < 2; pe++) {
        for (const auto &ref : trace.stream(pe)) {
            if (ref.cls == DataClass::Code) {
                EXPECT_EQ(ref.op, CpuOp::Read);
            }
        }
    }
}

TEST(UniformRandomTrace, OpMixRespected)
{
    const std::size_t refs = 20000;
    auto trace = makeUniformRandomTrace(1, refs, 16, 0.3, 0.1, 11);
    std::size_t writes = 0;
    std::size_t ts = 0;
    for (const auto &ref : trace.stream(0)) {
        writes += ref.op == CpuOp::Write;
        ts += ref.op == CpuOp::TestAndSet;
        EXPECT_GE(ref.addr, sharedBase());
        EXPECT_LT(ref.addr, sharedBase() + 16);
    }
    EXPECT_NEAR(static_cast<double>(writes) / refs, 0.3, 0.02);
    EXPECT_NEAR(static_cast<double>(ts) / refs, 0.1, 0.02);
}

TEST(ArrayInitTrace, EachElementWrittenOnceDisjoint)
{
    auto trace = makeArrayInitTrace(3, 10);
    EXPECT_EQ(trace.totalRefs(), 30u);
    for (PeId pe = 0; pe < 3; pe++) {
        Addr expected = sharedBase() + static_cast<Addr>(pe) * 10;
        for (const auto &ref : trace.stream(pe)) {
            EXPECT_EQ(ref.op, CpuOp::Write);
            EXPECT_EQ(ref.addr, expected);
            expected++;
        }
    }
}

TEST(ProducerConsumerTrace, ProducerWritesConsumersRead)
{
    auto trace = makeProducerConsumerTrace(3, 4, 2, 1);
    for (const auto &ref : trace.stream(0))
        EXPECT_EQ(ref.op, CpuOp::Write);
    for (PeId pe = 1; pe < 3; pe++) {
        for (const auto &ref : trace.stream(pe))
            EXPECT_EQ(ref.op, CpuOp::Read);
    }
    // Producer: rounds * buffer_words; consumers: rounds * reads * words.
    EXPECT_EQ(trace.stream(0).size(), 8u);
    EXPECT_EQ(trace.stream(1).size(), 8u);
}

TEST(MigratoryTrace, AlternatesReadWrite)
{
    auto trace = makeMigratoryTrace(2, 3, 2);
    for (PeId pe = 0; pe < 2; pe++) {
        const auto &stream = trace.stream(pe);
        ASSERT_EQ(stream.size(), 12u); // rounds * words * 2
        for (std::size_t i = 0; i < stream.size(); i += 2) {
            EXPECT_EQ(stream[i].op, CpuOp::Read);
            EXPECT_EQ(stream[i + 1].op, CpuOp::Write);
            EXPECT_EQ(stream[i].addr, stream[i + 1].addr);
        }
    }
}

TEST(HotSpotTrace, SpinsThenTestAndSets)
{
    auto trace = makeHotSpotTrace(2, 3, 4);
    const auto &stream = trace.stream(0);
    ASSERT_EQ(stream.size(), 15u); // attempts * (spins + 1)
    for (std::size_t i = 0; i < stream.size(); i++) {
        EXPECT_EQ(stream[i].addr, sharedBase());
        if (i % 5 == 4) {
            EXPECT_EQ(stream[i].op, CpuOp::TestAndSet);
        } else {
            EXPECT_EQ(stream[i].op, CpuOp::Read);
        }
    }
}

TEST(SequentialWalkTrace, SweepsInAddressOrder)
{
    auto trace = makeSequentialWalkTrace(2, 16, 2, 4);
    ASSERT_EQ(trace.stream(0).size(), 32u);
    for (PeId pe = 0; pe < 2; pe++) {
        const auto &stream = trace.stream(pe);
        int writes = 0;
        for (std::size_t i = 0; i < stream.size(); i++) {
            EXPECT_EQ(stream[i].addr, localBase(pe) + (i % 16));
            writes += stream[i].op == CpuOp::Write;
        }
        EXPECT_EQ(writes, 8); // every 4th of 32
    }
}

TEST(SequentialWalkTrace, ZeroWriteEveryMeansReadsOnly)
{
    auto trace = makeSequentialWalkTrace(1, 8, 1, 0);
    for (const auto &ref : trace.stream(0))
        EXPECT_EQ(ref.op, CpuOp::Read);
}

TEST(FalseSharingTrace, EachPeOwnsOneAdjacentWord)
{
    auto trace = makeFalseSharingTrace(3, 4);
    for (PeId pe = 0; pe < 3; pe++) {
        const auto &stream = trace.stream(pe);
        ASSERT_EQ(stream.size(), 8u);
        for (std::size_t i = 0; i < stream.size(); i++) {
            EXPECT_EQ(stream[i].addr, sharedBase() + static_cast<Addr>(pe));
            EXPECT_EQ(stream[i].op,
                      i % 2 == 0 ? CpuOp::Write : CpuOp::Read);
        }
    }
}

TEST(ClusteredTrace, LocalityFractionRespected)
{
    const std::size_t refs = 20000;
    auto trace = makeClusteredTrace(2, 2, refs, 0.8, 0.3, 5);
    ASSERT_EQ(trace.numPes(), 4);
    Addr global_region = sharedBase() + (Addr{1} << 20);
    for (PeId pe = 0; pe < 4; pe++) {
        int cluster = pe / 2;
        Addr cluster_region = sharedBase() +
                              static_cast<Addr>(cluster) * 1024;
        std::size_t local = 0;
        for (const auto &ref : trace.stream(pe)) {
            if (ref.addr >= cluster_region &&
                ref.addr < cluster_region + 24) {
                local++;
            } else {
                EXPECT_GE(ref.addr, global_region);
                EXPECT_LT(ref.addr, global_region + 24);
            }
        }
        EXPECT_NEAR(static_cast<double>(local) / refs, 0.8, 0.02);
    }
}

TEST(ClusteredTrace, ExtremesAreAllLocalOrAllGlobal)
{
    auto all_local = makeClusteredTrace(2, 1, 500, 1.0, 0.5, 9);
    Addr global_region = sharedBase() + (Addr{1} << 20);
    for (const auto &ref : all_local.stream(0))
        EXPECT_LT(ref.addr, global_region);

    auto all_global = makeClusteredTrace(2, 1, 500, 0.0, 0.5, 9);
    for (const auto &ref : all_global.stream(1))
        EXPECT_GE(ref.addr, global_region);
}

TEST(ClusteredTrace, AtMost1024ClustersSoNoneAliasesTheGlobalRegion)
{
    // Cluster c's region starts at sharedBase() + c * 1024 and the
    // global region at sharedBase() + 2^20: the last cluster that fits
    // still lies wholly below it.
    auto widest = makeClusteredTrace(1024, 1, 50, 1.0, 0.5, 9);
    Addr global_region = sharedBase() + (Addr{1} << 20);
    for (PeId pe = 0; pe < widest.numPes(); pe++) {
        for (const auto &ref : widest.stream(pe))
            ASSERT_LT(ref.addr, global_region) << "PE " << pe;
    }
    EXPECT_DEATH(makeClusteredTrace(1025, 1, 1, 1.0, 0.5, 9),
                 "at most 1024 clusters");
    EXPECT_DEATH(makeClusteredTrace(2048, 1, 1, 1.0, 0.5, 9),
                 "at most 1024 clusters");
}

/**
 * Every reference of @p trace lies in its PE's private region or in
 * the shared region, both bounded with full-width arithmetic below
 * 2^41.  A generator address past the 48-bit space would be truncated
 * by MemRef's address field and land outside both.
 */
void
expectInRegions(const Trace &trace)
{
    const Addr shared_end = Addr{1} << 41;
    static_assert((Addr{1} << 41) < kAddrLimit);
    ASSERT_LE(codeBase(trace.numPes()), sharedBase());
    for (PeId pe = 0; pe < trace.numPes(); pe++) {
        for (const auto &ref : trace.stream(pe)) {
            bool own = ref.addr >= codeBase(pe) &&
                       ref.addr < codeBase(pe + 1);
            bool shared = ref.addr >= sharedBase() &&
                          ref.addr < shared_end;
            ASSERT_TRUE(own || shared)
                << "PE " << pe << " references " << ref.addr;
        }
    }
}

TEST(Generators, StayInsideAddressSpaceAt8192Pes)
{
    const int pes = 8192;
    expectInRegions(makeCmStarTrace(cmStarApplicationA(), pes, 8, 3));
    expectInRegions(makeUniformRandomTrace(pes, 4, 64, 0.3, 0.1, 3));
    expectInRegions(makeArrayInitTrace(pes, 4));
    expectInRegions(makeProducerConsumerTrace(pes, 2, 1, 1));
    expectInRegions(makeMigratoryTrace(pes, 2, 1));
    expectInRegions(makeHotSpotTrace(pes, 1, 1));
    expectInRegions(makeSequentialWalkTrace(pes, 4, 1, 2));
    expectInRegions(makeFalseSharingTrace(pes, 1));
    expectInRegions(makeClusteredTrace(pes / 32, 32, 4, 0.5, 0.3, 3));
    expectInRegions(makeClusteredTrace(1024, pes / 1024, 4, 0.5, 0.3, 3));
}

TEST(Generators, NoReservedValuesEmitted)
{
    auto trace = makeUniformRandomTrace(2, 5000, 8, 0.5, 0.2, 21);
    for (PeId pe = 0; pe < 2; pe++) {
        for (const auto &ref : trace.stream(pe))
            EXPECT_LE(ref.data, kMaxDataValue);
    }
}

} // namespace
} // namespace ddc
