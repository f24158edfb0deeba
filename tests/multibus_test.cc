/**
 * @file
 * Tests of the Section 7 / Figure 7-1 multiple-shared-bus extension:
 * address interleaving, per-bus traffic split, and correctness.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

TEST(MultiBus, InterleavingRoutesByLowBits)
{
    SystemConfig config;
    config.num_pes = 2;
    config.num_buses = 2;

    Trace trace(2);
    trace.append(0, {CpuOp::Write, 100, 1, DataClass::Shared}); // bus 0
    trace.append(0, {CpuOp::Write, 101, 2, DataClass::Shared}); // bus 1
    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());

    EXPECT_EQ(system.memoryValue(100), 1u);
    EXPECT_EQ(system.memoryValue(101), 2u);
    EXPECT_EQ(system.busCounters(0).get("bus.write"), 1u);
    EXPECT_EQ(system.busCounters(1).get("bus.write"), 1u);
}

TEST(MultiBus, TrafficRoughlySplitsAcrossBuses)
{
    SystemConfig config;
    config.num_pes = 4;
    config.num_buses = 2;
    config.protocol = ProtocolKind::Rb;

    auto trace = makeUniformRandomTrace(4, 2000, 64, 0.4, 0.0, 9);
    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());

    auto bus0 = system.busCounters(0).get("bus.busy_cycles");
    auto bus1 = system.busCounters(1).get("bus.busy_cycles");
    ASSERT_GT(bus0, 0u);
    ASSERT_GT(bus1, 0u);
    double split = static_cast<double>(bus0) /
                   static_cast<double>(bus0 + bus1);
    EXPECT_NEAR(split, 0.5, 0.1);
}

TEST(MultiBus, ConsistencyHoldsAcrossBanks)
{
    SystemConfig config;
    config.num_pes = 4;
    config.num_buses = 4;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeUniformRandomTrace(4, 1000, 32, 0.4, 0.1, 10);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

TEST(MultiBus, LemmaHoldsPerAddressAfterRun)
{
    SystemConfig config;
    config.num_pes = 3;
    config.num_buses = 2;
    config.protocol = ProtocolKind::Rb;
    auto trace = makeUniformRandomTrace(3, 500, 16, 0.5, 0.0, 11);
    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());

    std::vector<Addr> addrs;
    for (Addr a = 0; a < 16; a++)
        addrs.push_back(sharedBase() + a);
    auto report = checkConfigurationLemma(system, addrs);
    EXPECT_TRUE(report.consistent) << report.first_error;
}

TEST(MultiBus, MorePesStillComplete)
{
    SystemConfig config;
    config.num_pes = 8;
    config.num_buses = 4;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeUniformRandomTrace(8, 300, 64, 0.3, 0.05, 12);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

TEST(MultiBus, SingleBusAndDualBusAgreeOnFinalMemory)
{
    auto trace = makeArrayInitTrace(2, 32);
    for (int buses : {1, 2, 4}) {
        SystemConfig config;
        config.num_pes = 2;
        config.num_buses = buses;
        System system(config);
        system.loadTrace(trace);
        system.run();
        ASSERT_TRUE(system.allDone());
        // Every element holds the value its writer stored.
        Word expected = 1;
        for (PeId pe = 0; pe < 2; pe++) {
            for (Addr i = 0; i < 32; i++) {
                Addr addr = sharedBase() + static_cast<Addr>(pe) * 32 + i;
                Word cached = system.cacheValue(pe, addr);
                Word memory = system.memoryValue(addr);
                Word actual = system.lineState(pe, addr).tag ==
                                      LineTag::Local
                                  ? cached : memory;
                EXPECT_EQ(actual, expected);
                expected++;
            }
        }
    }
}

} // namespace
} // namespace ddc
