/**
 * @file
 * Property-based tests: for every protocol, any random multi-PE
 * reference stream must (a) complete, (b) produce a serially
 * consistent execution (Section 4's theorem), and (c) end in a state
 * satisfying the configuration lemma.  Parameterized over protocol,
 * seed, PE count, and contention level.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

struct PropertyCase
{
    ProtocolKind protocol;
    int num_pes;
    std::uint64_t footprint; // smaller => more contention
    std::uint64_t seed;
};

class RandomTraceProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(RandomTraceProperty, SeriallyConsistentAndLemmaAbiding)
{
    const auto &param = GetParam();

    SystemConfig config;
    config.num_pes = param.num_pes;
    config.cache_lines = 32; // small cache: plenty of evictions
    config.protocol = param.protocol;
    config.record_log = true;

    auto trace = makeUniformRandomTrace(param.num_pes, 600,
                                        param.footprint, 0.35, 0.15,
                                        param.seed);
    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());

    auto serial = checkSerialConsistency(system.log());
    EXPECT_TRUE(serial.consistent) << serial.first_error;

    std::vector<Addr> addrs;
    for (Addr a = 0; a < param.footprint; a++)
        addrs.push_back(sharedBase() + a);
    auto lemma = checkConfigurationLemma(system, addrs);
    EXPECT_TRUE(lemma.consistent) << lemma.first_error;
}

std::vector<PropertyCase>
propertyCases()
{
    std::vector<PropertyCase> cases;
    std::uint64_t seed = 1000;
    for (auto protocol : allProtocolKinds()) {
        for (int num_pes : {2, 4, 7}) {
            // footprint 4: extreme contention; footprint 64: eviction-
            // heavy (footprint > 32 cache lines).
            for (std::uint64_t footprint : {4u, 16u, 64u})
                cases.push_back({protocol, num_pes, footprint, seed++});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraceProperty, ::testing::ValuesIn(propertyCases()),
    [](const auto &info) {
        const auto &param = info.param;
        return std::string(toString(param.protocol)) + "_" +
               std::to_string(param.num_pes) + "pes_" +
               std::to_string(param.footprint) + "words_" +
               std::to_string(param.seed);
    });

/** RWB's k parameter must not affect correctness, only traffic. */
class RwbKProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RwbKProperty, ConsistentForAnyK)
{
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 32;
    config.protocol = ProtocolKind::Rwb;
    config.rwb_writes_to_local = GetParam();

    auto trace = makeUniformRandomTrace(4, 800, 12, 0.4, 0.1, 77);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

INSTANTIATE_TEST_SUITE_P(KSweep, RwbKProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

/** Arbitration policy must not affect correctness. */
class ArbiterProperty : public ::testing::TestWithParam<ArbiterKind>
{
};

TEST_P(ArbiterProperty, ConsistentUnderAnyArbitration)
{
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 32;
    config.protocol = ProtocolKind::Rb;
    config.arbiter = GetParam();

    auto trace = makeUniformRandomTrace(4, 600, 8, 0.4, 0.15, 88);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    ASSERT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
}

INSTANTIATE_TEST_SUITE_P(Arbiters, ArbiterProperty,
                         ::testing::Values(ArbiterKind::RoundRobin,
                                           ArbiterKind::FixedPriority,
                                           ArbiterKind::Random),
                         [](const auto &info) {
                             return std::string(toString(info.param));
                         });

/** All workload generators must run consistently on the real schemes. */
TEST(WorkloadProperty, AllGeneratorsConsistentOnRbAndRwb)
{
    std::vector<std::pair<std::string, Trace>> workloads;
    workloads.emplace_back("array_init", makeArrayInitTrace(4, 64));
    workloads.emplace_back("producer_consumer",
                           makeProducerConsumerTrace(4, 8, 4, 2));
    workloads.emplace_back("migratory", makeMigratoryTrace(4, 4, 6));
    workloads.emplace_back("hot_spot", makeHotSpotTrace(4, 8, 4));
    workloads.emplace_back(
        "cmstar_a", makeCmStarTrace(cmStarApplicationA(), 4, 500, 3));

    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        for (const auto &[name, trace] : workloads) {
            SystemConfig config;
            config.num_pes = 4;
            config.cache_lines = 64;
            config.protocol = protocol;
            auto result = exp::executeTraceRun(
                {.config = config, .trace = trace, .check_consistency = true});
            EXPECT_EQ(result.status, RunStatus::Finished)
                << name << " on " << toString(protocol);
            EXPECT_TRUE(result.consistent)
                << name << " on " << toString(protocol);
        }
    }
}

} // namespace
} // namespace ddc
