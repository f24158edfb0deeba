/**
 * @file
 * Edge-case tests: exp::executeTraceRun's derived metrics, processor
 * register bounds, CacheSet assertions and execution-log field
 * semantics.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

TEST(Facade, MissRatioCountsBusNeedingRefs)
{
    // One PE: write (miss), then 9 reads (1 miss + 8 hits).
    Trace trace(1);
    trace.append(0, {CpuOp::Write, 5, 1, DataClass::Shared});
    for (int i = 0; i < 9; i++)
        trace.append(0, {CpuOp::Read, 5, 0, DataClass::Shared});

    SystemConfig config;
    config.num_pes = 1;
    config.protocol = ProtocolKind::Rb;
    auto result = exp::executeTraceRun({.config = config, .trace = trace});
    ASSERT_EQ(result.status, RunStatus::Finished);
    // Write misses + nothing else: RB read after own write hits (L).
    EXPECT_DOUBLE_EQ(result.metric("miss_ratio"), 0.1);
    EXPECT_EQ(result.bus_transactions, 1u);
}

TEST(Facade, EmptyTraceCompletesImmediately)
{
    SystemConfig config;
    config.num_pes = 2;
    Trace trace(2);
    auto result = exp::executeTraceRun({.config = config, .trace = trace});
    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_EQ(result.total_refs, 0u);
    EXPECT_DOUBLE_EQ(result.metric("bus_per_ref"), 0.0);
}

TEST(Processor, RegisterBoundsChecked)
{
    SystemConfig config;
    config.num_pes = 1;
    System system(config);
    ProgramBuilder builder;
    system.setProgram(0, builder.halt().build());
    EXPECT_DEATH(system.processor(0).reg(kNumRegs), "register");
    EXPECT_DEATH(system.processor(0).setReg(-1, 0), "register");
}

TEST(Processor, SetRegSeedsArguments)
{
    SystemConfig config;
    config.num_pes = 1;
    System system(config);
    ProgramBuilder builder;
    system.setProgram(0, builder.addImm(2, 1, 5).halt().build());
    system.processor(0).setReg(1, 100);
    system.run();
    EXPECT_EQ(system.processor(0).reg(2), 105u);
}

TEST(CacheSet, RejectsOverlappingAccesses)
{
    SystemConfig config;
    config.num_pes = 1;
    System system(config);
    // Drive the cache directly through a second CacheSet-style check:
    // issuing through the system is covered elsewhere; here we check
    // the processor interface can't double-issue (assert in Cache).
    Trace trace(1);
    trace.append(0, {CpuOp::Read, 1, 0, DataClass::Shared});
    system.loadTrace(trace);
    system.run();
    EXPECT_TRUE(system.allDone());
}

TEST(ExecLog, TsFieldsRecorded)
{
    SystemConfig config;
    config.num_pes = 1;
    config.record_log = true;
    Trace trace(1);
    trace.append(0, {CpuOp::TestAndSet, 9, 7, DataClass::Shared});
    trace.append(0, {CpuOp::TestAndSet, 9, 8, DataClass::Shared});
    System system(config);
    system.loadTrace(trace);
    system.run();

    ASSERT_EQ(system.log().size(), 2u);
    const auto &first = system.log().all()[0];
    EXPECT_TRUE(first.ts_success);
    EXPECT_EQ(first.value, 0u);
    EXPECT_EQ(first.stored, 7u);
    const auto &second = system.log().all()[1];
    EXPECT_FALSE(second.ts_success);
    EXPECT_EQ(second.value, 7u);
}

TEST(ExecLog, CyclesAreMonotonicPerPe)
{
    SystemConfig config;
    config.num_pes = 4;
    config.record_log = true;
    auto trace = makeUniformRandomTrace(4, 200, 8, 0.4, 0.1, 31);
    System system(config);
    system.loadTrace(trace);
    system.run();

    std::vector<Cycle> last(4, 0);
    for (const auto &entry : system.log().all()) {
        ASSERT_GE(entry.cycle, last[static_cast<std::size_t>(entry.pe)]);
        last[static_cast<std::size_t>(entry.pe)] = entry.cycle;
    }
}

TEST(SystemConfigValidation, BadConfigsDie)
{
    {
        SystemConfig config;
        config.num_pes = 0;
        EXPECT_DEATH(System{config}, "at least one PE");
    }
    {
        SystemConfig config;
        config.cache_lines = 0;
        EXPECT_DEATH(System{config}, "cache line");
    }
    {
        SystemConfig config;
        config.num_buses = 0;
        EXPECT_DEATH(System{config}, "bus");
    }
}

} // namespace
} // namespace ddc
