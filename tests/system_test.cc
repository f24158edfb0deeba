/**
 * @file
 * Integration tests of the full System: trace-driven runs, coherence
 * across caches, statistics plumbing, and the execution log.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

TEST(System, TraceRunCompletes)
{
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 64;
    config.protocol = ProtocolKind::Rb;

    auto trace = makeUniformRandomTrace(4, 200, 16, 0.3, 0.0, 1);
    System system(config);
    system.loadTrace(trace);
    system.run();
    EXPECT_TRUE(system.allDone());
    EXPECT_GT(system.now(), 0u);
}

TEST(System, TraceWithFewerStreamsThanPes)
{
    SystemConfig config;
    config.num_pes = 4;
    Trace trace(2);
    trace.append(0, {CpuOp::Write, 1, 5, DataClass::Shared});
    System system(config);
    system.loadTrace(trace);
    system.run();
    EXPECT_TRUE(system.allDone());
    EXPECT_EQ(system.memoryValue(1), 5u);
}

TEST(System, SingleWriterPropagatesToReaders)
{
    SystemConfig config;
    config.num_pes = 3;
    config.protocol = ProtocolKind::Rb;

    Trace trace(3);
    trace.append(0, {CpuOp::Write, 10, 42, DataClass::Shared});
    // Readers spin-read the address enough times to land after the write.
    for (int i = 0; i < 50; i++) {
        trace.append(1, {CpuOp::Read, 10, 0, DataClass::Shared});
        trace.append(2, {CpuOp::Read, 10, 0, DataClass::Shared});
    }
    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.memoryValue(10), 42u);
    // Final copies agree with memory.
    for (PeId pe = 1; pe < 3; pe++) {
        if (system.lineState(pe, 10).present()) {
            EXPECT_EQ(system.cacheValue(pe, 10), 42u);
        }
    }
}

TEST(System, CountersAggregateAcrossComponents)
{
    SystemConfig config;
    config.num_pes = 2;
    auto trace = makeUniformRandomTrace(2, 100, 8, 0.5, 0.0, 2);
    System system(config);
    system.loadTrace(trace);
    system.run();
    auto counters = system.counters();
    EXPECT_EQ(counters.get("cache.refs"), 200u);
    EXPECT_GT(counters.get("bus.busy_cycles"), 0u);
    EXPECT_GT(counters.get("memory.write"), 0u);
}

TEST(System, ExecutionLogRecordsAllRefs)
{
    SystemConfig config;
    config.num_pes = 2;
    config.record_log = true;
    auto trace = makeUniformRandomTrace(2, 50, 8, 0.5, 0.1, 3);
    System system(config);
    system.loadTrace(trace);
    system.run();
    EXPECT_EQ(system.log().size(), trace.totalRefs());
}

TEST(System, LogDisabledByDefault)
{
    SystemConfig config;
    config.num_pes = 2;
    auto trace = makeUniformRandomTrace(2, 20, 8, 0.5, 0.0, 4);
    System system(config);
    system.loadTrace(trace);
    system.run();
    EXPECT_TRUE(system.log().empty());
}

TEST(System, RunStopsAtMaxCycles)
{
    SystemConfig config;
    config.num_pes = 1;
    System system(config);
    ProgramBuilder builder;
    system.setProgram(0, builder.label("spin").jump("spin").build());
    Cycle executed = system.run(100);
    EXPECT_EQ(executed, 100u);
    EXPECT_FALSE(system.allDone());
}

TEST(System, RejectsOversizedTrace)
{
    SystemConfig config;
    config.num_pes = 1;
    System system(config);
    Trace trace(2);
    EXPECT_DEATH(system.loadTrace(trace), "more PE streams");
}

TEST(System, TotalBusTransactionsMatchesBusyCycles)
{
    SystemConfig config;
    config.num_pes = 2;
    auto trace = makeUniformRandomTrace(2, 100, 8, 0.4, 0.0, 5);
    System system(config);
    system.loadTrace(trace);
    system.run();
    EXPECT_EQ(system.totalBusTransactions(),
              system.busCounters(0).get("bus.busy_cycles"));
}

TEST(RunTraceFacade, SummaryFieldsPopulated)
{
    SystemConfig config;
    config.num_pes = 4;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeUniformRandomTrace(4, 200, 16, 0.3, 0.05, 6);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.total_refs, trace.totalRefs());
    EXPECT_GT(result.bus_transactions, 0u);
    EXPECT_GT(result.metric("bus_per_ref"), 0.0);
}

TEST(RunTraceFacade, GrowsPeCountToTrace)
{
    SystemConfig config;
    config.num_pes = 1;
    auto trace = makeUniformRandomTrace(3, 20, 8, 0.5, 0.0, 7);
    auto result = exp::executeTraceRun({.config = config, .trace = trace});
    EXPECT_EQ(result.status, RunStatus::Finished);
}

TEST(System, AppendAfterLoadTraceLeavesRunUnchanged)
{
    SystemConfig config;
    config.num_pes = 4;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeUniformRandomTrace(4, 300, 12, 0.4, 0.1, 9);

    System reference(config);
    reference.loadTrace(trace);
    Cycle reference_cycles = reference.run();

    // The loaded machine shares the trace's streams; appending to the
    // trace afterwards must copy them, not grow the loaded run.
    System system(config);
    system.loadTrace(trace);
    for (PeId pe = 0; pe < trace.numPes(); pe++)
        trace.append(pe, {CpuOp::Write, 5, 77});
    EXPECT_EQ(trace.totalRefs(), 4u * 301u);
    EXPECT_EQ(system.run(), reference_cycles);
    EXPECT_EQ(system.counters().report(), reference.counters().report());
    EXPECT_EQ(system.counters().get("cache.refs"), 4u * 300u);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig config;
    config.num_pes = 4;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeUniformRandomTrace(4, 300, 12, 0.4, 0.1, 8);

    auto a = exp::executeTraceRun({.config = config, .trace = trace});
    auto b = exp::executeTraceRun({.config = config, .trace = trace});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.bus_transactions, b.bus_transactions);
    EXPECT_EQ(a.counters.report(), b.counters.report());
}

} // namespace
} // namespace ddc
