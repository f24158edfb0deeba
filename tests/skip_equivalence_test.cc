/**
 * @file
 * Skip-on vs skip-off equivalence suite for the quiescent-cycle skip
 * engine (next-event time advance).
 *
 * The engine's contract is that fast-forwarding a quiescent interval
 * is *unobservable*: every counter, every execution-log entry (cycle
 * stamps included), the final cycle count, and the serialized JSON
 * must be byte-identical with skipping on or off — including under
 * the Random arbiter, whose RNG stream must not shift, and for
 * timed-out runs, which must report the wall cycle the budget expired
 * at, not the last cycle actually ticked.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.hh"
#include "exp/runner.hh"
#include "hier/hier_system.hh"
#include "sim/system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

/** Everything observable from one run, for byte-wise comparison. */
struct Observed
{
    Cycle cycles = 0;
    RunStatus status = RunStatus::Finished;
    Cycle skipped = 0;
    std::string counters;
    std::vector<LogEntry> log;
};

void
expectIdentical(const Observed &with_skip, const Observed &no_skip)
{
    EXPECT_EQ(no_skip.skipped, 0u);
    EXPECT_EQ(with_skip.cycles, no_skip.cycles);
    EXPECT_EQ(with_skip.status, no_skip.status);
    EXPECT_EQ(with_skip.counters, no_skip.counters);
    ASSERT_EQ(with_skip.log.size(), no_skip.log.size());
    for (std::size_t i = 0; i < with_skip.log.size(); i++) {
        const LogEntry &a = with_skip.log[i];
        const LogEntry &b = no_skip.log[i];
        EXPECT_EQ(a.seq, b.seq) << "log entry " << i;
        EXPECT_EQ(a.cycle, b.cycle) << "log entry " << i;
        EXPECT_EQ(a.pe, b.pe) << "log entry " << i;
        EXPECT_EQ(a.op, b.op) << "log entry " << i;
        EXPECT_EQ(a.addr, b.addr) << "log entry " << i;
        EXPECT_EQ(a.value, b.value) << "log entry " << i;
        EXPECT_EQ(a.stored, b.stored) << "log entry " << i;
        EXPECT_EQ(a.ts_success, b.ts_success) << "log entry " << i;
    }
}

Observed
observeFlat(SystemConfig config, const Trace &trace,
            Cycle max_cycles = System::kDefaultMaxCycles)
{
    config.record_log = true;
    System system(config);
    system.loadTrace(trace);
    Observed seen;
    seen.cycles = system.run(max_cycles);
    seen.status = system.runStatus();
    seen.skipped = system.skippedCycles();
    seen.counters = system.counters().report();
    seen.log = system.log().all();
    return seen;
}

/** Run the same flat config with and without skipping and compare. */
Observed
checkFlat(SystemConfig config, const Trace &trace,
          Cycle max_cycles = System::kDefaultMaxCycles)
{
    config.skip_quiescent = true;
    Observed with_skip = observeFlat(config, trace, max_cycles);
    config.skip_quiescent = false;
    Observed no_skip = observeFlat(config, trace, max_cycles);
    expectIdentical(with_skip, no_skip);
    return with_skip;
}

const ProtocolKind kProtocols[] = {
    ProtocolKind::WriteThrough, ProtocolKind::WriteOnce, ProtocolKind::Rb,
    ProtocolKind::Rwb};

TEST(SkipEquivalence, FlatMemoryLatencyAllProtocols)
{
    auto trace = makeUniformRandomTrace(4, 1500, 64, 0.3, 0.05, 11);
    for (auto protocol : kProtocols) {
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 64;
        config.protocol = protocol;
        config.memory_latency = 16;
        Observed seen = checkFlat(config, trace);
        // Non-vacuous: with 16-cycle transfers the machine spends
        // most of its time quiescent, so the engine must engage.
        EXPECT_GT(seen.skipped, 0u)
            << "skip never engaged for " << toString(protocol);
    }
}

TEST(SkipEquivalence, FlatRandomArbiterKeepsRngStream)
{
    // The hinge case: RandomArbiter draws one RNG value per grant, so
    // a skipped interval must consume no randomness at all or every
    // later grant (and with it every counter) shifts.
    auto trace = makeHotSpotTrace(8, 300, 8);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 128;
        config.protocol = protocol;
        config.memory_latency = 8;
        config.arbiter = ArbiterKind::Random;
        config.arbiter_seed = 99;
        Observed seen = checkFlat(config, trace);
        EXPECT_GT(seen.skipped, 0u);
    }
}

TEST(SkipEquivalence, FlatBlockTransfersAndMultibus)
{
    auto trace = makeUniformRandomTrace(4, 1200, 128, 0.4, 0.1, 23);
    {
        // Multi-word blocks: a block transfer streams block_words +
        // latency cycles, all skippable when every PE is stalled.
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 32;
        config.block_words = 4;
        config.protocol = ProtocolKind::Rb;
        config.memory_latency = 12;
        Observed seen = checkFlat(config, trace);
        EXPECT_GT(seen.skipped, 0u);
    }
    {
        // Two interleaved buses: a skip must clear *both* buses'
        // grant windows, and idle accounting stays per-bus.
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 64;
        config.num_buses = 2;
        config.protocol = ProtocolKind::WriteOnce;
        config.memory_latency = 16;
        checkFlat(config, trace);
    }
}

TEST(SkipEquivalence, FlatZeroLatencyStaysIdentical)
{
    // The paper's unified cycle: transfers never stream, so a skip
    // can only fire in the (unreachable) all-blocked case; the engine
    // must be a strict no-op here.
    auto trace = makeCmStarTrace(cmStarApplicationA(), 4, 2000, 7);
    SystemConfig config;
    config.num_pes = 4;
    Observed seen = checkFlat(config, trace);
    EXPECT_EQ(seen.skipped, 0u);
}

TEST(SkipEquivalence, TimedOutRunReportsWallCycle)
{
    // The budget expires mid-quiescent-interval: the skip engine must
    // clamp its jump to the budget and report the wall cycle, exactly
    // like the baseline that ticked up to it.
    auto trace = makeHotSpotTrace(4, 400, 8);
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 64;
    config.protocol = ProtocolKind::Rb;
    config.memory_latency = 64;
    Observed seen = checkFlat(config, trace, 100);
    EXPECT_EQ(seen.status, RunStatus::TimedOut);
    EXPECT_EQ(seen.cycles, 100u);
    EXPECT_GT(seen.skipped, 0u);
}

TEST(SkipEquivalence, TimedOutRunResultJsonIsIdentical)
{
    // Same through the experiment engine: RunResult.cycles carries
    // the wall cycle and the default (no --timing) JSON payload is
    // byte-identical with skipping on or off.
    auto trace = makeHotSpotTrace(4, 400, 8);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 4;
    run.config.cache_lines = 64;
    run.config.memory_latency = 64;
    run.max_cycles = 100;

    run.config.skip_quiescent = true;
    exp::RunResult with_skip = exp::executeTraceRun(run);
    run.config.skip_quiescent = false;
    exp::RunResult no_skip = exp::executeTraceRun(run);

    EXPECT_EQ(with_skip.status, RunStatus::TimedOut);
    EXPECT_EQ(with_skip.cycles, 100u);
    EXPECT_GT(with_skip.skipped_cycles, 0u);
    EXPECT_EQ(no_skip.skipped_cycles, 0u);
    EXPECT_EQ(with_skip.toJson(false).dump(), no_skip.toJson(false).dump());
}

TEST(SkipEquivalence, LockWorkloadsViaProcessWideSwitch)
{
    // Processor agents (spin loops are real work, never skipped) and
    // the --no-skip escape hatch: runLockExperiment builds its System
    // internally, so only the process-wide switch can reach it.
    for (auto lock : {sync::LockKind::TestAndSet,
                      sync::LockKind::TestAndTestAndSet}) {
        sync::LockExperimentConfig config;
        config.num_pes = 8;
        config.lock = lock;
        config.protocol = ProtocolKind::Rb;
        config.acquisitions_per_pe = 4;
        config.cs_increments = 4;
        config.memory_latency = 16;
        config.record_log = true;

        std::unique_ptr<System> with_skip_system;
        auto with_skip = sync::runLockExperiment(config,
                                                 &with_skip_system);

        setQuiescentSkipEnabled(false);
        std::unique_ptr<System> no_skip_system;
        auto no_skip = sync::runLockExperiment(config, &no_skip_system);
        setQuiescentSkipEnabled(true);

        EXPECT_EQ(no_skip.skipped_cycles, 0u);
        EXPECT_EQ(no_skip_system->skippedCycles(), 0u);
        EXPECT_EQ(with_skip.cycles, no_skip.cycles);
        EXPECT_EQ(with_skip.counter_value, no_skip.counter_value);
        EXPECT_EQ(with_skip.bus_transactions, no_skip.bus_transactions);
        EXPECT_EQ(with_skip.rmw_attempts, no_skip.rmw_attempts);
        EXPECT_EQ(with_skip.rmw_failures, no_skip.rmw_failures);
        EXPECT_TRUE(with_skip.completed);
        EXPECT_EQ(with_skip_system->counters().report(),
                  no_skip_system->counters().report());
        // TS spinners stall on the bus RMW, so transfers leave the
        // whole machine quiescent; pure TTS spinning is cache-hit
        // work and must never be skipped.
        if (lock == sync::LockKind::TestAndSet)
            EXPECT_GT(with_skip.skipped_cycles, 0u);
    }
}

/** Observe one hierarchical run (skip toggled per-config). */
Observed
observeHier(hier::HierConfig config, const Trace &trace,
            bool skip_quiescent,
            Cycle max_cycles = System::kDefaultMaxCycles)
{
    config.record_log = true;
    config.skip_quiescent = skip_quiescent;
    hier::HierSystem system(config);
    system.loadTrace(trace);
    Observed seen;
    seen.cycles = system.run(max_cycles);
    seen.status = system.runStatus();
    seen.skipped = system.skippedCycles();
    seen.counters = system.counters().report();
    seen.log = system.log().all();
    return seen;
}

TEST(SkipEquivalence, HierarchicalMachine)
{
    // All hierarchy buses run the unified cycle, so skips essentially
    // never engage — but the engine is wired identically and must
    // stay unobservable here too (Rb and Rwb L1 schemes).
    auto trace = makeUniformRandomTrace(8, 800, 64, 0.3, 0.05, 17);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        hier::HierConfig config;
        config.num_clusters = 4;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        expectIdentical(observeHier(config, trace, true),
                        observeHier(config, trace, false));
    }
}

// Named for the multi-lane equivalence suite this case came from.  A
// hierarchical run cut by its budget stops on exactly the budget
// cycle and reports timed_out; a fresh machine repeats it byte for
// byte, and so does the same run with skipping off.
TEST(ParallelEquivalence, TimedOutRunReportsTheSameWallCycle)
{
    auto trace = makeHotSpotTrace(8, 400, 4);
    hier::HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    Observed cut = observeHier(config, trace, true, 200);
    EXPECT_EQ(cut.status, RunStatus::TimedOut);
    EXPECT_EQ(cut.cycles, 200u);
    Observed unskipped = observeHier(config, trace, false, 200);
    expectIdentical(cut, unskipped);
    expectIdentical(unskipped, observeHier(config, trace, false, 200));
    EXPECT_EQ(cut.skipped, observeHier(config, trace, true, 200).skipped);
}

} // namespace
} // namespace ddc
