/**
 * @file
 * Observability-on vs observability-off equivalence suite.
 *
 * The observability subsystem's contract is that it *observes*:
 * enabling tracing, histograms, or sampling must not perturb the
 * simulation — every counter, every execution-log entry, the final
 * cycle count, and the serialized RunResult JSON must be
 * byte-identical with the features on or off, including under the
 * Random arbiter (whose RNG stream must not shift) and for lock
 * workloads (whose episode tracking hangs off the bus hot path), on
 * the flat machine and on the hierarchical machine with either global
 * interconnect.  Histograms and samples only *add* JSON fields;
 * everything shared stays byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "exp/runner.hh"
#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "sim/system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

constexpr const char *kTracePath = "trace_determinism_tmp.json";

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
expectIdentical(const Observed &observed, const Observed &plain)
{
    EXPECT_EQ(observed.cycles, plain.cycles);
    EXPECT_EQ(observed.status, plain.status);
    EXPECT_EQ(observed.skipped, plain.skipped);
    EXPECT_EQ(observed.counters, plain.counters);
    ASSERT_EQ(observed.log.size(), plain.log.size());
    for (std::size_t i = 0; i < observed.log.size(); i++) {
        const LogEntry &a = observed.log[i];
        const LogEntry &b = plain.log[i];
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

/** Run once; when @p traced, the System claims a real trace file. */
Observed
observeFlat(SystemConfig config, const Trace &trace, bool traced)
{
    if (traced)
        obs::setTraceOutput(kTracePath);
    config.record_log = true;
    Observed seen;
    {
        System system(config);
        system.loadTrace(trace);
        seen.cycles = system.run();
        seen.status = system.runStatus();
        seen.skipped = system.skippedCycles();
        seen.counters = system.counters().report();
        seen.log = system.log().all();
        if (traced) {
            // Non-vacuous: the run must actually have traced events.
            auto *observability = system.observability();
            EXPECT_NE(observability, nullptr);
            if (observability) {
                auto *sink =
                    observability->trace(obs::Category::Bus);
                EXPECT_NE(sink, nullptr);
                if (sink)
                    EXPECT_GT(sink->size(), 0u);
            }
        }
    }
    if (traced) {
        obs::setTraceOutput("");
        std::remove(kTracePath);
    }
    return seen;
}

void
checkFlat(SystemConfig config, const Trace &trace)
{
    Observed traced = observeFlat(config, trace, true);
    Observed plain = observeFlat(config, trace, false);
    expectIdentical(traced, plain);

    // Histograms and sampling ride the same hot-path hooks; they must
    // be just as invisible.
    SystemConfig with_histograms = config;
    with_histograms.histograms = true;
    with_histograms.sample_every = 64;
    expectIdentical(observeFlat(with_histograms, trace, false), plain);
}

/**
 * Hierarchical run; when @p observed, traced into a real file,
 * histogrammed, and sampled all at once.
 */
Observed
observeHier(hier::HierConfig config, const Trace &trace, bool observed)
{
    config.record_log = true;
    config.histograms = observed;
    if (observed) {
        obs::setTraceOutput(kTracePath);
        obs::setSampleInterval(64);
    }
    Observed seen;
    {
        hier::HierSystem system(config);
        system.loadTrace(trace);
        seen.cycles = system.run();
        seen.status = system.runStatus();
        seen.skipped = system.skippedCycles();
        seen.counters = system.counters().report();
        seen.log = system.log().all();
        if (observed) {
            // Non-vacuous: every observer must actually be attached.
            obs::Recorder *observability = system.observability();
            EXPECT_NE(observability, nullptr);
            if (observability) {
                EXPECT_NE(observability->metrics(), nullptr);
                EXPECT_NE(observability->sampler(), nullptr);
                obs::TraceSink *sink = observability->sink();
                EXPECT_TRUE(sink && sink->size() > 0);
            }
        }
    }
    if (observed) {
        obs::setTraceOutput("");
        obs::setSampleInterval(0);
        std::remove(kTracePath);
    }
    return seen;
}

TEST(TraceDeterminism, FlatAllProtocols)
{
    auto trace = makeUniformRandomTrace(8, 1200, 64, 0.3, 0.05, 41);
    for (auto protocol :
         {ProtocolKind::WriteThrough, ProtocolKind::WriteOnce,
          ProtocolKind::Rb, ProtocolKind::Rwb}) {
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 64;
        config.protocol = protocol;
        checkFlat(config, trace);
    }
}

TEST(TraceDeterminism, RandomArbiterKeepsRngStream)
{
    // Tracing must consume no randomness: grants, and with them every
    // downstream counter, would shift otherwise.
    auto trace = makeHotSpotTrace(8, 300, 8);
    SystemConfig config;
    config.num_pes = 8;
    config.cache_lines = 128;
    config.protocol = ProtocolKind::Rwb;
    config.arbiter = ArbiterKind::Random;
    config.arbiter_seed = 99;
    checkFlat(config, trace);
}

TEST(TraceDeterminism, QuiescentSkipAndMultiWordBlocks)
{
    // The quiesce category hooks skipQuiescent; the miss spans hook
    // block transfers.  Neither may change the schedule.
    auto trace = makeUniformRandomTrace(8, 1000, 64, 0.4, 0.1, 23);
    SystemConfig config;
    config.num_pes = 8;
    config.cache_lines = 32;
    config.block_words = 4;
    config.protocol = ProtocolKind::Rb;
    config.memory_latency = 16;
    config.skip_quiescent = true;
    checkFlat(config, trace);
}

TEST(TraceDeterminism, HierarchicalSnoopAndDirectory)
{
    for (bool directory : {false, true}) {
        SCOPED_TRACE(directory ? "directory" : "snoop");
        auto trace = makeUniformRandomTrace(16, 600, 64, 0.35, 0.1,
                                            directory ? 43 : 31);
        hier::HierConfig config;
        config.num_clusters = 8;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        if (directory) {
            config.global = hier::GlobalKind::Directory;
            config.home_nodes = 4;
        }
        expectIdentical(observeHier(config, trace, true),
                        observeHier(config, trace, false));
    }
}

TEST(TraceDeterminism, RunResultJsonByteIdenticalTracingOnVsOff)
{
    // Through the experiment engine: the serialized JSON payload — the
    // artifact the repro pipeline diffs — is byte-identical with
    // tracing on or off, with and without --timing.
    auto trace = makeProducerConsumerTrace(8, 32, 20, 2);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 8;
    run.config.cache_lines = 128;
    run.config.protocol = ProtocolKind::Rwb;

    obs::setTraceOutput(kTracePath);
    exp::RunResult traced = exp::executeTraceRun(run);
    obs::setTraceOutput("");
    std::remove(kTracePath);
    exp::RunResult plain = exp::executeTraceRun(run);

    EXPECT_EQ(traced.toJson(false).dump(), plain.toJson(false).dump());
}

TEST(TraceDeterminism, HistogramsOnlyAddJsonFields)
{
    auto trace = makeUniformRandomTrace(8, 1000, 64, 0.3, 0.05, 13);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 8;
    run.config.cache_lines = 64;
    run.config.protocol = ProtocolKind::Rb;

    exp::RunResult plain = exp::executeTraceRun(run);
    EXPECT_TRUE(plain.histograms.isNull());
    EXPECT_TRUE(plain.samples.isNull());

    run.config.histograms = true;
    run.config.sample_every = 100;
    exp::RunResult observed = exp::executeTraceRun(run);
    EXPECT_FALSE(observed.histograms.isNull());
    EXPECT_FALSE(observed.samples.isNull());

    // Strip the added fields: everything shared is byte-identical.
    observed.histograms = exp::Json();
    observed.samples = exp::Json();
    EXPECT_EQ(observed.toJson(false).dump(), plain.toJson(false).dump());
}

TEST(TraceDeterminism, LockWorkloadsWithHistograms)
{
    for (auto lock : {sync::LockKind::TestAndSet,
                      sync::LockKind::TestAndTestAndSet}) {
        sync::LockExperimentConfig config;
        config.num_pes = 8;
        config.lock = lock;
        config.protocol = ProtocolKind::Rwb;
        config.acquisitions_per_pe = 4;
        config.cs_increments = 4;

        auto plain = sync::runLockExperiment(config);
        config.histograms = true;
        auto observed = sync::runLockExperiment(config);

        EXPECT_EQ(observed.cycles, plain.cycles);
        EXPECT_EQ(observed.bus_transactions, plain.bus_transactions);
        EXPECT_EQ(observed.rmw_attempts, plain.rmw_attempts);
        EXPECT_EQ(observed.rmw_failures, plain.rmw_failures);
        EXPECT_EQ(observed.counter_value, plain.counter_value);
        EXPECT_TRUE(observed.completed);
        EXPECT_FALSE(plain.has_metrics);
        EXPECT_TRUE(observed.has_metrics);
    }
}

} // namespace
} // namespace ddc
