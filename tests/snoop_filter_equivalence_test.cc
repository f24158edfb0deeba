/**
 * @file
 * Filter-on vs filter-off equivalence suite for the sharer-indexed
 * snoop filter (Bus broadcast + supplier-scan filtering).
 *
 * The filter's contract is that skipping a non-holder's snoop is
 * *unobservable*: every counter, every execution-log entry, the final
 * cycle count, and the serialized JSON must be byte-identical with
 * the filter on or off — including under the Random arbiter (whose
 * RNG stream must not shift), with multi-word blocks (presence is
 * block-granular), across interleaved buses, for timed-out runs, for
 * lock workloads, and on the hierarchical machine (snooping or
 * directory global level, whose cluster caches deliver downward
 * broadcasts through the same index).  The only thing allowed to
 * change is the snoop-visit count, which must shrink.
 */

#include <gtest/gtest.h>

#include <memory>
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
    std::uint64_t snoop_visits = 0;
    std::string counters;
    std::vector<LogEntry> log;
};

void
expectIdentical(const Observed &filtered, const Observed &unfiltered)
{
    EXPECT_EQ(filtered.cycles, unfiltered.cycles);
    EXPECT_EQ(filtered.status, unfiltered.status);
    EXPECT_EQ(filtered.counters, unfiltered.counters);
    ASSERT_EQ(filtered.log.size(), unfiltered.log.size());
    for (std::size_t i = 0; i < filtered.log.size(); i++) {
        const LogEntry &a = filtered.log[i];
        const LogEntry &b = unfiltered.log[i];
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
    seen.snoop_visits = system.snoopVisits();
    seen.counters = system.counters().report();
    seen.log = system.log().all();
    return seen;
}

/** Run the same flat config with and without the filter and compare. */
Observed
checkFlat(SystemConfig config, const Trace &trace,
          Cycle max_cycles = System::kDefaultMaxCycles)
{
    config.snoop_filter = true;
    Observed filtered = observeFlat(config, trace, max_cycles);
    config.snoop_filter = false;
    Observed unfiltered = observeFlat(config, trace, max_cycles);
    expectIdentical(filtered, unfiltered);
    // Non-vacuous: the filter must actually skip visits somewhere
    // (every config below has more PEs than typical block holders).
    EXPECT_LT(filtered.snoop_visits, unfiltered.snoop_visits);
    return filtered;
}

const ProtocolKind kProtocols[] = {
    ProtocolKind::WriteThrough, ProtocolKind::WriteOnce, ProtocolKind::Rb,
    ProtocolKind::Rwb};

TEST(SnoopFilterEquivalence, FlatAllProtocols)
{
    auto trace = makeUniformRandomTrace(8, 1500, 64, 0.3, 0.05, 11);
    for (auto protocol : kProtocols) {
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 64;
        config.protocol = protocol;
        checkFlat(config, trace);
    }
}

TEST(SnoopFilterEquivalence, FlatSupplierHeavyOwnershipMigration)
{
    // Producer/consumer ping-pongs ownership, so the supplier scan
    // (owner lookup) runs constantly — the index must name the same
    // single Local owner the full scan finds, every time.
    auto trace = makeProducerConsumerTrace(8, 32, 20, 2);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 128;
        config.protocol = protocol;
        checkFlat(config, trace);
    }
}

TEST(SnoopFilterEquivalence, FlatRandomArbiterKeepsRngStream)
{
    // The filter must consume no randomness: grants, and with them
    // every downstream counter, would shift otherwise.
    auto trace = makeHotSpotTrace(8, 300, 8);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 128;
        config.protocol = protocol;
        config.arbiter = ArbiterKind::Random;
        config.arbiter_seed = 99;
        checkFlat(config, trace);
    }
}

TEST(SnoopFilterEquivalence, FlatBlockTransfersAndMultibus)
{
    auto trace = makeUniformRandomTrace(8, 1200, 128, 0.4, 0.1, 23);
    {
        // Multi-word blocks: presence is block-granular, and small
        // caches force clean retags (a victim line re-pointed at a new
        // block without a write-back must move its index entry).
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 16;
        config.block_words = 4;
        config.protocol = ProtocolKind::Rb;
        checkFlat(config, trace);
    }
    {
        // Two interleaved buses: each bus keeps its own sharer index
        // over its own cache banks.
        SystemConfig config;
        config.num_pes = 8;
        config.cache_lines = 64;
        config.num_buses = 2;
        config.protocol = ProtocolKind::WriteOnce;
        checkFlat(config, trace);
    }
}

TEST(SnoopFilterEquivalence, FlatCombinedWithQuiescentSkip)
{
    // Both engines at once: the skip engine's next-event schedule is
    // a function of armed/transfer state the filter never touches.
    auto trace = makeUniformRandomTrace(8, 1000, 64, 0.3, 0.05, 31);
    SystemConfig config;
    config.num_pes = 8;
    config.cache_lines = 64;
    config.protocol = ProtocolKind::Rb;
    config.memory_latency = 16;
    config.skip_quiescent = true;
    checkFlat(config, trace);
}

TEST(SnoopFilterEquivalence, TimedOutRunResultJsonIsIdentical)
{
    // Through the experiment engine: the default (no --timing) JSON
    // payload is byte-identical filter-on vs filter-off, even when
    // the run times out mid-flight.
    auto trace = makeHotSpotTrace(8, 400, 8);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 8;
    run.config.cache_lines = 64;
    run.config.memory_latency = 64;
    run.max_cycles = 100;

    run.config.snoop_filter = true;
    exp::RunResult filtered = exp::executeTraceRun(run);
    run.config.snoop_filter = false;
    exp::RunResult unfiltered = exp::executeTraceRun(run);

    EXPECT_EQ(filtered.status, RunStatus::TimedOut);
    EXPECT_EQ(filtered.cycles, 100u);
    EXPECT_EQ(filtered.toJson(false).dump(), unfiltered.toJson(false).dump());
    // snoop_visits is the one field allowed to differ, and it is
    // serialized only with timing opted in.
    EXPECT_TRUE(filtered.toJson(true).dump() !=
                unfiltered.toJson(true).dump());
}

TEST(SnoopFilterEquivalence, FallbackCountSurfacesInRunResult)
{
    // A 70-client bus silently reverted to full snooping before this
    // counter existed; now the degradation is visible — but, being a
    // host-topology fact, only in the opt-in --timing serialization.
    auto trace = makeUniformRandomTrace(70, 400, 32, 0.3, 0.05, 7);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 70;
    run.config.cache_lines = 32;
    exp::RunResult result = exp::executeTraceRun(run);
    EXPECT_GE(result.snoop_filter_fallbacks, 1u);
    EXPECT_NE(result.toJson(true).dump().find("snoop_filter_fallbacks"),
              std::string::npos);
    EXPECT_EQ(result.toJson(false).dump().find("snoop_filter_fallbacks"),
              std::string::npos);
}

TEST(SnoopFilterEquivalence, LockWorkloadsViaProcessWideSwitch)
{
    // Spin locks through real PE programs, with the --no-snoop-filter
    // escape hatch: runLockExperiment builds its System internally, so
    // only the process-wide switch can reach it.
    for (auto lock : {sync::LockKind::TestAndSet,
                      sync::LockKind::TestAndTestAndSet}) {
        sync::LockExperimentConfig config;
        config.num_pes = 8;
        config.lock = lock;
        config.protocol = ProtocolKind::Rb;
        config.acquisitions_per_pe = 4;
        config.cs_increments = 4;
        config.record_log = true;

        std::unique_ptr<System> filtered_system;
        auto filtered = sync::runLockExperiment(config, &filtered_system);

        setSnoopFilterEnabled(false);
        std::unique_ptr<System> unfiltered_system;
        auto unfiltered = sync::runLockExperiment(config,
                                                  &unfiltered_system);
        setSnoopFilterEnabled(true);

        EXPECT_EQ(filtered.cycles, unfiltered.cycles);
        EXPECT_EQ(filtered.counter_value, unfiltered.counter_value);
        EXPECT_EQ(filtered.bus_transactions, unfiltered.bus_transactions);
        EXPECT_EQ(filtered.rmw_attempts, unfiltered.rmw_attempts);
        EXPECT_EQ(filtered.rmw_failures, unfiltered.rmw_failures);
        EXPECT_TRUE(filtered.completed);
        EXPECT_EQ(filtered_system->counters().report(),
                  unfiltered_system->counters().report());
        EXPECT_LT(filtered_system->snoopVisits(),
                  unfiltered_system->snoopVisits());
    }
}

/** Observe one hierarchical run (filter toggled per-config). */
Observed
observeHier(hier::HierConfig config, const Trace &trace,
            bool snoop_filter)
{
    config.record_log = true;
    config.snoop_filter = snoop_filter;
    hier::HierSystem system(config);
    system.loadTrace(trace);
    Observed seen;
    seen.cycles = system.run();
    seen.status = system.runStatus();
    seen.snoop_visits = system.snoopVisits();
    seen.counters = system.counters().report();
    seen.log = system.log().all();
    return seen;
}

TEST(SnoopFilterEquivalence, HierarchicalMachine)
{
    // Cluster buses filter over their L1s; cluster caches stay
    // always-snoop on the global bus (they proxy whole clusters, so
    // per-block indexing does not apply to them).
    auto trace = makeUniformRandomTrace(8, 800, 64, 0.3, 0.05, 17);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        hier::HierConfig config;
        config.num_clusters = 4;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        Observed filtered = observeHier(config, trace, true);
        Observed unfiltered = observeHier(config, trace, false);
        expectIdentical(filtered, unfiltered);
        EXPECT_LT(filtered.snoop_visits, unfiltered.snoop_visits);
    }
}

TEST(SnoopFilterEquivalence, HierarchicalDirectory)
{
    // Home nodes deliver each global Read to every sharer cluster,
    // and each cluster cache passes it down through its bus's sharer
    // index, which skips the L1s it cannot change (an RB spinner in
    // R ignores a read broadcast).  Downward deliveries are filtered
    // too, so they are held to the same byte-identity contract.
    const Trace traces[] = {makeHotSpotTrace(32, 20, 8),
                            makeClusteredTrace(4, 8, 300, 0.8, 0.3, 5)};
    for (const Trace &trace : traces) {
        for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
            hier::HierConfig config;
            config.num_clusters = 4;
            config.pes_per_cluster = 8;
            config.cache_lines = 64;
            config.protocol = protocol;
            config.global = hier::GlobalKind::Directory;
            config.home_nodes = 2;
            Observed filtered = observeHier(config, trace, true);
            Observed unfiltered = observeHier(config, trace, false);
            expectIdentical(filtered, unfiltered);
            EXPECT_LT(filtered.snoop_visits, unfiltered.snoop_visits);
        }
    }
}

} // namespace
} // namespace ddc
