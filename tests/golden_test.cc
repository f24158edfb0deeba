/**
 * @file
 * Golden-value regression tests for the hot-path rework.
 *
 * Every number here was captured from the build immediately before
 * the interned counter-handle and incremental done/idle-tracking
 * changes (same workloads, same seeds).  They pin two things at
 * once: the counter values visible through the name-keyed API
 * (get/sumPrefix/report must be unaffected by handle-based adds) and
 * the exact cycle counts (the event-driven idle/done tracking must
 * not change when any component runs).
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "hier/hier_system.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

TEST(Golden, CmStarRunMatchesPreRefactorBaseline)
{
    // ddcsim --workload cmstar_a --pes 4 --refs 2000 --seed 7 --check
    SystemConfig config;
    auto trace = makeCmStarTrace(cmStarApplicationA(), 4, 2000, 7);
    auto summary = runTrace(config, trace, true);

    EXPECT_TRUE(summary.completed);
    EXPECT_TRUE(summary.consistent);
    EXPECT_EQ(summary.cycles, 3358u);
    EXPECT_EQ(summary.total_refs, 8000u);
    EXPECT_EQ(summary.bus_transactions, 2792u);
    EXPECT_NEAR(summary.miss_ratio, 0.333, 1e-9);

    const auto &counters = summary.counters;
    EXPECT_EQ(counters.get("bus.busy_cycles"), 2792u);
    EXPECT_EQ(counters.get("bus.idle_cycles"), 566u);
    EXPECT_EQ(counters.get("bus.kill"), 17u);
    EXPECT_EQ(counters.get("bus.read"), 2202u);
    EXPECT_EQ(counters.get("bus.supply_write"), 17u);
    EXPECT_EQ(counters.get("bus.write"), 590u);
    EXPECT_EQ(counters.get("cache.invalidated"), 29u);
    EXPECT_EQ(counters.get("cache.read_hit.Code"), 3660u);
    EXPECT_EQ(counters.get("cache.read_hit.Local"), 1310u);
    EXPECT_EQ(counters.get("cache.read_hit.Shared"), 19u);
    EXPECT_EQ(counters.get("cache.read_miss.Code"), 1450u);
    EXPECT_EQ(counters.get("cache.read_miss.Local"), 467u);
    EXPECT_EQ(counters.get("cache.read_miss.Shared"), 285u);
    EXPECT_EQ(counters.get("cache.refs"), 8000u);
    EXPECT_EQ(counters.get("cache.snarf"), 6u);
    EXPECT_EQ(counters.get("cache.supply"), 17u);
    EXPECT_EQ(counters.get("cache.write_hit.Local"), 343u);
    EXPECT_EQ(counters.get("cache.write_hit.Shared"), 4u);
    EXPECT_EQ(counters.get("cache.write_miss.Local"), 363u);
    EXPECT_EQ(counters.get("cache.write_miss.Shared"), 99u);
    EXPECT_EQ(counters.get("cache.writeback"), 111u);
    EXPECT_EQ(counters.get("memory.read"), 2202u);
    EXPECT_EQ(counters.get("memory.write"), 590u);
    EXPECT_EQ(counters.get("pe.stall_cycles"), 4903u);

    // sumPrefix over the merged set still agrees with the dense
    // handle path the facade now uses for miss_ratio.
    EXPECT_EQ(counters.sumPrefix("cache.read_miss."), 2202u);
    EXPECT_EQ(counters.sumPrefix("cache.write_miss."), 462u);

    // Pre-interned handles that never fired (bus.nack, cache.flush,
    // cache.ts.*, ...) must not appear in names() or report().
    auto names = counters.names();
    EXPECT_EQ(names.size(), 24u);
    EXPECT_FALSE(counters.has("bus.nack"));
    EXPECT_EQ(counters.report().find("bus.nack"), std::string::npos);
    EXPECT_NE(counters.report().find("cache.refs = 8000"),
              std::string::npos);
}

TEST(Golden, HotSpotRwbRunMatchesPreRefactorBaseline)
{
    // ddcsim --workload hot_spot --pes 8 --refs 500 --seed 3
    //        --protocol RWB --check
    SystemConfig config;
    config.protocol = ProtocolKind::Rwb;
    auto trace = makeHotSpotTrace(8, 500 / 9 + 1, 8);
    auto summary = runTrace(config, trace, true);

    EXPECT_TRUE(summary.completed);
    EXPECT_TRUE(summary.consistent);
    EXPECT_EQ(summary.cycles, 568u);
    EXPECT_EQ(summary.total_refs, 4032u);
    EXPECT_EQ(summary.bus_transactions, 456u);
    EXPECT_NEAR(summary.miss_ratio, 456.0 / 4032.0, 1e-9);
}

TEST(Golden, HierarchicalRunMatchesPreRefactorBaseline)
{
    // ddcsim --workload producer_consumer --clusters 2 --pes 8
    //        --refs 400 --seed 9 --check
    hier::HierConfig config;
    config.num_clusters = 2;
    config.pes_per_cluster = 8;
    config.cache_lines = 1024;
    config.record_log = true;

    hier::HierSystem system(config);
    system.loadTrace(makeProducerConsumerTrace(16, 16, 400 / 64 + 1, 2));
    Cycle cycles = system.run();

    EXPECT_TRUE(system.allDone());
    EXPECT_FALSE(system.timedOut());
    EXPECT_EQ(cycles, 575u);
    EXPECT_EQ(system.globalBusTransactions(), 268u);
    EXPECT_EQ(system.clusterBusTransactions(), 708u);
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

/**
 * The cases below were captured from the build immediately before
 * stale-driven bus polling, bitset arbitration, the stalled-agent
 * wake list and the per-PE forward flag.  Each pins the cycle count,
 * the status and the full counter report of a run through one of
 * the paths that rework replaced.
 */

TEST(Golden, RandomArbiterOnNinetySixPesMatchesBaseline)
{
    // ddcsim --workload random --pes 96 --refs 1000 --seed 5
    //        --arbiter Random --check
    // 96 clients need a two-word ready set, and every Random grant is
    // the nth member of it.
    SystemConfig config;
    config.num_pes = 96;
    config.arbiter = ArbiterKind::Random;
    auto trace = makeUniformRandomTrace(96, 1000, 64, 0.3, 0.05, 5);
    auto summary = runTrace(config, trace, true);

    EXPECT_TRUE(summary.completed);
    EXPECT_EQ(summary.status, RunStatus::Finished);
    EXPECT_TRUE(summary.consistent);
    EXPECT_EQ(summary.cycles, 64987u);
    EXPECT_EQ(summary.skipped_cycles, 0u);
    EXPECT_EQ(summary.bus_transactions, 64974u);
    EXPECT_EQ(summary.counters.report(), R"(bus.busy_cycles = 64974
bus.idle_cycles = 13
bus.kill = 17224
bus.read = 14583
bus.rmw = 4770
bus.rmw_fail = 4763
bus.rmw_success = 7
bus.supply_write = 17224
bus.write = 45621
cache.broadcast_fill = 19607
cache.flush = 13
cache.invalidated = 1208152
cache.read_hit.Shared = 28306
cache.read_miss.Shared = 34190
cache.refs = 96000
cache.snarf = 1179987
cache.supply = 17224
cache.ts.Shared = 4770
cache.write_hit.Shared = 350
cache.write_miss.Shared = 28384
memory.read = 19353
memory.write = 45628
pe.stall_cycles = 5985980
)");
}

TEST(Golden, MultiBusHotSpotWithMemoryLatencyMatchesBaseline)
{
    // ddcsim --workload hot_spot --pes 8 --refs 500 --buses 2
    //        --arbiter FixedPriority --latency 8 --check
    // Snoops land while multi-cycle transfers hold the bus, so stale
    // caches wait several cycles for their poll, and the quiescent
    // skip fires between transfers.
    SystemConfig config;
    config.num_pes = 8;
    config.num_buses = 2;
    config.arbiter = ArbiterKind::FixedPriority;
    config.memory_latency = 8;
    auto trace = makeHotSpotTrace(8, 500 / 9 + 1, 8);
    auto summary = runTrace(config, trace, true);

    EXPECT_TRUE(summary.completed);
    EXPECT_EQ(summary.status, RunStatus::Finished);
    EXPECT_TRUE(summary.consistent);
    EXPECT_EQ(summary.cycles, 4108u);
    EXPECT_EQ(summary.skipped_cycles, 64u);
    EXPECT_EQ(summary.bus_transactions, 4105u);
    EXPECT_EQ(summary.counters.report(), R"(bus.busy_cycles = 4105
bus.idle_cycles = 4111
bus.kill = 1
bus.read = 8
bus.rmw = 448
bus.rmw_fail = 447
bus.rmw_success = 1
bus.supply_write = 1
bus.transfer_cycles = 3648
bus.write = 1
cache.read_hit.Shared = 3576
cache.read_miss.Shared = 8
cache.refs = 4032
cache.supply = 1
cache.ts.Shared = 448
memory.read = 456
memory.write = 2
pe.stall_cycles = 16452
)");
}

TEST(Golden, DirectoryHotSpotMatchesBaseline)
{
    // ddcsim --workload hot_spot --clusters 8 --pes 4 --refs 500
    //        --global directory --homes 2 --check
    // Stalled L1s wake from the global phase, NACKed cluster-bus RMWs
    // hit the one-forward-per-PE check, and both homes arbitrate from
    // their inbox masks.
    hier::HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 4;
    config.global = hier::GlobalKind::Directory;
    config.home_nodes = 2;
    config.record_log = true;

    hier::HierSystem system(config);
    system.loadTrace(makeHotSpotTrace(32, 500 / 9 + 1, 8));
    Cycle cycles = system.run();

    EXPECT_TRUE(system.allDone());
    EXPECT_FALSE(system.timedOut());
    EXPECT_EQ(cycles, 1810u);
    EXPECT_EQ(system.skippedCycles(), 0u);
    EXPECT_EQ(system.globalBusTransactions(), 1806u);
    EXPECT_EQ(system.clusterBusTransactions(), 14359u);
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
    EXPECT_EQ(system.counters().report(), R"(bus.busy_cycles = 16165
bus.idle_cycles = 1935
bus.kill = 2
bus.nack = 14347
bus.nack.BusRead = 56
bus.nack.BusRmw = 14291
bus.read = 24
bus.rmw = 1792
bus.rmw_fail = 1791
bus.rmw_success = 1
bus.supply_write = 2
bus.write = 2
cache.broadcast_fill = 17
cache.invalidated = 32
cache.read_hit.Shared = 14282
cache.read_miss.Shared = 54
cache.refs = 16128
cache.snarf = 31
cache.supply = 1
cache.ts.Shared = 1792
dir.msg.ack = 7
dir.msg.fwd = 1
dir.msg.inval = 7
dir.msg.request = 1806
dir.msg.update = 12578
hier.absorbed.read = 11
hier.downward_broadcast = 14390
hier.dropped_read_completion = 12
hier.forward.BusRead = 43
hier.forward.BusRmw = 1792
hier.forward_cancelled = 5
hier.forward_resolved_locally = 25
hier.global_invalidation = 7
hier.supply = 1
memory.read = 1805
memory.write = 2
pe.stall_cycles = 41285
)");
}

} // namespace
} // namespace ddc
