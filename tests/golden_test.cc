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

#include "exp/runner.hh"
#include "hier/hier_system.hh"
#include "sim/system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

TEST(Golden, CmStarRunMatchesPreRefactorBaseline)
{
    // ddcsim --workload cmstar_a --pes 4 --refs 2000 --seed 7 --check
    SystemConfig config;
    auto trace = makeCmStarTrace(cmStarApplicationA(), 4, 2000, 7);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 3358u);
    EXPECT_EQ(result.total_refs, 8000u);
    EXPECT_EQ(result.bus_transactions, 2792u);
    EXPECT_NEAR(result.metric("miss_ratio"), 0.333, 1e-9);

    const auto &counters = result.counters;
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
    // handle path executeTraceRun uses for miss_ratio.
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
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 568u);
    EXPECT_EQ(result.total_refs, 4032u);
    EXPECT_EQ(result.bus_transactions, 456u);
    EXPECT_NEAR(result.metric("miss_ratio"), 456.0 / 4032.0, 1e-9);
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
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 64987u);
    EXPECT_EQ(result.engine.skipped_cycles, 0u);
    EXPECT_EQ(result.bus_transactions, 64974u);
    EXPECT_EQ(result.counters.report(), R"(bus.busy_cycles = 64974
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
    // The run result's counters gain the per-bus busK.busy_cycles
    // lines; the machine's own merged set is the pinned report.
    std::unique_ptr<Multiprocessor> machine;
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true},
        &machine);

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 4108u);
    EXPECT_EQ(result.engine.skipped_cycles, 64u);
    EXPECT_EQ(result.bus_transactions, 4105u);
    EXPECT_EQ(machine->counters().report(), R"(bus.busy_cycles = 4105
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

/**
 * The cases below were captured from the build immediately before
 * snoops marked a pending access stale only when they moved its own
 * line, and before the reaction memo tables moved from every cache
 * into the machine's one Protocol.  Each pins the cycle count, the
 * status, the bus operations and the full counter report.
 */

TEST(Golden, RwbBlocksAndWaysWithStreaksMatchesBaseline)
{
    // RWB with k = 3 on 4-word blocks in 2-way sets: write-allocate
    // Fill phases for absent and Invalid blocks, snoops that move the
    // other way of the reserved line's set, and write streaks that
    // reach F2 before a line goes Local.  The 64-word footprint fits
    // the cache, so nothing is evicted.
    SystemConfig config;
    config.num_pes = 8;
    config.protocol = ProtocolKind::Rwb;
    config.rwb_writes_to_local = 3;
    config.cache_lines = 16;
    config.block_words = 4;
    config.ways = 2;
    config.memory_latency = 2;
    auto trace = makeUniformRandomTrace(8, 1000, 64, 0.3, 0.05, 3);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 9023u);
    EXPECT_EQ(result.engine.skipped_cycles, 1271u);
    EXPECT_EQ(result.bus_transactions, 9010u);
    EXPECT_EQ(result.counters.report(), R"(bus.busy_cycles = 9010
bus.idle_cycles = 13
bus.invalidate = 17
bus.kill = 16
bus.read = 128
bus.rmw = 397
bus.rmw_fail = 389
bus.rmw_success = 8
bus.supply_write = 16
bus.transfer_cycles = 6150
bus.write = 2318
cache.broadcast_fill = 16
cache.fill = 41
cache.invalidated = 119
cache.read_hit.Shared = 5181
cache.read_miss.Shared = 103
cache.refs = 8000
cache.snarf = 16053
cache.supply = 16
cache.ts.Shared = 397
cache.write_miss.Shared = 2319
memory.block_read = 128
memory.block_write = 16
memory.read = 397
memory.write = 2327
pe.stall_cycles = 62764
)");
}

TEST(Golden, RwbCmStarEvictionsWithWritebacksMatchesBaseline)
{
    // ddcsim --workload cmstar_a --pes 8 --refs 2000 --seed 7
    //        --protocol RWB --lines 16 --block 4 --ways 2 --check
    // Local data written to Local and then evicted: Writeback phases
    // whose reserved line holds the dirty victim, next to shared
    // blocks that other caches' snoops move.
    SystemConfig config;
    config.num_pes = 8;
    config.protocol = ProtocolKind::Rwb;
    config.cache_lines = 16;
    config.block_words = 4;
    config.ways = 2;
    auto trace = makeCmStarTrace(cmStarApplicationA(), 8, 2000, 7);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 33616u);
    EXPECT_EQ(result.engine.skipped_cycles, 11705u);
    EXPECT_EQ(result.bus_transactions, 33615u);
    EXPECT_EQ(result.counters.report(), R"(bus.busy_cycles = 33615
bus.idle_cycles = 1
bus.invalidate = 278
bus.read = 7752
bus.transfer_cycles = 24078
bus.write = 1507
cache.fill = 816
cache.read_hit.Code = 5500
cache.read_hit.Local = 1947
cache.read_hit.Shared = 6
cache.read_miss.Code = 4724
cache.read_miss.Local = 1639
cache.read_miss.Shared = 573
cache.refs = 16000
cache.snarf = 11
cache.write_hit.Local = 101
cache.write_miss.Local = 1280
cache.write_miss.Shared = 230
cache.writeback = 275
memory.block_read = 7752
memory.block_write = 275
memory.write = 1510
pe.stall_cycles = 252017
)");
}

TEST(Golden, WriteOnceMigratoryInFourWaySetsMatchesBaseline)
{
    // Goodman's write-once on a 24-word migratory record through
    // 16-line, 4-way caches: LRU victims in every set while each
    // turn's writes invalidate the previous owner's copy.
    SystemConfig config;
    config.num_pes = 8;
    config.protocol = ProtocolKind::WriteOnce;
    config.cache_lines = 16;
    config.ways = 4;
    auto trace = makeMigratoryTrace(8, 24, 3);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    EXPECT_EQ(result.status, RunStatus::Finished);
    EXPECT_TRUE(result.consistent);
    EXPECT_EQ(result.cycles, 1153u);
    EXPECT_EQ(result.engine.skipped_cycles, 0u);
    EXPECT_EQ(result.bus_transactions, 1152u);
    EXPECT_EQ(result.counters.report(), R"(bus.busy_cycles = 1152
bus.idle_cycles = 1
bus.read = 576
bus.write = 576
cache.invalidated = 1008
cache.read_miss.Shared = 576
cache.refs = 1152
cache.write_miss.Shared = 576
memory.read = 576
memory.write = 576
pe.stall_cycles = 8044
)");
}

TEST(Golden, DirectoryClusteredRbMatchesBaseline)
{
    // Section 8's clustered sharing (80% cluster-local, 30% writes) on
    // 8 clusters of 4 PEs and 2 homes: every broadcast on a cluster
    // bus moves several L1 lines, few of them any cache's pending line.
    hier::HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 4;
    config.global = hier::GlobalKind::Directory;
    config.home_nodes = 2;
    config.record_log = true;

    hier::HierSystem system(config);
    system.loadTrace(makeClusteredTrace(8, 4, 500, 0.8, 0.3, 5));
    Cycle cycles = system.run();

    EXPECT_TRUE(system.allDone());
    EXPECT_FALSE(system.timedOut());
    EXPECT_EQ(cycles, 2016u);
    EXPECT_EQ(system.skippedCycles(), 0u);
    EXPECT_EQ(system.globalBusTransactions(), 3262u);
    EXPECT_EQ(system.clusterBusTransactions(), 15420u);
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
    EXPECT_EQ(system.counters().report(), R"(bus.busy_cycles = 18682
bus.idle_cycles = 1478
bus.kill = 2893
bus.nack = 5434
bus.nack.BusRead = 3467
bus.nack.BusWrite = 1967
bus.read = 5626
bus.supply_write = 2893
bus.write = 7622
cache.broadcast_fill = 104
cache.invalidated = 9116
cache.read_hit.Shared = 5475
cache.read_miss.Shared = 5764
cache.refs = 16000
cache.snarf = 4382
cache.supply = 2802
cache.write_hit.Shared = 362
cache.write_miss.Shared = 4399
cache.writeback = 341
dir.msg.ack = 2013
dir.msg.fwd = 612
dir.msg.inval = 2013
dir.msg.request = 3262
dir.msg.update = 3097
hier.absorbed.read = 4019
hier.absorbed.write = 3686
hier.downward_broadcast = 7771
hier.dropped_read_completion = 2
hier.forward.BusRead = 1653
hier.forward.BusWrite = 1056
hier.forward_cancelled = 12
hier.forward_resolved_locally = 47
hier.global_invalidation = 2013
hier.pull = 8
hier.supply = 612
memory.read = 1607
memory.write = 1655
pe.stall_cycles = 45316
)");
}

TEST(Golden, RwbMachinesWithDifferentKKeepTheirOwnReactions)
{
    // A k = 1 machine runs to completion first, then a k = 2 machine:
    // RWB's reaction to a write on a Readable line depends on k, so a
    // reaction table shared between Protocol instances (static, or
    // keyed by type) would hand the second machine the first one's.
    auto run = [](int k) {
        SystemConfig config;
        config.protocol = ProtocolKind::Rwb;
        config.rwb_writes_to_local = k;
        return exp::executeTraceRun({.config = config,
                                     .trace = makeMigratoryTrace(4, 8, 6),
                                     .check_consistency = true});
    };

    auto first = run(1);
    EXPECT_EQ(first.status, RunStatus::Finished);
    EXPECT_TRUE(first.consistent);
    EXPECT_EQ(first.cycles, 331u);
    EXPECT_EQ(first.bus_transactions, 289u);
    EXPECT_EQ(first.counters.report(), R"(bus.busy_cycles = 289
bus.idle_cycles = 42
bus.invalidate = 185
bus.kill = 72
bus.read = 32
bus.supply_write = 72
bus.write = 72
cache.broadcast_fill = 145
cache.invalidated = 345
cache.read_hit.Shared = 15
cache.read_miss.Shared = 177
cache.refs = 384
cache.snarf = 216
cache.supply = 72
cache.write_hit.Shared = 7
cache.write_miss.Shared = 185
memory.read = 32
memory.write = 257
pe.stall_cycles = 911
)");

    auto second = run(2);
    EXPECT_EQ(second.status, RunStatus::Finished);
    EXPECT_TRUE(second.consistent);
    EXPECT_EQ(second.cycles, 225u);
    EXPECT_EQ(second.bus_transactions, 224u);
    EXPECT_EQ(second.counters.report(), R"(bus.busy_cycles = 224
bus.idle_cycles = 1
bus.read = 32
bus.write = 192
cache.read_hit.Shared = 160
cache.read_miss.Shared = 32
cache.refs = 384
cache.snarf = 576
cache.write_miss.Shared = 192
memory.read = 32
memory.write = 192
pe.stall_cycles = 510
)");
}

TEST(Golden, LockProgramsMatchBaseline)
{
    // Program-driven machines: 16 RB PEs spinning on one TS or TTS
    // lock (Section 6), at the paper's unified cycle and with 16
    // cycles of memory latency, where stalled PEs sit out most of
    // the run.  Captured from the build before program-driven PEs
    // left their shard's runnable list while stalled.
    struct Case
    {
        sync::LockKind lock;
        std::size_t latency;
        Cycle cycles;
        Cycle skipped;
        const char *report;
    };
    const Case cases[] = {
        {sync::LockKind::TestAndSet, 0, 7546, 0, R"(bus.busy_cycles = 7298
bus.idle_cycles = 248
bus.kill = 381
bus.read = 128
bus.rmw = 6534
bus.rmw_fail = 6406
bus.rmw_success = 128
bus.supply_write = 381
bus.write = 636
cache.invalidated = 3244
cache.read_hit.Shared = 384
cache.read_miss.Shared = 128
cache.refs = 7686
cache.snarf = 2849
cache.supply = 381
cache.ts.Shared = 6534
cache.write_hit.Shared = 385
cache.write_miss.Shared = 255
memory.read = 6662
memory.write = 764
pe.instructions = 16236
pe.stall_cycles = 77680
)"},
        {sync::LockKind::TestAndSet, 16, 93581, 75652, R"(bus.busy_cycles = 93500
bus.idle_cycles = 81
bus.kill = 353
bus.read = 114
bus.rmw = 4792
bus.rmw_fail = 4664
bus.rmw_success = 128
bus.supply_write = 353
bus.transfer_cycles = 88000
bus.write = 594
cache.flush = 7
cache.invalidated = 2810
cache.read_hit.Shared = 398
cache.read_miss.Shared = 114
cache.refs = 5944
cache.snarf = 2457
cache.supply = 353
cache.ts.Shared = 4792
cache.write_hit.Shared = 406
cache.write_miss.Shared = 234
memory.read = 4906
memory.write = 722
pe.instructions = 12752
pe.stall_cycles = 1242045
)"},
        {sync::LockKind::TestAndTestAndSet, 0, 5662, 0, R"(bus.busy_cycles = 2835
bus.idle_cycles = 2827
bus.kill = 381
bus.read = 271
bus.rmw = 1928
bus.rmw_fail = 1800
bus.rmw_success = 128
bus.supply_write = 381
bus.write = 636
cache.broadcast_fill = 1673
cache.invalidated = 5625
cache.read_hit.Shared = 26862
cache.read_miss.Shared = 1944
cache.refs = 31374
cache.snarf = 5229
cache.supply = 381
cache.ts.Shared = 1928
cache.write_hit.Shared = 385
cache.write_miss.Shared = 255
memory.read = 2199
memory.write = 764
pe.instructions = 63612
pe.stall_cycles = 22776
)"},
        {sync::LockKind::TestAndTestAndSet, 16, 26067, 6732, R"(bus.busy_cycles = 25942
bus.idle_cycles = 125
bus.kill = 255
bus.read = 145
bus.rmw = 983
bus.rmw_fail = 855
bus.rmw_success = 128
bus.supply_write = 255
bus.transfer_cycles = 24416
bus.write = 398
cache.broadcast_fill = 742
cache.flush = 7
cache.invalidated = 3525
cache.read_hit.Shared = 42009
cache.read_miss.Shared = 887
cache.refs = 44519
cache.snarf = 3269
cache.supply = 255
cache.ts.Shared = 983
cache.write_hit.Shared = 504
cache.write_miss.Shared = 136
memory.read = 1128
memory.write = 526
pe.instructions = 89902
pe.stall_cycles = 181576
)"},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << toString(c.lock) << " latency " << c.latency);
        sync::LockExperimentConfig config;
        config.num_pes = 16;
        config.lock = c.lock;
        config.protocol = ProtocolKind::Rb;
        config.memory_latency = c.latency;
        std::unique_ptr<System> system;
        auto result = sync::runLockExperiment(config, &system);

        EXPECT_TRUE(result.completed);
        EXPECT_EQ(result.counter_value, result.expected_counter);
        EXPECT_EQ(result.cycles, c.cycles);
        EXPECT_EQ(result.skipped_cycles, c.skipped);
        auto counters = system->counters();
        EXPECT_EQ(counters.report(), c.report);
        // Every PE's own stall count is exact after run().
        std::uint64_t stalls = 0;
        for (PeId pe = 0; pe < config.num_pes; pe++)
            stalls += system->processor(pe).stallCycles();
        EXPECT_EQ(stalls, counters.get("pe.stall_cycles"));
    }
}

} // namespace
} // namespace ddc
