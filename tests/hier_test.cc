/**
 * @file
 * Tests of the hierarchical machine (Section 8's extension): basic
 * cross-cluster coherence, traffic filtering, ownership migration,
 * synchronization across clusters, and randomized consistency.
 */

#include <gtest/gtest.h>

#include "core/rb.hh"
#include "hier/hier_system.hh"
#include "sim/memory.hh"
#include "sync/programs.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace hier {
namespace {

HierConfig
smallConfig(int clusters = 2, int pes = 2)
{
    HierConfig config;
    config.num_clusters = clusters;
    config.pes_per_cluster = pes;
    config.cache_lines = 32;
    config.record_log = true;
    return config;
}

/** Run a trace to completion; asserts it finishes. */
void
runTrace(HierSystem &system, const Trace &trace)
{
    system.loadTrace(trace);
    system.run(1'000'000);
    ASSERT_TRUE(system.allDone()) << "hierarchical machine deadlocked";
}

TEST(Hier, WritePropagatesAcrossClusters)
{
    HierSystem system(smallConfig());
    Trace trace(4);
    trace.append(0, {CpuOp::Write, 10, 42, DataClass::Shared}); // cluster 0
    for (int i = 0; i < 20; i++)
        trace.append(3, {CpuOp::Read, 10, 0, DataClass::Shared}); // cl. 1
    runTrace(system, trace);

    EXPECT_EQ(system.coherentValue(10), 42u);
    // The reader's final copy agrees.
    if (system.lineState(3, 10).present()) {
        EXPECT_EQ(system.cacheValue(3, 10), 42u);
    }
    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;
}

TEST(Hier, ClusterOwnershipAbsorbsLocalWrites)
{
    HierSystem system(smallConfig());
    Trace trace(4);
    // PE0 writes the same word many times: first write acquires global
    // ownership, the rest are silent (L1 Local) or cluster-internal.
    for (int i = 0; i < 50; i++)
        trace.append(0, {CpuOp::Write, 20, static_cast<Word>(i + 1),
                         DataClass::Shared});
    runTrace(system, trace);

    EXPECT_EQ(system.coherentValue(20), 50u);
    EXPECT_TRUE(system.clusterCache(0).owns(20));
    // Exactly one global transaction (the ownership acquisition).
    EXPECT_EQ(system.globalCounters().get("bus.write"), 1u);
}

TEST(Hier, IntraClusterSharingStaysOffTheGlobalBus)
{
    HierSystem system(smallConfig(2, 2));
    Trace trace(4);
    // PEs 0 and 1 (same cluster) ping-pong a word.
    trace.append(0, {CpuOp::Write, 30, 1, DataClass::Shared});
    for (int i = 0; i < 20; i++) {
        trace.append(1, {CpuOp::Read, 30, 0, DataClass::Shared});
        trace.append(0, {CpuOp::Read, 30, 0, DataClass::Shared});
    }
    runTrace(system, trace);

    // One global acquisition; all the reads were served inside the
    // cluster (cluster-bus reads + L1 hits).
    EXPECT_LE(system.globalBusTransactions(), 3u);
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, OwnershipMigratesBetweenClusters)
{
    HierSystem system(smallConfig());
    Trace trace(4);
    trace.append(0, {CpuOp::Write, 40, 1, DataClass::Shared}); // cluster 0
    trace.append(2, {CpuOp::Write, 40, 2, DataClass::Shared}); // cluster 1
    trace.append(0, {CpuOp::Read, 40, 0, DataClass::Shared});
    runTrace(system, trace);

    EXPECT_EQ(system.coherentValue(40), 2u);
    EXPECT_FALSE(system.clusterCache(0).owns(40));
    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;
}

TEST(Hier, DirtyL1SuppliesRemoteCluster)
{
    HierSystem system(smallConfig());
    Trace trace(4);
    // Two writes leave PE0's L1 dirty Local (second write is silent).
    trace.append(0, {CpuOp::Write, 50, 1, DataClass::Shared});
    trace.append(0, {CpuOp::Write, 50, 2, DataClass::Shared});
    // A PE in the other cluster reads: the kill/supply chain must
    // source the L1's value 2, not the cluster cache's stale 1.
    trace.append(2, {CpuOp::Read, 50, 0, DataClass::Shared});
    runTrace(system, trace);

    EXPECT_EQ(system.memoryValue(50), 2u);
    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;
}

TEST(Hier, TestAndSetSerializesGlobally)
{
    HierSystem system(smallConfig());
    Trace trace(4);
    // All four PEs (both clusters) TS the same lock once.
    for (PeId pe = 0; pe < 4; pe++)
        trace.append(pe, {CpuOp::TestAndSet, 60, 1, DataClass::Shared});
    runTrace(system, trace);

    // Exactly one TS succeeded.
    std::size_t successes = 0;
    for (const auto &entry : system.log().all()) {
        if (entry.op == CpuOp::TestAndSet && entry.ts_success)
            successes++;
    }
    EXPECT_EQ(successes, 1u);
    EXPECT_EQ(system.memoryValue(60), 1u);
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, CrossClusterSpinlockProgramsKeepMutualExclusion)
{
    HierConfig config = smallConfig(2, 2);
    HierSystem system(config);
    const Addr lock = sharedBase();
    const Addr counter = sharedBase() + 1;
    const int acquisitions = 5;
    const int increments = 3;
    for (PeId pe = 0; pe < 4; pe++) {
        sync::LockProgramParams params;
        params.kind = sync::LockKind::TestAndTestAndSet;
        params.lock_addr = lock;
        params.counter_addr = counter;
        params.acquisitions = acquisitions;
        params.cs_increments = increments;
        system.setProgram(pe, sync::makeLockProgram(params));
    }
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone()) << "spinlock deadlocked across clusters";
    EXPECT_EQ(system.coherentValue(counter),
              static_cast<Word>(4 * acquisitions * increments));
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, TwoPhaseLockAcrossClusters)
{
    HierSystem system(smallConfig());
    // PE0 (cluster 0) read-locks a word; PE2 (cluster 1) tries to
    // write it, which must wait for the unlock.
    ProgramBuilder b0;
    system.setProgram(0, b0.loadImm(1, 70)
                             .loadImm(2, 5)
                             .loadLocked(3, 1)
                             .nop().nop().nop().nop().nop().nop()
                             .nop().nop().nop().nop().nop().nop()
                             .storeUnlock(1, 2) // writes 5
                             .halt()
                             .build());
    ProgramBuilder b1;
    system.setProgram(2, b1.loadImm(1, 70)
                             .loadImm(2, 9)
                             .nop().nop().nop().nop()
                             .store(1, 2) // must land after the unlock
                             .halt()
                             .build());
    system.setProgram(1, Program{});
    system.setProgram(3, Program{});
    system.run(100'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.coherentValue(70), 9u);
}

TEST(Hier, IntraClusterLockQueueCannotDeadlock)
{
    // Regression for forward-queue rotation: PE0 takes a two-phase
    // lock; PE1 (same cluster) blocks on its own ReadLock, which sits
    // at the front of the cluster's forward queue NACKing; PE0's
    // unlock is queued behind it.  Without rotation the unlock never
    // reaches the global bus and the machine livelocks.
    HierSystem system(smallConfig(2, 2));
    ProgramBuilder b0;
    system.setProgram(0, b0.loadImm(1, 80)
                             .loadImm(2, 7)
                             .loadLocked(3, 1)
                             .nop().nop().nop().nop().nop().nop()
                             .storeUnlock(1, 2)
                             .halt()
                             .build());
    ProgramBuilder b1;
    system.setProgram(1, b1.loadImm(1, 80)
                             .loadImm(2, 9)
                             .nop().nop()
                             .loadLocked(3, 1) // blocks until PE0 unlocks
                             .storeUnlock(1, 2)
                             .halt()
                             .build());
    system.setProgram(2, Program{});
    system.setProgram(3, Program{});
    system.run(100'000);
    ASSERT_TRUE(system.allDone()) << "intra-cluster lock deadlock";
    EXPECT_EQ(system.coherentValue(80), 9u);
    EXPECT_GT(system.clusterCounters(0).get("hier.forward_rotate"), 0u);
}

TEST(Hier, TsSpinlockProgramsAcrossClusters)
{
    // Plain TS (not TTS): every spin is a global RMW, the worst case
    // for the hierarchy; mutual exclusion must still hold.
    HierSystem system(smallConfig(2, 2));
    const Addr lock = sharedBase();
    const Addr counter = sharedBase() + 1;
    for (PeId pe = 0; pe < 4; pe++) {
        sync::LockProgramParams params;
        params.kind = sync::LockKind::TestAndSet;
        params.lock_addr = lock;
        params.counter_addr = counter;
        params.acquisitions = 4;
        params.cs_increments = 2;
        system.setProgram(pe, sync::makeLockProgram(params));
    }
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone()) << "TS spinlock deadlocked";
    EXPECT_EQ(system.coherentValue(counter), static_cast<Word>(4 * 4 * 2));
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, BarrierProgramsAcrossClusters)
{
    HierSystem system(smallConfig(2, 2));
    const Addr lock = sharedBase() + 16;
    const Addr count = sharedBase() + 17;
    const Addr sense = sharedBase() + 18;
    for (PeId pe = 0; pe < 4; pe++) {
        system.setProgram(pe, sync::makeBarrierProgram(lock, count, sense,
                                                       4, 4));
    }
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone()) << "barrier deadlocked across clusters";
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, DeterministicAcrossRuns)
{
    auto trace = makeUniformRandomTrace(8, 300, 16, 0.35, 0.1, 99);
    std::vector<Cycle> cycles;
    for (int run = 0; run < 2; run++) {
        HierSystem system(smallConfig(4, 2));
        system.loadTrace(trace);
        system.run(2'000'000);
        ASSERT_TRUE(system.allDone());
        cycles.push_back(system.now());
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

class HierProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>>
{
};

TEST_P(HierProperty, RandomTracesAreSeriallyConsistent)
{
    auto [clusters, pes, seed] = GetParam();
    HierConfig config;
    config.num_clusters = clusters;
    config.pes_per_cluster = pes;
    config.cache_lines = 16;
    config.record_log = true;

    HierSystem system(config);
    auto trace = makeUniformRandomTrace(clusters * pes, 400, 12, 0.35,
                                        0.15, seed);
    system.loadTrace(trace);
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone()) << "deadlock/livelock";

    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierProperty,
    ::testing::Values(std::make_tuple(2, 2, 7001u),
                      std::make_tuple(2, 4, 7002u),
                      std::make_tuple(4, 2, 7003u),
                      std::make_tuple(4, 4, 7004u),
                      std::make_tuple(3, 3, 7005u),
                      std::make_tuple(8, 2, 7006u)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Hier, WorkloadsRunConsistently)
{
    struct Case
    {
        const char *name;
        Trace trace;
    };
    std::vector<Case> cases;
    cases.push_back({"array_init", makeArrayInitTrace(8, 64)});
    cases.push_back({"producer_consumer",
                     makeProducerConsumerTrace(8, 8, 4, 2)});
    cases.push_back({"migratory", makeMigratoryTrace(8, 4, 6)});
    cases.push_back({"hot_spot", makeHotSpotTrace(8, 6, 4)});

    for (auto &test_case : cases) {
        HierConfig config = smallConfig(4, 2);
        HierSystem system(config);
        system.loadTrace(test_case.trace);
        system.run(2'000'000);
        ASSERT_TRUE(system.allDone()) << test_case.name;
        auto report = checkSerialConsistency(system.log());
        EXPECT_TRUE(report.consistent)
            << test_case.name << ": " << report.first_error;
    }
}

TEST(Hier, InvariantsHoldAfterRandomRuns)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        HierSystem system(smallConfig(3, 2));
        auto trace = makeUniformRandomTrace(6, 500, 16, 0.4, 0.1, seed);
        system.loadTrace(trace);
        system.run(2'000'000);
        ASSERT_TRUE(system.allDone());

        std::vector<Addr> addrs;
        for (Addr a = 0; a < 16; a++)
            addrs.push_back(sharedBase() + a);
        auto report = checkHierarchyInvariants(system, addrs);
        EXPECT_TRUE(report.ok)
            << "seed " << seed << ": " << report.first_error;
    }
}

TEST(Hier, InvariantsHoldAfterClusteredWorkload)
{
    HierSystem system(smallConfig(4, 2));
    auto trace = makeClusteredTrace(4, 2, 1000, 0.8, 0.3, 5);
    system.loadTrace(trace);
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone());

    std::vector<Addr> addrs;
    for (int c = 0; c < 4; c++) {
        for (Addr a = 0; a < 24; a++)
            addrs.push_back(sharedBase() + static_cast<Addr>(c) * 1024 + a);
    }
    for (Addr a = 0; a < 24; a++)
        addrs.push_back(sharedBase() + (Addr{1} << 20) + a);
    auto report = checkHierarchyInvariants(system, addrs);
    EXPECT_TRUE(report.ok) << report.first_error;
}

TEST(HierRwb, UpdateBroadcastWorksWithinClusters)
{
    HierConfig config = smallConfig(2, 2);
    config.protocol = ProtocolKind::Rwb;
    HierSystem system(config);

    Trace trace(4);
    // PE0 writes once; PE1 (same cluster) holds a copy and must be
    // *updated* (RWB), not invalidated.
    trace.append(1, {CpuOp::Read, 5, 0, DataClass::Shared});
    trace.append(1, {CpuOp::Read, 5, 0, DataClass::Shared});
    for (int i = 0; i < 6; i++)
        trace.append(1, {CpuOp::Read, 5, 0, DataClass::Shared});
    trace.append(0, {CpuOp::Write, 5, 7, DataClass::Shared});
    for (int i = 0; i < 20; i++)
        trace.append(1, {CpuOp::Read, 5, 0, DataClass::Shared});
    system.loadTrace(trace);
    system.run(1'000'000);
    ASSERT_TRUE(system.allDone());

    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
    // PE1's final copy carries the written value.
    if (system.lineState(1, 5).present()) {
        EXPECT_EQ(system.cacheValue(1, 5), 7u);
    }
}

TEST(HierRwb, CrossClusterWriteInvalidatesRemoteCopies)
{
    HierConfig config = smallConfig(2, 2);
    config.protocol = ProtocolKind::Rwb;
    HierSystem system(config);

    Trace trace(4);
    trace.append(2, {CpuOp::Read, 6, 0, DataClass::Shared}); // cluster 1
    trace.append(0, {CpuOp::Write, 6, 9, DataClass::Shared}); // cluster 0
    trace.append(2, {CpuOp::Read, 6, 0, DataClass::Shared});
    system.loadTrace(trace);
    system.run(1'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
    EXPECT_EQ(system.coherentValue(6), 9u);
}

class HierRwbProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>>
{
};

TEST_P(HierRwbProperty, RandomTracesAreSeriallyConsistent)
{
    auto [clusters, pes, seed] = GetParam();
    HierConfig config;
    config.num_clusters = clusters;
    config.pes_per_cluster = pes;
    config.cache_lines = 16;
    config.protocol = ProtocolKind::Rwb;
    config.record_log = true;

    HierSystem system(config);
    auto trace = makeUniformRandomTrace(clusters * pes, 400, 12, 0.35,
                                        0.15, seed);
    system.loadTrace(trace);
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone()) << "deadlock/livelock";

    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;

    std::vector<Addr> addrs;
    for (Addr a = 0; a < 12; a++)
        addrs.push_back(sharedBase() + a);
    auto invariants = checkHierarchyInvariants(system, addrs);
    EXPECT_TRUE(invariants.ok) << invariants.first_error;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierRwbProperty,
    ::testing::Values(std::make_tuple(2, 2, 8001u),
                      std::make_tuple(2, 4, 8002u),
                      std::make_tuple(4, 2, 8003u),
                      std::make_tuple(4, 4, 8004u)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param));
    });

TEST(HierRwb, SpinlocksKeepMutualExclusion)
{
    HierConfig config = smallConfig(2, 2);
    config.protocol = ProtocolKind::Rwb;
    HierSystem system(config);
    for (PeId pe = 0; pe < 4; pe++) {
        sync::LockProgramParams params;
        params.kind = sync::LockKind::TestAndTestAndSet;
        params.lock_addr = sharedBase();
        params.counter_addr = sharedBase() + 1;
        params.acquisitions = 5;
        params.cs_increments = 3;
        system.setProgram(pe, sync::makeLockProgram(params));
    }
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.coherentValue(sharedBase() + 1),
              static_cast<Word>(4 * 5 * 3));
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, RejectsUnsupportedProtocols)
{
    HierConfig config;
    config.protocol = ProtocolKind::WriteOnce;
    EXPECT_DEATH(HierSystem{config}, "RB and RWB");
}

TEST(Hier, InvariantCheckerCatchesCorruption)
{
    HierSystem system(smallConfig(2, 2));
    Trace trace(4);
    trace.append(0, {CpuOp::Write, 90, 5, DataClass::Shared});
    for (int i = 0; i < 10; i++)
        trace.append(2, {CpuOp::Read, 90, 0, DataClass::Shared});
    runTrace(system, trace);

    ASSERT_TRUE(checkHierarchyInvariants(system, {90}).ok);
    // Corrupt global memory: live copies now disagree with it.
    system.pokeMemory(90, 999);
    auto report = checkHierarchyInvariants(system, {90});
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.first_error.find("disagrees"), std::string::npos)
        << report.first_error;
}

TEST(Hier, GlobalTrafficFilteredForClusterLocalData)
{
    // Each PE works on its own shared-region slice (cluster-private in
    // practice): after warm-up, the global bus is quiet.
    HierConfig config = smallConfig(4, 2);
    HierSystem system(config);
    Trace trace(8);
    for (PeId pe = 0; pe < 8; pe++) {
        Addr base = sharedBase() + static_cast<Addr>(pe) * 4;
        for (int i = 0; i < 100; i++) {
            trace.append(pe, {CpuOp::Write, base + (i % 4),
                              static_cast<Word>(i + 1),
                              DataClass::Shared});
            trace.append(pe, {CpuOp::Read, base + (i % 4), 0,
                              DataClass::Shared});
        }
    }
    system.loadTrace(trace);
    system.run(2'000'000);
    ASSERT_TRUE(system.allDone());

    // 8 PEs x 4 words = 32 ownership acquisitions; everything else
    // stays inside the clusters.
    EXPECT_LE(system.globalBusTransactions(), 40u);
    EXPECT_GT(system.clusterBusTransactions(),
              system.globalBusTransactions());
    EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
}

TEST(Hier, FailedTestAndSetOnAReadableWordMakesNoL1Visits)
{
    // Every L1 spins on the word in R (the RB spinner's steady state).
    // A failed TS is a global Read, and its downward broadcast reaches
    // every L1 holding the word -- none of which reacts to a read in
    // R, so the cluster buses' sharer indexes deliver it to nobody.
    HierSystem system(smallConfig(2, 2));
    constexpr Addr kLock = 70;
    system.pokeMemory(kLock, 1);
    Trace reads(4);
    for (PeId pe = 0; pe < 4; pe++)
        reads.append(pe, {CpuOp::Read, kLock, 0, DataClass::Shared});
    runTrace(system, reads);
    for (PeId pe = 0; pe < 4; pe++)
        ASSERT_EQ(system.lineState(pe, kLock).tag, LineTag::Readable);

    auto l1Visits = [&] {
        return system.snoopVisits() - system.globalVisits();
    };
    std::uint64_t visits = l1Visits();
    std::uint64_t downward =
        system.counters().get("hier.downward_broadcast");
    Trace ts(4);
    ts.append(0, {CpuOp::TestAndSet, kLock, 1, DataClass::Shared});
    runTrace(system, ts);

    EXPECT_FALSE(system.log().all().back().ts_success);
    // Both clusters broadcast the Read downward (the issuer's on
    // completion, the other on snooping it) ...
    EXPECT_EQ(system.counters().get("hier.downward_broadcast"),
              downward + 2);
    // ... and not one L1 was visited.
    EXPECT_EQ(l1Visits(), visits);
    for (PeId pe = 0; pe < 4; pe++)
        EXPECT_EQ(system.lineState(pe, kLock).tag, LineTag::Readable);
}

TEST(ClusterCacheUnit, QueuedReadResolvesOnThePollAfterASiblingCompletes)
{
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus global(memory, ArbiterKind::RoundRobin, clock, stats);
    ClusterCache cluster(0, stats);
    cluster.connectGlobal(global);
    Bus cluster_bus(cluster, ArbiterKind::RoundRobin, clock, stats);
    cluster.connectCluster(cluster_bus);
    RbProtocol rb;
    Cache l1a(0, 8, rb, clock, stats);
    Cache l1b(1, 8, rb, clock, stats);
    for (Cache *l1 : {&l1a, &l1b}) {
        l1->connectBus(cluster_bus);
        cluster.addChild(l1);
    }

    // Both L1s miss on word 8 and their reads reach a cluster cache
    // holding nothing: both queue as global forwards.
    constexpr Addr kWord = 8;
    ASSERT_FALSE(l1a.cpuAccess({CpuOp::Read, kWord}).complete);
    ASSERT_FALSE(l1b.cpuAccess({CpuOp::Read, kWord}).complete);
    Word data = 0;
    EXPECT_FALSE(cluster.tryRead(kWord, 0, data));
    EXPECT_FALSE(cluster.tryRead(kWord, 1, data));

    // Polls before any global completion resolve nothing.
    EXPECT_TRUE(cluster.hasRequest());
    EXPECT_TRUE(cluster.hasRequest());
    EXPECT_EQ(stats.get("hier.forward_resolved_locally"), 0u);

    // PE 0's forward completes globally.  Its new entry makes PE 1's
    // queued read cluster-serviceable, and the very next poll serves
    // it without a second global read.
    BusRequest request = cluster.currentRequest();
    EXPECT_EQ(request.op, BusOp::Read);
    EXPECT_EQ(request.addr, kWord);
    cluster.requestComplete({42, false, {}});
    EXPECT_TRUE(l1a.hasCompletion());
    EXPECT_FALSE(l1b.hasCompletion());
    EXPECT_FALSE(cluster.hasRequest());
    EXPECT_EQ(stats.get("hier.forward_resolved_locally"), 1u);
    ASSERT_TRUE(l1b.hasCompletion());
    EXPECT_EQ(l1b.takeCompletion().value, 42u);
}

TEST(ClusterCacheUnit, OneForwardPerPeUntilCancelResolveOrCompletion)
{
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus global(memory, ArbiterKind::RoundRobin, clock, stats);
    ClusterCache cluster(0, stats);
    cluster.connectGlobal(global);
    Bus cluster_bus(cluster, ArbiterKind::RoundRobin, clock, stats);
    cluster.connectCluster(cluster_bus);
    RbProtocol rb;
    Cache l1a(0, 8, rb, clock, stats);
    Cache l1b(1, 8, rb, clock, stats);
    for (Cache *l1 : {&l1a, &l1b}) {
        l1->connectBus(cluster_bus);
        cluster.addChild(l1);
    }
    auto reads = [&] { return stats.get("hier.forward.BusRead"); };
    constexpr Addr kA = 8, kB = 9, kC = 10;
    Word data = 0;

    // Both PEs miss on kA.  A PE's second forward is refused while its
    // first is queued, whatever its op.
    ASSERT_FALSE(l1a.cpuAccess({CpuOp::Read, kA}).complete);
    ASSERT_FALSE(l1b.cpuAccess({CpuOp::Read, kA}).complete);
    EXPECT_FALSE(cluster.tryRead(kA, 0, data));
    EXPECT_FALSE(cluster.tryRead(kA, 0, data));
    Word old = 0;
    bool success = false;
    EXPECT_FALSE(cluster.tryRmw(kA, 0, 1, old, success));
    EXPECT_FALSE(cluster.tryRead(kA, 1, data));
    EXPECT_EQ(reads(), 2u);
    EXPECT_EQ(stats.get("hier.forward.BusRmw"), 0u);

    // Completion: PE 0's forward is served globally, so PE 0 may
    // forward again.
    EXPECT_EQ(cluster.currentRequest().addr, kA);
    cluster.requestComplete({42, false, {}});
    ASSERT_TRUE(l1a.hasCompletion());
    l1a.takeCompletion();
    ASSERT_FALSE(l1a.cpuAccess({CpuOp::Read, kB}).complete);
    EXPECT_FALSE(cluster.tryRead(kB, 0, data));
    EXPECT_EQ(reads(), 3u);

    // Cancel: the cluster bus serves PE 1's kA read from the new
    // entry, dropping its queued forward; PE 1 may forward again.
    EXPECT_TRUE(cluster.tryRead(kA, 1, data));
    EXPECT_EQ(data, 42u);
    EXPECT_EQ(stats.get("hier.forward_cancelled"), 1u);
    l1b.requestComplete({data, false, {}});
    l1b.takeCompletion();
    ASSERT_FALSE(l1b.cpuAccess({CpuOp::Read, kB}).complete);
    EXPECT_FALSE(cluster.tryRead(kB, 1, data));
    EXPECT_EQ(reads(), 4u);

    // Local resolve: PE 0's kB read completes globally, and the next
    // poll serves PE 1's queued kB read from the entry it created;
    // PE 1 may forward again.
    EXPECT_EQ(cluster.currentRequest().addr, kB);
    cluster.requestComplete({7, false, {}});
    EXPECT_FALSE(cluster.hasRequest());
    EXPECT_EQ(stats.get("hier.forward_resolved_locally"), 1u);
    ASSERT_TRUE(l1b.hasCompletion());
    EXPECT_EQ(l1b.takeCompletion().value, 7u);
    ASSERT_FALSE(l1b.cpuAccess({CpuOp::Read, kC}).complete);
    EXPECT_FALSE(cluster.tryRead(kC, 1, data));
    EXPECT_EQ(reads(), 5u);
    EXPECT_TRUE(cluster.hasRequest());
}

} // namespace
} // namespace hier
} // namespace ddc
