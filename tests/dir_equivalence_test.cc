/**
 * @file
 * Snooping-bus vs directory-fabric equivalence suite for the
 * hierarchical machine's global interconnect.
 *
 * The directory contract (DESIGN.md) says that with one home node the
 * fabric is cycle-for-cycle, counter-for-counter identical to the
 * snooping global bus: same requester collection, same arbiter
 * stream, same memory/lock semantics, same bus.* counter family —
 * deliveries reach only recorded sharers, which is unobservable
 * because a cluster without an entry treats a snoop as a no-op.  So
 * every run below must agree on the final cycle count, the run
 * status, the execution log, and the merged counter report, with the
 * directory's own dir.* message counters the one permitted addition
 * (stripped before comparison).  On top of that, directory-mode runs
 * must stay serially consistent with many homes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "hier/hier_system.hh"
#include "sync/programs.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace hier {
namespace {

/** Everything observable from one run, for byte-wise comparison. */
struct Observed
{
    Cycle cycles = 0;
    RunStatus status = RunStatus::Finished;
    std::string counters;
    std::vector<LogEntry> log;
    std::uint64_t global_txns = 0;
};

/**
 * Drop the dir.* lines from a counter report: the directory's
 * point-to-point message counters have no snooping-bus analogue and
 * are the one permitted difference between the two modes.
 */
std::string
stripDirCounters(const std::string &report)
{
    std::istringstream in(report);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("dir.", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

void
expectIdentical(const Observed &snoop, const Observed &directory)
{
    EXPECT_EQ(snoop.cycles, directory.cycles);
    EXPECT_EQ(snoop.status, directory.status);
    EXPECT_EQ(snoop.counters, directory.counters);
    EXPECT_EQ(snoop.global_txns, directory.global_txns);
    ASSERT_EQ(snoop.log.size(), directory.log.size());
    for (std::size_t i = 0; i < snoop.log.size(); i++) {
        const LogEntry &a = snoop.log[i];
        const LogEntry &b = directory.log[i];
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
observeTrace(HierConfig config, const Trace &trace)
{
    config.record_log = true;
    HierSystem system(config);
    system.loadTrace(trace);
    Observed seen;
    seen.cycles = system.run();
    seen.status = system.runStatus();
    seen.counters = stripDirCounters(system.counters().report());
    seen.log = system.log().all();
    seen.global_txns = system.globalBusTransactions();
    if (config.global == GlobalKind::Directory) {
        // Non-vacuity: the directory path actually ran.
        const auto *fabric = system.directoryFabric();
        EXPECT_NE(fabric, nullptr) << "directory fabric not built";
        if (fabric != nullptr) {
            EXPECT_EQ(fabric->numHomes(), config.home_nodes);
            EXPECT_GT(fabric->directoryBlocks(), 0u);
        }
    } else {
        EXPECT_EQ(system.directoryFabric(), nullptr);
    }
    return seen;
}

/** Run @p trace in both global modes (one home) and compare. */
void
checkTrace(HierConfig config, const Trace &trace)
{
    config.global = GlobalKind::Snoop;
    config.home_nodes = 1;
    Observed snoop = observeTrace(config, trace);
    config.global = GlobalKind::Directory;
    Observed directory = observeTrace(config, trace);
    expectIdentical(snoop, directory);
    // Non-vacuous: cross-cluster traffic actually happened.
    EXPECT_GT(snoop.global_txns, 0u);
}

TEST(DirEquivalence, RandomTracesAcrossProtocols)
{
    auto trace = makeUniformRandomTrace(8, 1500, 64, 0.3, 0.05, 11);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        HierConfig config;
        config.num_clusters = 4;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        checkTrace(config, trace);
    }
}

TEST(DirEquivalence, OwnershipMigrationExercisesTheKillPath)
{
    // Producer/consumer ping-pongs ownership between clusters, so the
    // owner-forward (kill/supply) path runs constantly; the directory
    // owner must name the same supplier the snooping scan finds.
    auto trace = makeProducerConsumerTrace(8, 32, 20, 2);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        HierConfig config;
        config.num_clusters = 4;
        config.pes_per_cluster = 2;
        config.cache_lines = 128;
        config.protocol = protocol;
        checkTrace(config, trace);
    }
}

TEST(DirEquivalence, RandomArbiterKeepsRngStream)
{
    // Home 0 arbitrates with seed arbiter_seed + 0, so the one-home
    // fabric must draw the exact RNG stream of the snooping bus.
    auto trace = makeHotSpotTrace(8, 400, 8);
    HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.arbiter = ArbiterKind::Random;
    config.arbiter_seed = 99;
    checkTrace(config, trace);
}

TEST(DirEquivalence, QuiescentSkipIsUnobservableInDirectoryMode)
{
    // The fabric's nextEventCycle/skipCycles pair must make skipping
    // invisible, idle counters included, exactly like the bus's.
    auto trace = makeUniformRandomTrace(8, 800, 64, 0.3, 0.05, 17);
    HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.global = GlobalKind::Directory;
    config.home_nodes = 3;

    config.skip_quiescent = true;
    Observed skipping = observeTrace(config, trace);
    config.skip_quiescent = false;
    Observed ticking = observeTrace(config, trace);
    expectIdentical(skipping, ticking);
}

TEST(DirEquivalence, Pow2HomeRoutingAndQuiescentSkipMatchTicking)
{
    // A power-of-two home count takes the mask routing fast path, and
    // the fabric reports kNever after a routing pass that posted
    // nothing (the quiescent-routing contract) — both must be
    // unobservable: a skipping pow2-homes run must match the ticking
    // run counter-for-counter, and both must match the snooping bus
    // at H=1 via checkTrace on the same trace.
    auto trace = makeProducerConsumerTrace(8, 48, 25, 3);
    HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    checkTrace(config, trace);

    config.global = GlobalKind::Directory;
    config.home_nodes = 4; // pow2: homeOf is addr & 3
    config.skip_quiescent = true;
    Observed skipping = observeTrace(config, trace);
    config.skip_quiescent = false;
    Observed ticking = observeTrace(config, trace);
    expectIdentical(skipping, ticking);
}

TEST(DirEquivalence, LockProgramsMatchAcrossModes)
{
    // Spin locks through real PE programs: the two-phase RMW NACK and
    // retry discipline must serialize identically in both modes.
    const Addr lock = sharedBase();
    const Addr counter = sharedBase() + 1;
    const int acquisitions = 4;
    const int increments = 3;

    for (auto kind : {sync::LockKind::TestAndSet,
                      sync::LockKind::TestAndTestAndSet}) {
        Observed seen[2];
        for (int mode = 0; mode < 2; mode++) {
            HierConfig config;
            config.num_clusters = 4;
            config.pes_per_cluster = 2;
            config.cache_lines = 64;
            config.record_log = true;
            config.global = mode == 0 ? GlobalKind::Snoop
                                      : GlobalKind::Directory;
            HierSystem system(config);
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                sync::LockProgramParams params;
                params.kind = kind;
                params.lock_addr = lock;
                params.counter_addr = counter;
                params.acquisitions = acquisitions;
                params.cs_increments = increments;
                system.setProgram(pe, sync::makeLockProgram(params));
            }
            seen[mode].cycles = system.run(2'000'000);
            seen[mode].status = system.runStatus();
            seen[mode].counters =
                stripDirCounters(system.counters().report());
            seen[mode].log = system.log().all();
            seen[mode].global_txns = system.globalBusTransactions();
            // Mutual exclusion held: every increment landed.  (The
            // machine's latest value — the last owner may not have
            // written home memory back.)
            EXPECT_EQ(system.coherentValue(counter),
                      static_cast<Word>(system.numPes() * acquisitions *
                                        increments));
            EXPECT_TRUE(
                checkSerialConsistency(system.log()).consistent);
        }
        expectIdentical(seen[0], seen[1]);
    }
}

TEST(DirEquivalence, ManyHomesStaySeriallyConsistent)
{
    // More homes than divide the address range evenly; grants happen
    // concurrently across homes, which must not break coherence.
    const std::size_t addr_range = 48;
    auto trace = makeUniformRandomTrace(16, 2500, addr_range, 0.35,
                                        0.05, 43);
    HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.record_log = true;
    config.global = GlobalKind::Directory;
    config.home_nodes = 5;

    HierSystem system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone()) << "directory machine deadlocked";

    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;

    std::vector<Addr> addrs;
    for (Addr a = 0; a < addr_range; a++)
        addrs.push_back(a);
    auto invariants = checkHierarchyInvariants(system, addrs);
    EXPECT_TRUE(invariants.ok) << invariants.first_error;

    // The memory bound: directory state exists only for blocks some
    // cluster actually touched.
    ASSERT_NE(system.directoryFabric(), nullptr);
    EXPECT_LE(system.directoryFabric()->directoryBlocks(), addr_range);
    EXPECT_GT(system.directoryFabric()->messageVisits(), 0u);
}

} // namespace
} // namespace hier
} // namespace ddc
