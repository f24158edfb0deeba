/**
 * @file
 * Unit tests for the shared bus: arbitration, execution of every
 * transaction kind, snoop broadcast, the kill/supply path, Rmw
 * resolution, and NACKs on locked words.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rb.hh"
#include "core/rwb.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/memory.hh"
#include "sim/shard.hh"

namespace ddc {
namespace {

/** Scriptable bus client recording everything the bus does to it. */
class FakeClient : public BusClient
{
  public:
    explicit FakeClient(PeId pe) : pe(pe) {}

    bool hasRequest() override { return !requests.empty(); }

    BusRequest currentRequest() override { return requests.front(); }

    void
    requestComplete(const BusResult &result) override
    {
        completions.push_back(result);
        requests.pop_front();
    }

    bool
    wouldSupply(Addr addr, Word &value) override
    {
        if (supply_addr && *supply_addr == addr) {
            value = supply_value;
            return true;
        }
        return false;
    }

    void observe(const BusTransaction &txn) override
    {
        observed.push_back(txn);
    }

    void supplied(Addr addr) override { supplied_addrs.push_back(addr); }

    ReactionClass
    reactionClass(Addr addr) const override
    {
        auto it = classes.find(addr);
        return it == classes.end() ? 0 : it->second;
    }

    PeId peId() const override { return pe; }

    void push(BusRequest request) { requests.push_back(request); }

    PeId pe;
    std::deque<BusRequest> requests;
    std::vector<BusResult> completions;
    std::vector<BusTransaction> observed;
    std::vector<Addr> supplied_addrs;
    std::optional<Addr> supply_addr;
    Word supply_value = 0;
    /** Per-block reaction class (the Debug broadcast cross-check). */
    std::map<Addr, ReactionClass> classes;
};

class BusTest : public ::testing::Test
{
  protected:
    BusTest() : memory(stats), bus(memory, ArbiterKind::RoundRobin, clock,
                                   stats)
    {
        for (auto &client : clients)
            bus.attach(&client);
    }

    stats::CounterSet stats;
    Clock clock;
    Memory memory;
    Bus bus;
    FakeClient clients[3] = {FakeClient(0), FakeClient(1), FakeClient(2)};
};

TEST_F(BusTest, IdleCycleWhenNoRequests)
{
    EXPECT_TRUE(bus.idle());
    bus.tick();
    EXPECT_EQ(stats.get("bus.idle_cycles"), 1u);
    EXPECT_EQ(stats.get("bus.busy_cycles"), 0u);
}

TEST_F(BusTest, ReadReturnsMemoryValueAndBroadcasts)
{
    memory.write(10, 77);
    clients[0].push({BusOp::Read, 10, 0});
    bus.tick();

    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_EQ(clients[0].completions[0].data, 77u);
    // Both other clients observed the read with its data.
    for (int i : {1, 2}) {
        ASSERT_EQ(clients[i].observed.size(), 1u);
        EXPECT_EQ(clients[i].observed[0].op, BusOp::Read);
        EXPECT_EQ(clients[i].observed[0].data, 77u);
        EXPECT_EQ(clients[i].observed[0].issuer, 0);
    }
    EXPECT_TRUE(clients[0].observed.empty()); // never your own txn
    EXPECT_EQ(stats.get("bus.read"), 1u);
}

TEST_F(BusTest, WriteUpdatesMemoryAndBroadcasts)
{
    clients[1].push({BusOp::Write, 5, 99});
    bus.tick();
    EXPECT_EQ(memory.peek(5), 99u);
    ASSERT_EQ(clients[0].observed.size(), 1u);
    EXPECT_EQ(clients[0].observed[0].op, BusOp::Write);
    EXPECT_EQ(clients[0].observed[0].data, 99u);
    ASSERT_EQ(clients[1].completions.size(), 1u);
    EXPECT_EQ(clients[1].completions[0].data, 99u);
}

TEST_F(BusTest, InvalidateCarriesDataAndIsSnoopedAsInvalidate)
{
    clients[0].push({BusOp::Invalidate, 3, 11});
    bus.tick();
    EXPECT_EQ(memory.peek(3), 11u);
    ASSERT_EQ(clients[2].observed.size(), 1u);
    EXPECT_EQ(clients[2].observed[0].op, BusOp::Invalidate);
    EXPECT_EQ(stats.get("bus.invalidate"), 1u);
}

TEST_F(BusTest, OneTransactionPerCycle)
{
    clients[0].push({BusOp::Write, 1, 1});
    clients[1].push({BusOp::Write, 2, 2});
    bus.tick();
    EXPECT_EQ(clients[0].completions.size() + clients[1].completions.size(),
              1u);
    bus.tick();
    EXPECT_EQ(clients[0].completions.size() + clients[1].completions.size(),
              2u);
}

TEST_F(BusTest, KillAndSupplyReplacesRead)
{
    // Client 2 owns addr 8 with value 123; client 0 tries to read it.
    clients[2].supply_addr = 8;
    clients[2].supply_value = 123;
    clients[0].push({BusOp::Read, 8, 0});
    bus.tick();

    // The read did not complete; the supply write did.
    EXPECT_TRUE(clients[0].completions.empty());
    EXPECT_TRUE(clients[0].hasRequest());
    EXPECT_EQ(memory.peek(8), 123u);
    ASSERT_EQ(clients[2].supplied_addrs.size(), 1u);
    EXPECT_EQ(clients[2].supplied_addrs[0], 8u);
    // Everyone except the supplier observed the write (incl. client 0).
    ASSERT_EQ(clients[0].observed.size(), 1u);
    EXPECT_EQ(clients[0].observed[0].op, BusOp::Write);
    EXPECT_TRUE(clients[2].observed.empty());
    EXPECT_EQ(stats.get("bus.kill"), 1u);

    // Retry: the owner no longer supplies; memory now serves the read.
    clients[2].supply_addr.reset();
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_EQ(clients[0].completions[0].data, 123u);
}

TEST_F(BusTest, TwoSuppliersIsFatal)
{
    clients[1].supply_addr = 8;
    clients[2].supply_addr = 8;
    clients[0].push({BusOp::Read, 8, 0});
    EXPECT_DEATH(bus.tick(), "ownership");
}

TEST_F(BusTest, RmwSuccessOnZeroWord)
{
    clients[0].push({BusOp::Rmw, 4, 1});
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_TRUE(clients[0].completions[0].rmw_success);
    EXPECT_EQ(clients[0].completions[0].data, 0u);
    EXPECT_EQ(memory.peek(4), 1u);
    // Success is snooped as a write.
    ASSERT_EQ(clients[1].observed.size(), 1u);
    EXPECT_EQ(clients[1].observed[0].op, BusOp::Write);
    EXPECT_EQ(stats.get("bus.rmw_success"), 1u);
}

TEST_F(BusTest, RmwFailureOnNonZeroWord)
{
    memory.write(4, 55);
    clients[0].push({BusOp::Rmw, 4, 1});
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_FALSE(clients[0].completions[0].rmw_success);
    EXPECT_EQ(clients[0].completions[0].data, 55u);
    EXPECT_EQ(memory.peek(4), 55u);
    // Failure is snooped as a read.
    ASSERT_EQ(clients[1].observed.size(), 1u);
    EXPECT_EQ(clients[1].observed[0].op, BusOp::Read);
    EXPECT_EQ(clients[1].observed[0].data, 55u);
    EXPECT_EQ(stats.get("bus.rmw_fail"), 1u);
}

TEST_F(BusTest, RmwKilledBySupplier)
{
    clients[1].supply_addr = 4;
    clients[1].supply_value = 9;
    clients[0].push({BusOp::Rmw, 4, 1});
    bus.tick();
    EXPECT_TRUE(clients[0].completions.empty());
    EXPECT_EQ(memory.peek(4), 9u);
    // Retry now fails against the supplied non-zero value.
    clients[1].supply_addr.reset();
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_FALSE(clients[0].completions[0].rmw_success);
}

TEST_F(BusTest, ReadLockLocksAndWriteUnlockReleases)
{
    memory.write(6, 30);
    clients[0].push({BusOp::ReadLock, 6, 0});
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_EQ(clients[0].completions[0].data, 30u);
    EXPECT_TRUE(memory.locked(6));

    // A write by another PE NACKs while the lock is held.
    clients[1].push({BusOp::Write, 6, 99});
    bus.tick();
    EXPECT_TRUE(clients[1].completions.empty());
    EXPECT_TRUE(clients[1].hasRequest());
    EXPECT_EQ(memory.peek(6), 30u);
    EXPECT_GE(stats.get("bus.nack"), 1u);

    // The owner unlocks; the blocked write then proceeds.
    clients[0].push({BusOp::WriteUnlock, 6, 31});
    bus.tick(); // round-robin wraps to client 0: the unlock executes
    EXPECT_FALSE(memory.locked(6));
    bus.tick(); // client 1's blocked write now succeeds
    ASSERT_EQ(clients[1].completions.size(), 1u);
    EXPECT_EQ(memory.peek(6), 99u);
}

TEST_F(BusTest, RmwNacksOnLockedWord)
{
    clients[0].push({BusOp::ReadLock, 6, 0});
    bus.tick();
    clients[1].push({BusOp::Rmw, 6, 1});
    bus.tick();
    EXPECT_TRUE(clients[1].completions.empty());
    EXPECT_GE(stats.get("bus.nack"), 1u);
}

TEST_F(BusTest, PlainReadAllowedOnLockedWord)
{
    memory.write(6, 12);
    clients[0].push({BusOp::ReadLock, 6, 0});
    bus.tick();
    clients[1].push({BusOp::Read, 6, 0});
    bus.tick();
    ASSERT_EQ(clients[1].completions.size(), 1u);
    EXPECT_EQ(clients[1].completions[0].data, 12u);
}

/** A rig with 4-word blocks and 2 extra cycles of memory latency. */
class BlockBusTest : public ::testing::Test
{
  protected:
    BlockBusTest()
        : memory(stats), bus(memory, ArbiterKind::RoundRobin, clock,
                             stats, 0, /*block_words=*/4,
                             /*memory_latency=*/0)
    {
        for (auto &client : clients)
            bus.attach(&client);
    }

    stats::CounterSet stats;
    Clock clock;
    Memory memory;
    Bus bus;
    FakeClient clients[2] = {FakeClient(0), FakeClient(1)};
};

TEST_F(BlockBusTest, BlockReadTransfersWholeBlockAndOccupiesBus)
{
    memory.write(4, 40);
    memory.write(6, 60);
    BusRequest request{BusOp::Read, 5, 0, true, {}};
    clients[0].push(request);
    bus.tick();

    ASSERT_EQ(clients[0].completions.size(), 1u);
    const auto &result = clients[0].completions[0];
    ASSERT_EQ(result.block.size(), 4u);
    EXPECT_EQ(result.block[0], 40u);
    EXPECT_EQ(result.block[2], 60u);
    EXPECT_EQ(result.data, 0u); // word 5 itself
    // The snoopers saw the block payload.
    ASSERT_EQ(clients[1].observed.size(), 1u);
    EXPECT_EQ(clients[1].observed[0].block.size(), 4u);

    // 3 more cycles of transfer occupancy follow.
    EXPECT_FALSE(bus.idle());
    bus.tick();
    bus.tick();
    bus.tick();
    EXPECT_EQ(stats.get("bus.transfer_cycles"), 3u);
    EXPECT_TRUE(bus.idle());
}

TEST_F(BlockBusTest, BlockWriteBackStoresAllWords)
{
    BusRequest request{BusOp::Write, 8, 1, true, {1, 2, 3, 4}};
    clients[0].push(request);
    bus.tick();
    EXPECT_EQ(memory.peek(8), 1u);
    EXPECT_EQ(memory.peek(9), 2u);
    EXPECT_EQ(memory.peek(10), 3u);
    EXPECT_EQ(memory.peek(11), 4u);
    ASSERT_EQ(clients[1].observed.size(), 1u);
    EXPECT_EQ(clients[1].observed[0].block.size(), 4u);
}

TEST_F(BlockBusTest, BlockBaseMath)
{
    EXPECT_EQ(bus.blockBase(0), 0u);
    EXPECT_EQ(bus.blockBase(3), 0u);
    EXPECT_EQ(bus.blockBase(4), 4u);
    EXPECT_EQ(bus.blockBase(7), 4u);
}

TEST(MemoryLatencyBus, TransactionsHoldTheBus)
{
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::RoundRobin, clock, stats, 0, 1,
            /*memory_latency=*/2);
    FakeClient client(0);
    bus.attach(&client);

    client.push({BusOp::Write, 1, 5, false, {}});
    bus.tick(); // executes, then occupies 2 more cycles
    ASSERT_EQ(client.completions.size(), 1u);
    EXPECT_FALSE(bus.idle());
    bus.tick();
    bus.tick();
    EXPECT_TRUE(bus.idle());
    EXPECT_EQ(stats.get("bus.transfer_cycles"), 2u);
}

TEST_F(BusTest, RoundRobinFairnessAcrossTicks)
{
    for (int i = 0; i < 3; i++) {
        clients[0].push({BusOp::Write, 100, 1});
        clients[1].push({BusOp::Write, 200, 2});
        clients[2].push({BusOp::Write, 300, 3});
    }
    for (int i = 0; i < 9; i++)
        bus.tick();
    EXPECT_EQ(clients[0].completions.size(), 3u);
    EXPECT_EQ(clients[1].completions.size(), 3u);
    EXPECT_EQ(clients[2].completions.size(), 3u);
}

TEST_F(BusTest, NackCountersUsePerOpNames)
{
    // The per-op NACK names are pre-joined literals; pin each to the
    // "bus.nack." + toString(op) spelling so neither side can drift.
    for (auto op : {BusOp::Read, BusOp::Write, BusOp::Invalidate,
                    BusOp::Rmw, BusOp::ReadLock, BusOp::WriteUnlock}) {
        EXPECT_TRUE(stats.has("bus.nack." + std::string(toString(op))))
            << "missing pre-interned NACK counter for " << toString(op);
    }

    // And a NACK lands in its op's counter: a write bounces off a
    // locked word.
    clients[0].push({BusOp::ReadLock, 6, 0});
    bus.tick();
    clients[1].push({BusOp::Write, 6, 99});
    bus.tick();
    EXPECT_EQ(stats.get("bus.nack.BusWrite"), 1u);
    EXPECT_EQ(stats.get("bus.nack"), 1u);
}

/**
 * A rig exercising the sharer index directly: clients 0 and 1 opt
 * into indexing (as caches do); client 2 stays always-snoop (as the
 * hierarchical cluster cache does on the global bus).
 */
class SnoopIndexTest : public ::testing::Test
{
  protected:
    SnoopIndexTest()
        : memory(stats),
          bus(memory, ArbiterKind::RoundRobin, clock, stats)
    {
        for (auto &client : clients)
            bus.attach(&client);
        bus.setSnoopIndexed(0);
        bus.setSnoopIndexed(1);
        EXPECT_TRUE(bus.snoopFilterActive());
    }

    /** Move client @p c's class for block @p base to @p to, as caches do. */
    void
    note(int c, Addr base, ReactionClass to)
    {
        FakeClient &client = clients[c];
        bus.noteReactions(c, base, client.reactionClass(base), to);
        client.classes[base] = to;
    }

    stats::CounterSet stats;
    Clock clock;
    Memory memory;
    Bus bus;
    FakeClient clients[3] = {FakeClient(0), FakeClient(1), FakeClient(2)};
};

TEST_F(SnoopIndexTest, BroadcastVisitsHoldersAndAlwaysSnoopersOnly)
{
    note(1, 8, kReactsToWrite);
    clients[0].push({BusOp::Write, 8, 7});
    bus.tick();

    // The write-reacting holder and the always-snoop client observed
    // the write; an indexed client holding nothing was never visited.
    ASSERT_EQ(clients[1].observed.size(), 1u);
    EXPECT_EQ(clients[1].observed[0].data, 7u);
    ASSERT_EQ(clients[2].observed.size(), 1u);

    clients[1].observed.clear();
    clients[2].observed.clear();
    clients[0].push({BusOp::Write, 40, 9}); // nobody holds block 40
    bus.tick();
    EXPECT_TRUE(clients[1].observed.empty());
    ASSERT_EQ(clients[2].observed.size(), 1u); // always-snoop still sees it
}

TEST_F(SnoopIndexTest, InsertAndRemoveMaintainTheHolderList)
{
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Read).empty());
    note(1, 8, kReactsToWrite);
    note(0, 8, kReactsToRead | kReactsToWrite);
    EXPECT_EQ(bus.indexHolders(8, BusOp::Read), (std::vector<int>{0}));
    EXPECT_EQ(bus.indexHolders(8, BusOp::Write), (std::vector<int>{0, 1}));
    // Write and Invalidate share one mask.
    EXPECT_EQ(bus.indexHolders(8, BusOp::Invalidate),
              (std::vector<int>{0, 1}));

    // A class change moves exactly one client between the masks.
    note(0, 8, kReactsToWrite);
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Read).empty());
    EXPECT_EQ(bus.indexHolders(8, BusOp::Write), (std::vector<int>{0, 1}));

    // Eviction (or a clean retag) removes exactly one holder.
    note(1, 8, 0);
    EXPECT_EQ(bus.indexHolders(8, BusOp::Write), (std::vector<int>{0}));
    note(0, 8, 0);
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Write).empty());

    // An evicted holder is no longer visited.
    note(0, 8, kReactsToWrite);
    note(0, 8, 0);
    clients[1].push({BusOp::Write, 8, 7});
    bus.tick();
    EXPECT_TRUE(clients[0].observed.empty());
}

TEST_F(SnoopIndexTest, OwnerLookupResolvesThroughTheIndex)
{
    // Client 1 owns addr 8: it supplies reads and reacts to writes.
    note(1, 8, kReactsToRead | kReactsToWrite);
    clients[1].supply_addr = 8;
    clients[1].supply_value = 123;
    clients[0].push({BusOp::Read, 8, 0});
    bus.tick();

    // The read was killed and replaced by the owner's supply write.
    EXPECT_TRUE(clients[0].completions.empty());
    EXPECT_EQ(memory.peek(8), 123u);
    ASSERT_EQ(clients[1].supplied_addrs.size(), 1u);
    EXPECT_EQ(stats.get("bus.kill"), 1u);

    // Supplying left the previous owner with a plain readable copy,
    // which reacts to writes only: the retried read, served by
    // memory, skips it and reaches just the always-snoop client.
    clients[1].supply_addr.reset();
    note(1, 8, kReactsToWrite);
    clients[1].observed.clear();
    clients[2].observed.clear();
    bus.tick();
    ASSERT_EQ(clients[0].completions.size(), 1u);
    EXPECT_EQ(clients[0].completions[0].data, 123u);
    EXPECT_TRUE(clients[1].observed.empty());
    EXPECT_EQ(clients[2].observed.size(), 1u);
}

TEST_F(SnoopIndexTest, SnoopVisitsShrinkWithTheIndex)
{
    // A write to an unheld block: only the always-snoop client is
    // visited (1 visit), where an unfiltered bus would visit 2.
    clients[0].push({BusOp::Write, 40, 9});
    bus.tick();
    EXPECT_EQ(bus.snoopVisits(), 1u);

    // A read of a block client 1 would snarf: the supplier scan polls
    // it and the always-snoop client, the broadcast visits them both.
    note(1, 8, kReactsToRead);
    clients[0].push({BusOp::Read, 8, 0});
    bus.tick();
    EXPECT_EQ(bus.snoopVisits(), 1u + 2u + 2u);

    // Held, but not reacting to reads: client 1 costs no visit.
    note(1, 8, kReactsToWrite);
    clients[0].push({BusOp::Read, 8, 0});
    bus.tick();
    EXPECT_EQ(bus.snoopVisits(), 5u + 1u + 1u);
}

TEST_F(SnoopIndexTest, OutOfSyncFromClassPanics)
{
    // A note whose "from" disagrees with the index is a lost or
    // doubled notification.
    note(1, 8, kReactsToWrite);
    EXPECT_DEATH(bus.noteReactions(1, 8, kReactsToRead, 0), "index holds");
    EXPECT_DEATH(bus.noteReactions(0, 8, kReactsToWrite, 0), "index holds");
}

TEST_F(SnoopIndexTest, EmptiedBlocksLeaveTheIndex)
{
    // A block whose last reacting line leaves is erased, so a run that
    // passes more than 2^20 distinct blocks through its caches keeps
    // the filter on.  noteReactions is called directly: note() keeps
    // a map entry per block.
    const Addr blocks = (Addr{1} << 20) + 1;
    for (Addr base = 0; base < blocks; base++) {
        bus.noteReactions(0, base, 0, kReactsToWrite);
        bus.noteReactions(0, base, kReactsToWrite, 0);
    }
    EXPECT_TRUE(bus.snoopFilterActive());

    // The entry outlives one holder's exit, goes with the last one's,
    // and a re-insert starts from empty masks.
    note(0, 8, kReactsToRead | kReactsToWrite);
    note(1, 8, kReactsToWrite);
    note(0, 8, 0);
    EXPECT_EQ(bus.indexHolders(8, BusOp::Write), (std::vector<int>{1}));
    note(1, 8, 0);
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Read).empty());
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Write).empty());
    note(0, 8, kReactsToRead);
    EXPECT_EQ(bus.indexHolders(8, BusOp::Read), (std::vector<int>{0}));
    EXPECT_TRUE(bus.indexHolders(8, BusOp::Write).empty());
}

#ifndef NDEBUG
// The broadcast cross-check is compiled into Debug builds only.
TEST_F(SnoopIndexTest, BroadcastCrossCheckCatchesAStaleMask)
{
    // Client 1 reacts to writes on block 8 but never told the index:
    // the cross-check must refuse to skip it.
    clients[1].classes[8] = kReactsToWrite;
    clients[0].push({BusOp::Write, 8, 7});
    EXPECT_DEATH(bus.tick(), "snoop index skipped client 1");
}
#endif

/**
 * Three real caches on one filtered bus: the reaction classes the
 * protocols give each state, as the index sees them.
 */
class CacheIndexTest : public ::testing::Test
{
  protected:
    void
    build(const Protocol &protocol)
    {
        bus = std::make_unique<Bus>(memory, ArbiterKind::RoundRobin,
                                    clock, stats);
        for (PeId pe = 0; pe < 3; pe++) {
            caches.push_back(std::make_unique<Cache>(pe, 16, protocol,
                                                     clock, stats));
            caches.back()->connectBus(*bus);
        }
    }

    /** Run one access of kAddr on cache @p pe to completion. */
    void
    access(PeId pe, CpuOp op, Word data = 0)
    {
        Cache &cache = *caches[static_cast<std::size_t>(pe)];
        if (cache.cpuAccess({op, kAddr, data}).complete)
            return;
        for (int cycle = 0; !cache.hasCompletion(); cycle++) {
            ASSERT_LT(cycle, 16) << "access never completed";
            bus->tick();
        }
        cache.takeCompletion();
    }

    LineTag
    tag(PeId pe) const
    {
        return caches[static_cast<std::size_t>(pe)]->lineState(kAddr).tag;
    }

    static constexpr Addr kAddr = 8;
    RbProtocol rb;
    RwbProtocol rwb{2};
    stats::CounterSet stats;
    Clock clock;
    Memory memory{stats};
    std::unique_ptr<Bus> bus;
    std::vector<std::unique_ptr<Cache>> caches;
};

TEST_F(CacheIndexTest, RbReadBroadcastSkipsReadableAndVisitsInvalid)
{
    build(rb);
    access(0, CpuOp::Read);     // cache 0: R
    access(1, CpuOp::Write, 5); // cache 1: L, cache 0: I
    // I snarfs a read, L supplies one.
    EXPECT_EQ(bus->indexHolders(kAddr, BusOp::Read),
              (std::vector<int>{0, 1}));

    // Cache 2's read is killed; cache 1 supplies and drops to R.
    ASSERT_FALSE(caches[2]->cpuAccess({CpuOp::Read, kAddr}).complete);
    bus->tick();
    EXPECT_EQ(tag(1), LineTag::Readable);
    EXPECT_EQ(bus->indexHolders(kAddr, BusOp::Read), (std::vector<int>{0}));

    // The retried read's broadcast visits the Invalid holder only.
    std::uint64_t before = bus->snoopVisits();
    bus->tick();
    EXPECT_TRUE(caches[2]->hasCompletion());
    EXPECT_EQ(bus->snoopVisits() - before, 1u);
    EXPECT_EQ(tag(0), LineTag::Readable);
    EXPECT_EQ(caches[0]->lineValue(kAddr), 5u);
}

TEST_F(CacheIndexTest, RbWriteSkipsInvalidHolders)
{
    build(rb);
    access(0, CpuOp::Read);
    access(1, CpuOp::Read);
    access(2, CpuOp::Write, 5); // caches 0, 1: I; cache 2: L
    // Under RB an Invalid line ignores writes.
    EXPECT_EQ(bus->indexHolders(kAddr, BusOp::Write),
              (std::vector<int>{2}));

    std::uint64_t before = bus->snoopVisits();
    access(1, CpuOp::Write, 6);
    EXPECT_EQ(bus->snoopVisits() - before, 1u); // the L holder alone
    EXPECT_EQ(tag(0), LineTag::Invalid);
    EXPECT_EQ(tag(2), LineTag::Invalid);
}

TEST_F(CacheIndexTest, RwbWriteStillVisitsInvalidHolders)
{
    build(rwb);
    access(0, CpuOp::Read);     // cache 0: R
    access(1, CpuOp::Write, 5); // cache 1: F, cache 0 updated
    access(1, CpuOp::Write, 6); // second write: BI, cache 1: L, 0: I
    ASSERT_EQ(tag(0), LineTag::Invalid);
    // Under RWB an Invalid line snarfs writes.
    EXPECT_EQ(bus->indexHolders(kAddr, BusOp::Write),
              (std::vector<int>{0, 1}));

    std::uint64_t before = bus->snoopVisits();
    access(2, CpuOp::Write, 7);
    EXPECT_EQ(bus->snoopVisits() - before, 2u);
    EXPECT_EQ(tag(0), LineTag::Readable);
    EXPECT_EQ(caches[0]->lineValue(kAddr), 7u);
}

TEST(SnoopFilterPastSixtyFour, SeventyClientBusStaysFilteredAndReachesAll)
{
    // A mask holds 64 clients: the 65th and later refuse indexing and
    // are visited on every snoop, after the masked clients, while the
    // first 64 keep filtering.
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::RoundRobin, clock, stats);
    std::deque<FakeClient> clients;
    for (PeId pe = 0; pe < 70; pe++) {
        clients.emplace_back(pe);
        int c = bus.attach(&clients.back());
        EXPECT_EQ(bus.setSnoopIndexed(c), c < 64) << "client " << c;
    }
    EXPECT_TRUE(bus.snoopFilterActive());
    for (int c = 0; c < 64; c++) {
        bus.noteReactions(c, 10, 0, kReactsToRead);
        clients[static_cast<std::size_t>(c)].classes[10] = kReactsToRead;
    }

    // A read issued past the 64th client reaches every other client
    // once: 69 supplier polls, then 69 deliveries.
    memory.write(10, 5);
    clients[66].push({BusOp::Read, 10, 0});
    bus.tick();
    ASSERT_EQ(clients[66].completions.size(), 1u);
    EXPECT_EQ(clients[66].completions[0].data, 5u);
    for (std::size_t i = 0; i < clients.size(); i++)
        EXPECT_EQ(clients[i].observed.size(), i == 66 ? 0u : 1u)
            << "client " << i;
    EXPECT_EQ(bus.snoopVisits(), 69u + 69u);
}

/** An always-polled client that logs its index on every poll. */
class PollLoggingClient : public FakeClient
{
  public:
    PollLoggingClient(PeId pe, std::vector<int> &polls)
        : FakeClient(pe), polls(polls)
    {}

    bool
    hasRequest() override
    {
        polls.push_back(pe);
        return FakeClient::hasRequest();
    }

  private:
    std::vector<int> &polls;
};

/**
 * A client keeping the Bus::setPollOnStale promise, as a Cache does:
 * armed exactly while it holds requests, and its answer may change
 * only after markStale(), which it reports through noteStale().  A
 * poll that consumes the mark is logged; the side-effect-free polls
 * of Debug builds' cross-check are not.
 */
class StaleClient : public FakeClient
{
  public:
    StaleClient(PeId pe, Bus &bus, std::vector<int> &polls)
        : FakeClient(pe), bus(bus), polls(polls)
    {
        index = bus.attach(this);
        bus.setRequestArmed(index, false);
        bus.setPollOnStale(index);
    }

    void
    push(BusRequest request)
    {
        FakeClient::push(request);
        bus.setRequestArmed(index, true);
    }

    void
    markStale()
    {
        stale = true;
        bus.noteStale(index);
    }

    bool
    hasRequest() override
    {
        if (stale) {
            stale = false;
            polls.push_back(pe);
        }
        return FakeClient::hasRequest();
    }

    void
    requestComplete(const BusResult &result) override
    {
        FakeClient::requestComplete(result);
        if (requests.empty())
            bus.setRequestArmed(index, false);
    }

    int index = -1;

  private:
    Bus &bus;
    std::vector<int> &polls;
    bool stale = false;
};

TEST(BusPolling, OptedInClientIsPolledOnlyAfterNoteStale)
{
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::FixedPriority, clock, stats, 0, 1,
            /*memory_latency=*/2);
    std::vector<int> polls;
    PollLoggingClient hog(0, polls);
    bus.attach(&hog);
    StaleClient waiter(1, bus, polls);
    hog.push({BusOp::Write, 100, 1, false, {}});
    hog.push({BusOp::Write, 101, 1, false, {}});
    waiter.push({BusOp::Read, 10, 0, false, {}});

    bus.tick(); // free: polls the hog only; grants its first write
    EXPECT_EQ(polls, (std::vector<int>{0}));
    waiter.markStale();
    bus.tick(); // the write holds the bus: nobody is polled
    bus.tick();
    EXPECT_EQ(polls, (std::vector<int>{0}));
    bus.tick(); // free: the hog, then the stale waiter, ascending
    EXPECT_EQ(polls, (std::vector<int>{0, 0, 1}));
    bus.tick();
    bus.tick();
    bus.tick(); // the hog is done; the unstale waiter counts as ready
    EXPECT_EQ(polls, (std::vector<int>{0, 0, 1, 0}));
    ASSERT_EQ(waiter.completions.size(), 1u);
    EXPECT_EQ(hog.completions.size(), 2u);
    bus.tick(); // the waiter's read holds the bus too
    bus.tick();
    EXPECT_EQ(polls, (std::vector<int>{0, 0, 1, 0}));
    bus.tick(); // free: the always-polled hog is polled again
    EXPECT_EQ(polls, (std::vector<int>{0, 0, 1, 0, 0}));
    EXPECT_TRUE(bus.idle());
}

#ifndef NDEBUG
// The polling cross-check is compiled into Debug builds only.
TEST(BusPolling, CrossCheckCatchesABrokenPromise)
{
    // An opted-in client that stays armed with nothing to issue breaks
    // the setPollOnStale promise: the pass after its poll must panic.
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::RoundRobin, clock, stats);
    FakeClient liar(0);
    bus.setPollOnStale(bus.attach(&liar));
    EXPECT_DEATH(bus.tick(), "armed and unstale but has no request");
}
#endif

TEST(BusPolling, ReadySetSpansTheWordBoundary)
{
    stats::CounterSet stats;
    Clock clock;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::RoundRobin, clock, stats);
    std::vector<int> polls;
    std::deque<FakeClient> plain;
    std::deque<StaleClient> opted;
    std::vector<FakeClient *> byPe;
    // Clients 63, 64 and 69 opt in; the other 67 stay always-polled.
    for (PeId pe = 0; pe < 70; pe++) {
        if (pe == 63 || pe == 64 || pe == 69) {
            opted.emplace_back(pe, bus, polls);
            byPe.push_back(&opted.back());
        } else {
            plain.emplace_back(pe);
            bus.attach(&plain.back());
            byPe.push_back(&plain.back());
        }
    }
    const std::vector<int> requesters{2, 63, 64, 65, 69};
    for (int pe : requesters) {
        auto addr = static_cast<Addr>(1000 + pe);
        memory.write(addr, static_cast<Word>(pe));
        BusRequest read{BusOp::Read, addr, 0, false, {}};
        if (pe == 63 || pe == 64 || pe == 69)
            static_cast<StaleClient *>(byPe[pe])->push(read);
        else
            byPe[pe]->push(read);
    }
    opted[1].markStale(); // client 64: one real poll, still a yes

    // Round-robin grants each requester once, in ascending order
    // across the word boundary; only the stale client is polled.
    std::vector<int> grants;
    for (std::size_t cycle = 0; cycle < requesters.size(); cycle++) {
        bus.tick();
        for (int pe : requesters) {
            if (byPe[pe]->completions.size() == 1 &&
                std::find(grants.begin(), grants.end(), pe) ==
                    grants.end())
                grants.push_back(pe);
        }
    }
    EXPECT_EQ(grants, requesters);
    EXPECT_EQ(polls, (std::vector<int>{64}));
    for (int pe : requesters)
        EXPECT_EQ(byPe[pe]->completions[0].data, static_cast<Word>(pe));
    EXPECT_TRUE(bus.idle());
}

/** A cache that counts the bus's hasRequest() calls. */
class CountingCache : public Cache
{
  public:
    using Cache::Cache;

    bool
    hasRequest() override
    {
        calls++;
        return Cache::hasRequest();
    }

    int calls = 0;
};

#ifdef NDEBUG
constexpr int kCheckCalls = 0;
#else
/**
 * Debug builds' polling cross-check asks each armed, unpolled
 * opted-in client once more after every polling pass; that call is
 * not a poll.
 */
constexpr int kCheckCalls = 1;
#endif

/**
 * The stale-mark contract: only a snoop that moves the line reserved
 * for a pending access makes the bus poll the cache.  The writer is a
 * scripted client at index 0, so under FixedPriority it wins every
 * cycle it requests.
 */
class StaleMarkTest : public ::testing::Test
{
  protected:
    StaleMarkTest()
    {
        bus.attach(&writer);
        cache.connectBus(bus);
    }

    /** Run one read of @p addr on the cache to completion. */
    void
    read(Addr addr)
    {
        if (cache.cpuAccess({CpuOp::Read, addr}).complete)
            return;
        for (int cycle = 0; !cache.hasCompletion(); cycle++) {
            ASSERT_LT(cycle, 16) << "access never completed";
            bus.tick();
        }
        cache.takeCompletion();
    }

    stats::CounterSet stats;
    Clock clock;
    Memory memory{stats};
    Bus bus{memory, ArbiterKind::FixedPriority, clock, stats};
    RbProtocol rb;
    FakeClient writer{0};
    CountingCache cache{1, 16, rb, clock, stats};
};

TEST_F(StaleMarkTest, WriteInvalidatingAnotherLineCausesNoPoll)
{
    memory.write(9, 42);
    read(8); // line 8: R
    ASSERT_FALSE(cache.cpuAccess({CpuOp::Read, 9}).complete);
    writer.push({BusOp::Write, 8, 5, false, {}});
    writer.push({BusOp::Write, 100, 6, false, {}});

    bus.tick(); // the writer's write invalidates line 8, not line 9
    EXPECT_EQ(cache.lineState(8).tag, LineTag::Invalid);
    cache.calls = 0;
    bus.tick(); // the writer wins again; the pending plan is untouched
    EXPECT_EQ(cache.calls, kCheckCalls);
    EXPECT_EQ(writer.completions.size(), 2u);
    EXPECT_FALSE(cache.hasCompletion());

    bus.tick(); // the planned read is granted and completes
    ASSERT_TRUE(cache.hasCompletion());
    EXPECT_EQ(cache.takeCompletion().value, 42u);
    EXPECT_EQ(cache.lineState(9).tag, LineTag::Readable);
    EXPECT_EQ(stats.get("bus.read"), 2u);
    EXPECT_EQ(stats.get("cache.broadcast_fill"), 0u);
}

TEST_F(StaleMarkTest, ReadBroadcastSnarfingThePendingLinePollsOnce)
{
    read(8); // line 8: R
    writer.push({BusOp::Write, 8, 5, false, {}});
    bus.tick(); // line 8: I
    ASSERT_EQ(cache.lineState(8).tag, LineTag::Invalid);
    ASSERT_FALSE(cache.cpuAccess({CpuOp::Read, 8}).complete);
    writer.push({BusOp::Read, 8, 0, false, {}});

    bus.tick(); // the writer's read wins; the broadcast refills line 8
    EXPECT_EQ(cache.lineState(8).tag, LineTag::Readable);
    cache.calls = 0;
    bus.tick(); // one poll finds the read satisfied
    // The completing poll disarms the cache, so the cross-check does
    // not ask again.
    EXPECT_EQ(cache.calls, 1);
    ASSERT_TRUE(cache.hasCompletion());
    EXPECT_EQ(cache.takeCompletion().value, 5u);
    EXPECT_EQ(stats.get("cache.broadcast_fill"), 1u);
    EXPECT_TRUE(bus.idle());
}

// ---- NACK-repeat parking ------------------------------------------

/**
 * A memory side like the cluster cache: it NACKs every RMW-class
 * request and declares those NACKs repeat; reads and writes go to a
 * plain Memory.  Records the PE of every request it is asked to serve.
 */
class RepeatMemory : public MemorySide
{
  public:
    explicit RepeatMemory(stats::CounterSet &stats) : memory(stats) {}

    bool rmwNacksRepeat() const override { return true; }

    bool
    tryRead(Addr addr, PeId pe, Word &data) override
    {
        served.push_back(pe);
        return memory.tryRead(addr, pe, data);
    }

    bool
    tryReadBlock(Addr base, std::size_t words, PeId pe,
                 std::vector<Word> &block) override
    {
        served.push_back(pe);
        return memory.tryReadBlock(base, words, pe, block);
    }

    bool
    tryWrite(Addr addr, PeId pe, Word data) override
    {
        served.push_back(pe);
        return memory.tryWrite(addr, pe, data);
    }

    bool
    tryWriteBlock(Addr base, PeId pe,
                  const std::vector<Word> &block) override
    {
        served.push_back(pe);
        return memory.tryWriteBlock(base, pe, block);
    }

    bool
    tryRmw(Addr, PeId pe, Word, Word &, bool &) override
    {
        served.push_back(pe);
        return false;
    }

    bool
    tryReadLock(Addr, PeId pe, Word &) override
    {
        served.push_back(pe);
        return false;
    }

    bool
    tryWriteUnlock(Addr, PeId pe, Word) override
    {
        served.push_back(pe);
        return false;
    }

    void
    acceptSupply(Addr addr, Word data) override
    {
        memory.acceptSupply(addr, data);
    }

    void
    acceptSupplyBlock(Addr base, const std::vector<Word> &block) override
    {
        memory.acceptSupplyBlock(base, block);
    }

    Memory memory;
    std::vector<PeId> served;
};

/**
 * A client that keeps the bus's promises the way an L1 does: polled
 * only when stale, no supplier until it says so, armed exactly while
 * it has a request.  Logs each grant it gets (the bus asks for the
 * request once per grant it executes) and counts the NACKs it is told
 * of.
 */
class RepeatClient : public FakeClient
{
  public:
    explicit RepeatClient(PeId pe) : FakeClient(pe) {}

    BusRequest
    currentRequest() override
    {
        grants->push_back(index);
        return FakeClient::currentRequest();
    }

    void
    requestComplete(const BusResult &result) override
    {
        FakeClient::requestComplete(result);
        if (requests.empty())
            bus->setRequestArmed(index, false);
    }

    void requestNacked() override { retries++; }

    Bus *bus = nullptr;
    int index = -1;
    std::vector<int> *grants = nullptr;
    std::uint64_t retries = 0;
};

/** One bus, its repeat-declaring memory side and four clients. */
struct ParkSide
{
    ParkSide(ArbiterKind kind, bool park)
        : memory(stats), bus(memory, kind, clock, stats, /*seed=*/5, 1, 0,
                             /*snoop_filter=*/true, park)
    {
        for (auto &client : clients) {
            client.bus = &bus;
            client.grants = &granted;
            client.index = bus.attach(&client);
            bus.setRequestArmed(client.index, false);
            bus.setSupplier(client.index, false);
            bus.setPollOnStale(client.index);
        }
    }

    /** Client @p c issues @p request. */
    void
    issue(int c, BusRequest request)
    {
        clients[c].push(request);
        bus.setRequestArmed(c, true);
    }

    void
    tick(int cycles)
    {
        for (int i = 0; i < cycles; i++) {
            bus.tick();
            clock.now++;
        }
    }

    stats::CounterSet stats;
    Clock clock;
    RepeatMemory memory;
    Bus bus;
    /** Clients granted by executed ticks, in order (not booked ones). */
    std::vector<int> granted;
    RepeatClient clients[4] = {RepeatClient(0), RepeatClient(1),
                               RepeatClient(2), RepeatClient(3)};
};

/**
 * A parking bus and one that ticks every grant (park_repeats off, as
 * under --no-skip), driven alike through each case.
 */
class ParkTest : public ::testing::Test
{
  protected:
    void
    build(ArbiterKind kind)
    {
        parking = std::make_unique<ParkSide>(kind, true);
        ticking = std::make_unique<ParkSide>(kind, false);
    }

    /** Apply @p step to both sides. */
    template <typename Step>
    void
    both(Step step)
    {
        step(*parking);
        step(*ticking);
    }

    void
    issue(int c, BusRequest request)
    {
        both([&](ParkSide &side) { side.issue(c, request); });
    }

    void
    tick(int cycles)
    {
        both([&](ParkSide &side) { side.tick(cycles); });
    }

    /**
     * The two sides agree on what the caller already settled: every
     * counter, snoop visits, each client's completions and retries.
     * A parked bus books repeated NACKs without telling the client
     * (an L1 counts retries only while an observer that blocks
     * parking reads them), so each client was told of at most the
     * ticking side's NACKs, and the NACKs nobody was told of are
     * exactly the cycles the catch-ups booked.
     */
    void
    expectSameCounts()
    {
        EXPECT_EQ(parking->stats.report(), ticking->stats.report());
        EXPECT_EQ(parking->bus.snoopVisits(), ticking->bus.snoopVisits());
        std::uint64_t told = 0, ticked = 0;
        for (int c = 0; c < 4; c++) {
            SCOPED_TRACE("client " + std::to_string(c));
            EXPECT_EQ(parking->clients[c].completions.size(),
                      ticking->clients[c].completions.size());
            EXPECT_LE(parking->clients[c].retries,
                      ticking->clients[c].retries);
            told += parking->clients[c].retries;
            ticked += ticking->clients[c].retries;
        }
        EXPECT_EQ(told + parking->bus.parkedCycles(), ticked);
    }

    /**
     * Settle the parking side, hold the two to expectSameCounts, and
     * check that the next grant goes to the same client on both.
     */
    void
    expectSameRun()
    {
        parking->bus.settle();
        expectSameCounts();
        tick(1);
        ASSERT_FALSE(parking->granted.empty());
        EXPECT_EQ(parking->granted.back(), ticking->granted.back());
        EXPECT_EQ(parking->stats.report(), ticking->stats.report());
    }

    std::unique_ptr<ParkSide> parking, ticking;
};

TEST_F(ParkTest, RoundRobinBooksARotationOfRepeatersInOneCatchUp)
{
    build(ArbiterKind::RoundRobin);
    for (int c = 0; c < 4; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    // Four first NACKs make every armed client a repeater; the other
    // 38 grants are booked, ending mid-rotation, so the catch-up must
    // move the arbiter to client 1.
    tick(42);
    parking->bus.settle();
    EXPECT_EQ(parking->bus.parkedCycles(), 38u);
    EXPECT_EQ(ticking->bus.parkedCycles(), 0u);
    EXPECT_EQ(parking->memory.served.size(), 4u);
    EXPECT_EQ(parking->stats.get("bus.nack.BusRmw"), 42u);
    expectSameRun();
    EXPECT_EQ(ticking->granted.back(), 2);
}

TEST_F(ParkTest, RoundRobinStopsAtTheNewlyArmedClientsGrant)
{
    build(ArbiterKind::RoundRobin);
    for (int c : {0, 1, 3})
        issue(c, {BusOp::Rmw, 7, 1});
    tick(9); // parked after three grants
    // Arming catches the bus up; the next park ends where the
    // rotation reaches client 2, whose write is served for real.
    issue(2, {BusOp::Write, 9, 4});
    EXPECT_EQ(parking->bus.parkedCycles(), 6u);
    tick(10);
    EXPECT_EQ(parking->clients[2].completions.size(), 1u);
    EXPECT_EQ(parking->memory.memory.peek(9), 4u);
    parking->bus.settle();
    EXPECT_EQ(parking->bus.parkedCycles(), 13u);
    expectSameRun();
}

TEST_F(ParkTest, FixedPriorityRepeatsTheLowestRequesterForever)
{
    build(ArbiterKind::FixedPriority);
    // Client 2 starves behind client 1, whose ReadLock repeats; the
    // catch-up books its op's NACK counter, not client 2's.
    issue(1, {BusOp::ReadLock, 7, 0});
    issue(2, {BusOp::Rmw, 7, 1});
    tick(20);
    issue(0, {BusOp::Write, 9, 4});
    tick(5);
    parking->bus.settle();
    EXPECT_EQ(parking->bus.parkedCycles(), 22u);
    EXPECT_EQ(parking->stats.get("bus.nack.BusReadLock"), 24u);
    EXPECT_EQ(parking->stats.get("bus.nack.BusRmw"), 0u);
    EXPECT_EQ(parking->clients[0].completions.size(), 1u);
    expectSameRun();
}

TEST_F(ParkTest, RandomReplaysItsDrawsOnlyWhenEveryArmedClientRepeats)
{
    build(ArbiterKind::Random);
    for (int c = 0; c < 3; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    // A client not yet NACKed could be drawn next: no park until all
    // three repeat, then the catch-up replays one draw per grant.
    tick(40);
    parking->bus.settle();
    std::uint64_t booked = parking->bus.parkedCycles();
    EXPECT_GT(booked, 0u);
    EXPECT_LT(booked, 40u - 2);
    issue(3, {BusOp::Write, 9, 4});
    tick(30); // declined until client 3 is served
    EXPECT_EQ(parking->clients[3].completions.size(), 1u);
    // Each settle below books a replayed stretch; the draw after it
    // must be the ticking bus's.
    for (int round = 0; round < 10; round++) {
        expectSameRun();
        tick(7);
    }
}

TEST_F(ParkTest, NoteStaleEndsTheParkBeforeTheChangedRequestIsGranted)
{
    build(ArbiterKind::RoundRobin);
    for (int c = 0; c < 4; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    tick(10);
    // A snoop moved client 2's pending line: its request is now a
    // write, which the bus learns only by polling it.
    both([](ParkSide &side) {
        side.clients[2].requests.front() = {BusOp::Write, 9, 4};
        side.bus.noteStale(2);
    });
    tick(10);
    EXPECT_EQ(parking->clients[2].completions.size(), 1u);
    expectSameRun();
    EXPECT_EQ(parking->stats.get("bus.write"), 1u);
}

TEST_F(ParkTest, SetSupplierEndsTheParkBeforeTheNextSupplierScan)
{
    build(ArbiterKind::RoundRobin);
    for (int c = 0; c < 3; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    tick(10);
    // Client 3 now owns the lock word: every further Rmw grant is
    // killed and supplied instead of NACKed.
    both([](ParkSide &side) {
        side.clients[3].supply_addr = 7;
        side.clients[3].supply_value = 1;
        side.bus.setSupplier(3, true);
    });
    tick(10);
    EXPECT_GT(parking->stats.get("bus.kill"), 0u);
    expectSameRun();
}

TEST_F(ParkTest, ShardFlushSettlesABudgetThatEndsMidPark)
{
    build(ArbiterKind::RoundRobin);
    for (int c = 0; c < 4; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    // The shard's flush at the end of a run (or before a counter
    // read) is the only catch-up here.
    Shard parking_shard(0), ticking_shard(0);
    parking_shard.addComponent(&parking->bus);
    ticking_shard.addComponent(&ticking->bus);
    for (int i = 0; i < 25; i++) {
        parking_shard.tick();
        ticking_shard.tick();
    }
    parking_shard.flushStalls();
    ticking_shard.flushStalls();
    EXPECT_EQ(parking->bus.parkedCycles(), 21u);
    expectSameCounts();
}

TEST_F(ParkTest, ObservedBusesNeverPark)
{
    build(ArbiterKind::RoundRobin);
    obs::Recorder recorder(nullptr, /*histograms=*/true, 0);
    parking->bus.setObserver(&recorder, 0);
    for (int c = 0; c < 4; c++)
        issue(c, {BusOp::Rmw, 7, 1});
    tick(20);
    parking->bus.settle();
    EXPECT_EQ(parking->bus.parkedCycles(), 0u);
    for (int c = 0; c < 4; c++)
        EXPECT_EQ(parking->clients[c].retries, ticking->clients[c].retries);
}

TEST(Parking, MainMemoryNeverDeclaresRepeats)
{
    stats::CounterSet stats;
    Memory memory(stats);
    EXPECT_FALSE(memory.rmwNacksRepeat());
}

} // namespace
} // namespace ddc
