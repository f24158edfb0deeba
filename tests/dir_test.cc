/**
 * @file
 * Unit tests for the directory coherence layer (src/dir): the compact
 * sharer set (bitmap + overflow vector), the per-home directory map,
 * the home-node state machine — grant execution, sharer recording,
 * owner forward / kill / supply, invalidate-ack collection, writeback
 * demotion, NACKs on locked words, overflow past the 64-sharer bitmap
 * — and the fabric's address-interleaved routing and skip support.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "dir/directory.hh"
#include "dir/fabric.hh"
#include "dir/home_node.hh"
#include "dir/sharer_set.hh"
#include "sim/bus.hh"
#include "stats/counter.hh"

namespace ddc {
namespace dir {
namespace {

// ---------------------------------------------------------------- //
//  SharerSet                                                       //
// ---------------------------------------------------------------- //

TEST(SharerSetTest, AddRemoveContainsWithinBitmap)
{
    SharerSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.add(0));
    EXPECT_TRUE(set.add(5));
    EXPECT_TRUE(set.add(63));
    EXPECT_EQ(set.count(), 3u);
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.contains(5));
    EXPECT_TRUE(set.contains(63));
    EXPECT_FALSE(set.contains(1));
    EXPECT_FALSE(set.overflowed());

    EXPECT_TRUE(set.remove(5));
    EXPECT_FALSE(set.contains(5));
    EXPECT_EQ(set.count(), 2u);
}

TEST(SharerSetTest, DuplicateAddAndMissingRemoveReportFalse)
{
    SharerSet set;
    EXPECT_TRUE(set.add(7));
    EXPECT_FALSE(set.add(7));
    EXPECT_EQ(set.count(), 1u);
    EXPECT_FALSE(set.remove(8));
    EXPECT_TRUE(set.remove(7));
    EXPECT_FALSE(set.remove(7));
    EXPECT_TRUE(set.empty());

    // Same contract past the bitmap boundary.
    EXPECT_TRUE(set.add(100));
    EXPECT_FALSE(set.add(100));
    EXPECT_FALSE(set.remove(101));
    EXPECT_TRUE(set.remove(100));
    EXPECT_TRUE(set.empty());
}

TEST(SharerSetTest, OverflowIdsPastTheBitmap)
{
    SharerSet set;
    EXPECT_TRUE(set.add(64));
    EXPECT_TRUE(set.add(200));
    EXPECT_TRUE(set.add(127));
    EXPECT_TRUE(set.overflowed());
    EXPECT_EQ(set.count(), 3u);
    EXPECT_TRUE(set.contains(64));
    EXPECT_TRUE(set.contains(127));
    EXPECT_TRUE(set.contains(200));
    EXPECT_FALSE(set.contains(65));

    EXPECT_TRUE(set.remove(127));
    EXPECT_FALSE(set.contains(127));
    EXPECT_EQ(set.count(), 2u);
    EXPECT_TRUE(set.overflowed());
}

TEST(SharerSetTest, ForEachVisitsAscendingAcrossTheBoundary)
{
    SharerSet set;
    // Inserted out of order, straddling the bitmap/overflow boundary.
    for (int id : {70, 3, 64, 0, 63, 100, 31})
        EXPECT_TRUE(set.add(id));

    std::vector<int> seen;
    set.forEach([&](int id) { seen.push_back(id); });
    EXPECT_EQ(seen, (std::vector<int>{0, 3, 31, 63, 64, 70, 100}));
}

TEST(SharerSetTest, ClearEmptiesBothHalves)
{
    SharerSet set;
    set.add(1);
    set.add(90);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.count(), 0u);
    EXPECT_FALSE(set.contains(1));
    EXPECT_FALSE(set.contains(90));
    EXPECT_FALSE(set.overflowed());
}

// ---------------------------------------------------------------- //
//  Directory                                                       //
// ---------------------------------------------------------------- //

TEST(DirectoryTest, EnsureLookupAndBlockCount)
{
    Directory dir;
    EXPECT_EQ(dir.blocks(), 0u);
    EXPECT_EQ(dir.lookup(10), nullptr);

    DirEntry &entry = dir.ensure(10);
    EXPECT_EQ(entry.owner, -1);
    EXPECT_TRUE(entry.sharers.empty());
    EXPECT_EQ(dir.blocks(), 1u);

    entry.owner = 2;
    entry.sharers.add(2);
    DirEntry *found = dir.lookup(10);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->owner, 2);
    EXPECT_TRUE(found->sharers.contains(2));

    const Directory &cdir = dir;
    ASSERT_NE(cdir.lookup(10), nullptr);
    EXPECT_EQ(cdir.lookup(11), nullptr);

    dir.ensure(10); // idempotent
    EXPECT_EQ(dir.blocks(), 1u);
}

// ---------------------------------------------------------------- //
//  HomeNode                                                        //
// ---------------------------------------------------------------- //

/** Scriptable fabric client recording everything a home does to it. */
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

    void
    supplied(Addr addr) override
    {
        supplied_addrs.push_back(addr);
        // The real cluster cache demotes to Readable after supplying:
        // its value now matches home memory, so it stops offering.
        supply_addr.reset();
    }

    void requestNacked() override { nacks++; }
    void requestKilled() override { kills++; }

    PeId peId() const override { return pe; }

    Addr pendingAddr() const override { return requests.front().addr; }

    void push(BusRequest request) { requests.push_back(request); }

    PeId pe;
    std::deque<BusRequest> requests;
    std::vector<BusResult> completions;
    std::vector<BusTransaction> observed;
    std::vector<Addr> supplied_addrs;
    std::optional<Addr> supply_addr;
    Word supply_value = 0;
    int nacks = 0;
    int kills = 0;
};

BusRequest
makeRequest(BusOp op, Addr addr, Word data = 0, bool writeback = false)
{
    BusRequest request;
    request.op = op;
    request.addr = addr;
    request.data = data;
    request.writeback = writeback;
    return request;
}

class HomeNodeTest : public ::testing::Test
{
  protected:
    HomeNodeTest() : home(0, ArbiterKind::RoundRobin, 1, stats)
    {
        for (PeId pe = 0; pe < 3; pe++)
            storage.emplace_back(pe);
        for (auto &client : storage)
            clients.push_back(&client);
    }

    /** Post @p client's pending request and run one home cycle. */
    void
    serve(int client)
    {
        home.clearInbox();
        home.post(client);
        home.tick(clients, visits);
    }

    stats::CounterSet stats;
    HomeNode home;
    std::deque<FakeClient> storage;
    std::vector<BusClient *> clients;
    std::uint64_t visits = 0;
};

TEST_F(HomeNodeTest, ReadRecordsSharerAndCompletes)
{
    home.memoryBank().write(10, 77);
    storage[0].push(makeRequest(BusOp::Read, 10));
    serve(0);

    ASSERT_EQ(storage[0].completions.size(), 1u);
    EXPECT_EQ(storage[0].completions[0].data, 77u);
    const DirEntry *entry = home.directory().lookup(10);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, -1);
    EXPECT_EQ(entry->sharers.count(), 1u);
    EXPECT_TRUE(entry->sharers.contains(0));
    EXPECT_EQ(stats.get("bus.read"), 1u);
    EXPECT_EQ(stats.get("dir.msg.request"), 1u);
    // No other sharer: zero point-to-point deliveries.
    EXPECT_EQ(visits, 0u);
}

TEST_F(HomeNodeTest, ReadDeliversUpdatesToRecordedSharersOnly)
{
    storage[0].push(makeRequest(BusOp::Read, 10));
    serve(0);
    storage[1].push(makeRequest(BusOp::Read, 10));
    serve(1);

    // Only the one recorded sharer saw the second read; client 2,
    // which holds nothing, was never visited.
    ASSERT_EQ(storage[0].observed.size(), 1u);
    EXPECT_EQ(storage[0].observed[0].op, BusOp::Read);
    EXPECT_EQ(storage[0].observed[0].issuer, 1);
    EXPECT_TRUE(storage[2].observed.empty());
    EXPECT_EQ(stats.get("dir.msg.update"), 1u);
    EXPECT_EQ(visits, 1u);

    const DirEntry *entry = home.directory().lookup(10);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->sharers.count(), 2u);
}

TEST_F(HomeNodeTest, WriteInvalidatesSharersAndTakesOwnership)
{
    storage[0].push(makeRequest(BusOp::Read, 10));
    serve(0);
    storage[1].push(makeRequest(BusOp::Read, 10));
    serve(1);
    std::uint64_t visits_before = visits;

    storage[2].push(makeRequest(BusOp::Write, 10, 9));
    serve(2);

    ASSERT_EQ(storage[2].completions.size(), 1u);
    EXPECT_EQ(home.memoryBank().peek(10), 9u);
    for (int i : {0, 1}) {
        ASSERT_FALSE(storage[i].observed.empty());
        EXPECT_EQ(storage[i].observed.back().op, BusOp::Write);
        EXPECT_EQ(storage[i].observed.back().data, 9u);
        EXPECT_EQ(storage[i].observed.back().issuer, 2);
    }
    EXPECT_EQ(stats.get("dir.msg.inval"), 2u);
    EXPECT_EQ(stats.get("dir.msg.ack"), 2u);
    EXPECT_EQ(visits, visits_before + 2);

    const DirEntry *entry = home.directory().lookup(10);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, 2);
    EXPECT_EQ(entry->sharers.count(), 1u);
    EXPECT_TRUE(entry->sharers.contains(2));
}

TEST_F(HomeNodeTest, OwnerForwardKillsAndRepublishes)
{
    storage[0].push(makeRequest(BusOp::Write, 20, 5));
    serve(0);
    ASSERT_EQ(home.directory().lookup(20)->owner, 0);
    // The owner's cluster-internal copy has moved past home memory.
    storage[0].supply_addr = 20;
    storage[0].supply_value = 8;

    storage[1].push(makeRequest(BusOp::Read, 20));
    serve(1);

    // First grant: killed, owner forwarded, value republished.
    EXPECT_EQ(storage[1].kills, 1);
    EXPECT_TRUE(storage[1].completions.empty());
    EXPECT_TRUE(storage[1].hasRequest()); // still pending, will retry
    ASSERT_EQ(storage[0].supplied_addrs.size(), 1u);
    EXPECT_EQ(storage[0].supplied_addrs[0], 20u);
    EXPECT_EQ(home.memoryBank().peek(20), 8u);
    EXPECT_EQ(stats.get("dir.msg.fwd"), 1u);
    EXPECT_EQ(stats.get("bus.kill"), 1u);
    EXPECT_EQ(stats.get("bus.supply_write"), 1u);
    const DirEntry *entry = home.directory().lookup(20);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, -1); // demoted, but still a sharer
    EXPECT_TRUE(entry->sharers.contains(0));

    // Retry: the read now completes against current home memory.
    serve(1);
    ASSERT_EQ(storage[1].completions.size(), 1u);
    EXPECT_EQ(storage[1].completions[0].data, 8u);
    EXPECT_EQ(entry->sharers.count(), 2u);
    ASSERT_FALSE(storage[0].observed.empty());
    EXPECT_EQ(storage[0].observed.back().op, BusOp::Read);
}

TEST_F(HomeNodeTest, WritebackDemotesOwnerButKeepsEntry)
{
    storage[0].push(makeRequest(BusOp::Write, 30, 1));
    serve(0);
    ASSERT_EQ(home.directory().lookup(30)->owner, 0);

    storage[0].push(makeRequest(BusOp::Write, 30, 2, true));
    serve(0);

    ASSERT_EQ(storage[0].completions.size(), 2u);
    EXPECT_EQ(home.memoryBank().peek(30), 2u);
    const DirEntry *entry = home.directory().lookup(30);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, -1);
    EXPECT_EQ(entry->sharers.count(), 1u);
    EXPECT_TRUE(entry->sharers.contains(0));
    EXPECT_EQ(stats.get("dir.msg.inval"), 0u);
}

TEST_F(HomeNodeTest, NackOnLockedWordLeavesDirectoryUntouched)
{
    storage[0].push(makeRequest(BusOp::ReadLock, 40));
    serve(0);
    ASSERT_EQ(storage[0].completions.size(), 1u);

    storage[1].push(makeRequest(BusOp::Write, 40, 7));
    serve(1);
    EXPECT_EQ(storage[1].nacks, 1);
    EXPECT_TRUE(storage[1].completions.empty());
    EXPECT_TRUE(storage[1].hasRequest());
    EXPECT_EQ(stats.get("bus.nack"), 1u);
    EXPECT_EQ(stats.get("bus.nack.BusWrite"), 1u);
    EXPECT_EQ(home.memoryBank().peek(40), 0u);
    const DirEntry *entry = home.directory().lookup(40);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, -1);
    EXPECT_EQ(entry->sharers.count(), 1u);

    storage[0].push(makeRequest(BusOp::WriteUnlock, 40, 3));
    serve(0);
    EXPECT_EQ(home.memoryBank().peek(40), 3u);

    // The blocked write retries and now succeeds, invalidating the
    // unlocker's copy.
    serve(1);
    ASSERT_EQ(storage[1].completions.size(), 1u);
    EXPECT_EQ(home.memoryBank().peek(40), 7u);
    EXPECT_EQ(entry->owner, 1);
    EXPECT_EQ(entry->sharers.count(), 1u);
    EXPECT_TRUE(entry->sharers.contains(1));
}

TEST_F(HomeNodeTest, RmwResolvesSuccessAndFailure)
{
    storage[0].push(makeRequest(BusOp::Rmw, 50, 1));
    serve(0);
    ASSERT_EQ(storage[0].completions.size(), 1u);
    EXPECT_TRUE(storage[0].completions[0].rmw_success);
    EXPECT_EQ(storage[0].completions[0].data, 0u); // observed old value
    EXPECT_EQ(stats.get("bus.rmw_success"), 1u);
    const DirEntry *entry = home.directory().lookup(50);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->owner, 0);

    // The winner's copy is the latest; a second TS must forward first
    // (kill path), then fail as a read of the set lock.
    storage[0].supply_addr = 50;
    storage[0].supply_value = 1;
    storage[1].push(makeRequest(BusOp::Rmw, 50, 1));
    serve(1);
    EXPECT_EQ(storage[1].kills, 1);
    EXPECT_TRUE(storage[1].hasRequest());
    EXPECT_EQ(entry->owner, -1);

    serve(1);
    ASSERT_EQ(storage[1].completions.size(), 1u);
    EXPECT_FALSE(storage[1].completions[0].rmw_success);
    EXPECT_EQ(storage[1].completions[0].data, 1u);
    EXPECT_EQ(stats.get("bus.rmw_fail"), 1u);
    EXPECT_EQ(entry->sharers.count(), 2u);
}

/**
 * The scaled configuration: more sharers than the bitmap holds.  The
 * overflow vector must keep membership exact, deliveries ascending,
 * and the invalidate-ack sweep complete.
 */
TEST(HomeNodeScale, SharerOverflowPastSixtyFourClients)
{
    constexpr int kClients = 70;
    stats::CounterSet stats;
    HomeNode home(0, ArbiterKind::RoundRobin, 1, stats);
    std::deque<FakeClient> storage;
    std::vector<BusClient *> clients;
    for (PeId pe = 0; pe < kClients; pe++) {
        storage.emplace_back(pe);
        clients.push_back(&storage.back());
    }
    std::uint64_t visits = 0;
    auto serve = [&](int client) {
        home.clearInbox();
        home.post(client);
        home.tick(clients, visits);
    };

    for (int i = 0; i < kClients; i++) {
        storage[static_cast<std::size_t>(i)].push(
            makeRequest(BusOp::Read, 3));
        serve(i);
    }

    const DirEntry *entry = home.directory().lookup(3);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->sharers.count(), 70u);
    EXPECT_TRUE(entry->sharers.overflowed());
    EXPECT_TRUE(entry->sharers.contains(69));
    EXPECT_EQ(stats.get("dir.sharer_overflow"), 6u); // clients 64..69
    EXPECT_EQ(stats.get("bus.read"), 70u);
    // Reader i updated the i earlier sharers: 0+1+...+69 messages.
    EXPECT_EQ(stats.get("dir.msg.update"), 2415u);
    EXPECT_EQ(visits, 2415u);

    std::vector<int> order;
    entry->sharers.forEach([&](int id) { order.push_back(id); });
    ASSERT_EQ(order.size(), 70u);
    for (int i = 0; i < kClients; i++)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

    // One write sweeps all 69 other sharers with invalidate + ack.
    storage[0].push(makeRequest(BusOp::Write, 3, 9));
    serve(0);
    EXPECT_EQ(stats.get("dir.msg.inval"), 69u);
    EXPECT_EQ(stats.get("dir.msg.ack"), 69u);
    EXPECT_EQ(visits, 2415u + 69u);
    for (int i = 1; i < kClients; i++) {
        ASSERT_FALSE(storage[static_cast<std::size_t>(i)].observed
                         .empty());
        EXPECT_EQ(storage[static_cast<std::size_t>(i)].observed.back()
                      .op,
                  BusOp::Write);
    }
    EXPECT_EQ(entry->owner, 0);
    EXPECT_EQ(entry->sharers.count(), 1u);
    EXPECT_TRUE(entry->sharers.contains(0));
    EXPECT_FALSE(entry->sharers.overflowed());
}

// ---------------------------------------------------------------- //
//  DirectoryFabric                                                 //
// ---------------------------------------------------------------- //

TEST(DirectoryFabricTest, RoutesRequestsToAddressInterleavedHomes)
{
    stats::CounterSet stats;
    DirectoryFabric fabric(4, ArbiterKind::RoundRobin, 1, stats);
    EXPECT_EQ(fabric.numHomes(), 4);
    EXPECT_EQ(fabric.homeOf(6), 2);
    EXPECT_EQ(fabric.homeOf(9), 1);
    EXPECT_EQ(fabric.blockWords(), 1u);

    std::deque<FakeClient> storage;
    std::vector<BusClient *> clients;
    for (PeId pe = 0; pe < 2; pe++) {
        storage.emplace_back(pe);
        clients.push_back(&storage.back());
        fabric.attach(&storage.back());
    }

    // Two requests to different homes are served in the same cycle.
    storage[0].push(makeRequest(BusOp::Read, 6));
    storage[1].push(makeRequest(BusOp::Read, 9));
    fabric.tick();

    EXPECT_EQ(storage[0].completions.size(), 1u);
    EXPECT_EQ(storage[1].completions.size(), 1u);
    EXPECT_EQ(fabric.home(2).directory().blocks(), 1u);
    EXPECT_EQ(fabric.home(1).directory().blocks(), 1u);
    EXPECT_EQ(fabric.home(0).directory().blocks(), 0u);
    EXPECT_EQ(fabric.home(3).directory().blocks(), 0u);
    EXPECT_EQ(fabric.directoryBlocks(), 2u);
    EXPECT_EQ(stats.get("bus.busy_cycles"), 2u);
    EXPECT_EQ(stats.get("bus.idle_cycles"), 2u);
}

TEST(DirectoryFabricTest, MemoryAccessRoutesToTheHomeBank)
{
    stats::CounterSet stats;
    DirectoryFabric fabric(4, ArbiterKind::RoundRobin, 1, stats);
    fabric.pokeMemory(6, 42);
    EXPECT_EQ(fabric.memoryValue(6), 42u);
    EXPECT_EQ(fabric.home(2).memoryBank().peek(6), 42u);
    for (int h : {0, 1, 3})
        EXPECT_EQ(fabric.home(h).memoryBank().peek(6), 0u);

    std::deque<FakeClient> storage;
    storage.emplace_back(0);
    fabric.attach(&storage.back());
    storage[0].push(makeRequest(BusOp::Read, 6));
    fabric.tick();
    ASSERT_EQ(storage[0].completions.size(), 1u);
    EXPECT_EQ(storage[0].completions[0].data, 42u);
}

TEST(DirectoryFabricTest, ArmingGatesNextEventAndSkip)
{
    stats::CounterSet stats;
    DirectoryFabric fabric(2, ArbiterKind::RoundRobin, 1, stats);
    std::deque<FakeClient> storage;
    for (PeId pe = 0; pe < 2; pe++) {
        storage.emplace_back(pe);
        fabric.attach(&storage.back());
    }

    // Clients attach armed, pinning the fabric to the current cycle
    // (ClusterCache disarms right after attaching: no forwards yet).
    EXPECT_EQ(fabric.armedClients(), 2u);
    EXPECT_EQ(fabric.nextEventCycle(5), 5u);

    fabric.setRequestArmed(0, false);
    fabric.setRequestArmed(0, false); // idempotent
    fabric.setRequestArmed(1, false);
    EXPECT_EQ(fabric.armedClients(), 0u);
    EXPECT_EQ(fabric.nextEventCycle(5), kNever);

    fabric.skipCycles(7);
    EXPECT_EQ(stats.get("bus.idle_cycles"), 14u); // 7 per home

    // A client arms with its request (armed => request, the promise
    // every fabric client keeps).
    storage[0].push(makeRequest(BusOp::Read, 2));
    fabric.setRequestArmed(0, true);
    EXPECT_EQ(fabric.armedClients(), 1u);
    EXPECT_EQ(fabric.nextEventCycle(9), 9u);

    // Home 0 serves it; the untouched home idles.
    fabric.tick();
    EXPECT_EQ(storage[0].completions.size(), 1u);
    EXPECT_EQ(stats.get("bus.busy_cycles"), 1u);
    EXPECT_EQ(stats.get("bus.idle_cycles"), 15u);

    // Its request served, the client disarms: quiescent again.
    fabric.setRequestArmed(0, false);
    EXPECT_EQ(fabric.nextEventCycle(10), kNever);
}

TEST(DirectoryFabricTest, ArmedClientWithoutARequestPanics)
{
    // Armed means "has a request": the fabric's quiescence rule
    // (armed => now) relies on it, so the routing pass checks it.
    stats::CounterSet stats;
    DirectoryFabric fabric(2, ArbiterKind::RoundRobin, 1, stats);
    std::deque<FakeClient> storage;
    for (PeId pe = 0; pe < 2; pe++) {
        storage.emplace_back(pe);
        fabric.attach(&storage.back());
    }
    storage[0].push(makeRequest(BusOp::Read, 2));
    EXPECT_DEATH(fabric.tick(), "had no request");
}

} // namespace
} // namespace dir
} // namespace ddc
