#include "sim/bus.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace ddc {

namespace {

std::string_view
busOpStatName(BusOp op)
{
    switch (op) {
      case BusOp::Read:        return "bus.read";
      case BusOp::Write:       return "bus.write";
      case BusOp::Invalidate:  return "bus.invalidate";
      case BusOp::Rmw:         return "bus.rmw";
      case BusOp::ReadLock:    return "bus.readlock";
      case BusOp::WriteUnlock: return "bus.writeunlock";
    }
    ddc_panic("unknown BusOp ", static_cast<int>(op));
}

/**
 * "bus.nack." + toString(op), pre-joined so the constructor interns a
 * literal instead of assembling a std::string per op per path.
 */
std::string_view
busNackStatName(BusOp op)
{
    switch (op) {
      case BusOp::Read:        return "bus.nack.BusRead";
      case BusOp::Write:       return "bus.nack.BusWrite";
      case BusOp::Invalidate:  return "bus.nack.BusInvalidate";
      case BusOp::Rmw:         return "bus.nack.BusRmw";
      case BusOp::ReadLock:    return "bus.nack.BusReadLock";
      case BusOp::WriteUnlock: return "bus.nack.BusWriteUnlock";
    }
    ddc_panic("unknown BusOp ", static_cast<int>(op));
}

constexpr std::uint64_t
clientBit(int client)
{
    return std::uint64_t{1} << client;
}

} // namespace

BusStats::BusStats(stats::CounterSet &stats)
    : busy(stats.intern("bus.busy_cycles")),
      transfer(stats.intern("bus.transfer_cycles")),
      idle(stats.intern("bus.idle_cycles")), kill(stats.intern("bus.kill")),
      supplyWrite(stats.intern("bus.supply_write")),
      rmwSuccess(stats.intern("bus.rmw_success")),
      rmwFail(stats.intern("bus.rmw_fail")), nack(stats.intern("bus.nack"))
{
    for (std::size_t i = 0; i < kNumBusOps; i++) {
        op[i] = stats.intern(busOpStatName(static_cast<BusOp>(i)));
        nackOp[i] = stats.intern(busNackStatName(static_cast<BusOp>(i)));
    }
}

Addr
BusClient::pendingAddr() const
{
    ddc_panic("this bus client cannot be address-routed (pendingAddr "
              "is only implemented by global-fabric clients)");
}

Bus::Bus(MemorySide &memory, ArbiterKind arbiter_kind, const Clock &clock,
         stats::CounterSet &stats, std::uint64_t seed,
         std::size_t block_words, std::size_t memory_latency,
         bool snoop_filter, bool park_repeats)
    : TransactionPath(stats), memory(memory),
      arbiter(makeArbiter(arbiter_kind, seed)), clock(clock),
      blockSize(block_words),
      memoryLatency(memory_latency),
      parkable(park_repeats && memory.rmwNacksRepeat()),
      filterOn(snoop_filter)
{
    ddc_assert(block_words >= 1, "block size must be at least one word");
    if ((blockSize & (blockSize - 1)) == 0) {
        for (std::size_t size = blockSize; size > 1; size >>= 1)
            blockShift++;
    } else {
        blockPow2 = false;
    }
}

int
Bus::attach(BusClient *client)
{
    ddc_assert(client != nullptr, "null bus client");
    clients.push_back(client);
    int index = static_cast<int>(clients.size()) - 1;
    for (ClientMask *mask : {&armed, &poll, &always, &ready})
        mask->resize(clients.size());
    for (ClientMask &mask : repeaters)
        mask.resize(clients.size());
    armed.set(index);
    armedCount++;
    always.set(index);
    suppliers.push_back(1);
    supplierCount++;
    indexed.push_back(0);
    if (clients.size() <= kMaxFilterClients) {
        alwaysSnoopMask |= clientBit(index);
        supplierMask |= clientBit(index);
    }
    return index;
}

bool
Bus::setSnoopIndexed(int client)
{
    auto index = static_cast<std::size_t>(client);
    ddc_assert(index < clients.size(), "bad bus client index ", client);
    if (!filterOn || index >= kMaxFilterClients)
        return false;
    indexed[index] = 1;
    alwaysSnoopMask &= ~clientBit(client);
    return true;
}

void
Bus::noteReactions(int client, Addr base, ReactionClass from,
                   ReactionClass to)
{
    ddc_assert(static_cast<std::size_t>(client) < clients.size() &&
                   indexed[static_cast<std::size_t>(client)],
               "reaction note from a non-indexed client ", client);
    std::uint64_t bit = clientBit(client);
    ReactionMasks &masks = holders.findOrInsert(blockIndex(base));
    ReactionClass held = static_cast<ReactionClass>(
        ((masks.read & bit) ? kReactsToRead : 0) |
        ((masks.write & bit) ? kReactsToWrite : 0));
    ddc_assert(held == from, "client ", client, " noted reaction class ",
               static_cast<int>(from), "->", static_cast<int>(to),
               " for block ", base, " but the index holds ",
               static_cast<int>(held));
    masks.read = (to & kReactsToRead) ? masks.read | bit
                                      : masks.read & ~bit;
    masks.write = (to & kReactsToWrite) ? masks.write | bit
                                        : masks.write & ~bit;
    if ((masks.read | masks.write) == 0)
        holders.erase(blockIndex(base));
}

std::vector<int>
Bus::indexHolders(Addr addr, BusOp op) const
{
    std::vector<int> held;
    std::uint64_t mask = reactingMask(addr, op);
    for (; mask != 0; mask &= mask - 1)
        held.push_back(std::countr_zero(mask));
    return held;
}

void
Bus::setSupplier(int client, bool is_supplier)
{
    auto index = static_cast<std::size_t>(client);
    ddc_assert(index < clients.size(), "bad bus client index ", client);
    char flag = is_supplier ? 1 : 0;
    if (suppliers[index] == flag)
        return;
    settle();
    suppliers[index] = flag;
    if (is_supplier)
        supplierCount++;
    else
        supplierCount--;
    if (index < kMaxFilterClients) {
        if (is_supplier)
            supplierMask |= clientBit(client);
        else
            supplierMask &= ~clientBit(client);
    }
}

void
Bus::setRequestArmed(int client, bool is_armed)
{
    ddc_assert(static_cast<std::size_t>(client) < clients.size(),
               "bad bus client index ", client);
    if (armed.test(client) == is_armed)
        return;
    settle();
    unrepeat(client);
    if (is_armed) {
        armed.set(client);
        armedCount++;
    } else {
        armed.reset(client);
        poll.reset(client);
        armedCount--;
    }
}

void
Bus::setPollOnStale(int client)
{
    ddc_assert(static_cast<std::size_t>(client) < clients.size(),
               "bad bus client index ", client);
    settle();
    always.reset(client);
    // A client opting in while armed gets one real poll first.
    if (armed.test(client))
        poll.set(client);
}

const ClientMask &
Bus::collectRequesters()
{
    ready.clear();
    if (armedClients() == 0)
        return ready;
    // Poll in ascending order, exactly where a poll of every armed
    // client would have made a call that can matter, and re-read the
    // masks after each poll: a poll may arm, disarm or mark another
    // client, and only clients above it see that in the same pass.
    // An opted-in client between two polls counts as ready as the
    // pass reaches it (its unpolled answer is a side-effect-free yes).
    for (std::size_t w = 0; w < armed.numWords(); w++) {
        // The bits of this word at or below the last poll.
        std::uint64_t passed = 0;
        for (;;) {
            std::uint64_t due = armed.word(w) &
                                (poll.word(w) | always.word(w)) & ~passed;
            std::uint64_t next = due & -due; // lowest due bit, or 0
            std::uint64_t reached = (next - 1) & ~passed;
            ready.word(w) |= armed.word(w) & ~always.word(w) &
                             ~poll.word(w) & reached;
            if (next == 0)
                break;
            passed = next | (next - 1);
            int client = static_cast<int>(w * 64) + std::countr_zero(next);
            poll.reset(client);
            if (clients[static_cast<std::size_t>(client)]->hasRequest())
                ready.set(client);
        }
    }
#ifndef NDEBUG
    // Cross-check the promise: every opted-in client counted without
    // a poll must answer yes (and, unstale, without side effects).
    for (std::size_t i = 0; i < clients.size(); i++) {
        int client = static_cast<int>(i);
        if (armed.test(client) && !always.test(client) &&
            !poll.test(client))
            ddc_assert(clients[i]->hasRequest(), "bus client ", client,
                       " is armed and unstale but has no request");
    }
#endif
    return ready;
}

bool
Bus::idle()
{
    if (transferCyclesLeft > 0)
        return false;
    return collectRequesters().empty();
}

void
Bus::skipCycles(Cycle count)
{
    // A parked bus has an armed client, so nextEventCycle() is now.
    ddc_assert(!parked, "skipped cycles of a parked bus");
    // Streaming past the end of the in-flight transfer is only legal
    // when no client could have requested the freed bus.
    ddc_assert(count <= static_cast<Cycle>(transferCyclesLeft) ||
                   armedClients() == 0,
               "skipped across a bus grant opportunity");
    auto streamed = std::min(count,
                             static_cast<Cycle>(transferCyclesLeft));
    if (streamed > 0) {
        transferCyclesLeft -= static_cast<std::size_t>(streamed);
        stats.add(busStats.busy, streamed);
        stats.add(busStats.transfer, streamed);
    }
    if (count > streamed)
        stats.add(busStats.idle, count - streamed);
}

std::size_t
Bus::repeatSlot(BusOp op)
{
    switch (op) {
      case BusOp::Rmw:         return 0;
      case BusOp::ReadLock:    return 1;
      case BusOp::WriteUnlock: return 2;
      default:                 return kNumRepeatOps;
    }
}

void
Bus::tryPark(BusOp op)
{
    // The next grants must go, unpolled and unchanged, to the armed
    // set the arbiter is told about, and an Rmw or ReadLock's supplier
    // scan must visit no one (so snoopVisits stays exact).
    if (transferCyclesLeft > 0 || supplierCount > 0)
        return;
    for (std::size_t w = 0; w < armed.numWords(); w++) {
        if (armed.word(w) & (poll.word(w) | always.word(w)))
            return;
    }
    const ClientMask &repeating = repeaters[repeatSlot(op)];
    std::uint64_t run = arbiter->repeatRun(armed, repeating);
    if (run == 0)
        return;
    parked = true;
    parkOp = op;
    parkRun = run;
#ifndef NDEBUG
    parkArmed = armed;
    parkPoll = poll;
    parkAlways = always;
    parkRepeaters = repeating;
    parkSuppliers = supplierCount;
#endif
}

void
Bus::catchUp()
{
    parked = false;
    if (owed == 0)
        return;
    // Every owed cycle was a grant to a repeater of parkOp, NACKed.
    stats.add(busStats.busy, owed);
    stats.add(busStats.nack, owed);
    stats.add(busStats.nackOp[static_cast<std::size_t>(parkOp)], owed);
    arbiter->advance(armed, owed);
    parkedTotal += owed;
    owed = 0;
}

void
Bus::checkParked() const
{
#ifndef NDEBUG
    // Every change to these goes through a trigger that catches the
    // bus up first; a mismatch is a missed trigger.
    ddc_assert(armed == parkArmed && poll == parkPoll &&
                   always == parkAlways &&
                   repeaters[repeatSlot(parkOp)] == parkRepeaters &&
                   supplierCount == parkSuppliers,
               "a parked bus's clients changed without a catch-up");
#endif
}

void
Bus::tick()
{
    if (parked) {
        if (owed < parkRun) {
            owed++;
            checkParked();
            return;
        }
        // The next grant goes to a client that does not repeat.
        catchUp();
    }
    if (transferCyclesLeft > 0) {
        // A multi-cycle transfer is still streaming over the bus.
        transferCyclesLeft--;
        stats.add(busStats.busy);
        stats.add(busStats.transfer);
        return;
    }

    const ClientMask &ready = collectRequesters();
    if (ready.empty()) {
        stats.add(busStats.idle);
        return;
    }
    stats.add(busStats.busy);

    int grant = arbiter->pick(ready);
    unrepeat(grant);
    BusRequest request = clients[static_cast<std::size_t>(grant)]
                             ->currentRequest();
    serve(clients, grant, request);
    if (repeatNacked) {
        repeatNacked = false;
        tryPark(request.op);
    }
}

std::uint64_t
Bus::blockIndex(Addr addr) const
{
    if (blockPow2)
        return addr >> blockShift;
    return addr / blockSize;
}

std::uint64_t
Bus::snooperMask(Addr addr, BusOp op) const
{
    return reactingMask(addr, op) | alwaysSnoopMask;
}

void
Bus::setObserver(obs::Recorder *recorder, int bus_id)
{
    busId = bus_id;
    busTrace = recorder ? recorder->trace(obs::Category::Bus) : nullptr;
    setLockLog(recorder ? recorder->lockLog() : nullptr, &clock);
    // Parked grants are never traced, logged or sampled, and the
    // grantee's retry count (read by histograms and the miss trace)
    // is not told of them, so any of those observers keeps every
    // grant ticked.  Phase profiling reads none of them.
    bool observed = busTrace != nullptr || lockLog != nullptr ||
                    (recorder != nullptr &&
                     (recorder->liveMetrics() != nullptr ||
                      recorder->trace(obs::Category::Miss) != nullptr ||
                      recorder->sampler() != nullptr));
    parkable = parkable && !observed;
}

void
Bus::traceComplete(std::string_view name, Addr addr, int issuer,
                   std::size_t extra_cycles, const char *detail)
{
    obs::TraceEvent event;
    event.ts = clock.now;
    event.dur = 1 + static_cast<Cycle>(extra_cycles);
    event.name = name;
    event.detail = detail;
    event.addr = addr;
    event.has_addr = true;
    event.value = issuer;
    event.value_name = "issuer";
    event.phase = 'X';
    event.track = obs::kTrackBuses;
    event.tid = busId;
    busTrace->push(event);
}

void
Bus::traceInstant(std::string_view name, Addr addr,
                  const char *detail)
{
    obs::TraceEvent event;
    event.ts = clock.now;
    event.name = name;
    event.detail = detail;
    event.addr = addr;
    event.has_addr = true;
    event.track = obs::kTrackBuses;
    event.tid = busId;
    busTrace->push(event);
}

int
Bus::findSupplier(int skip, Addr addr, Word &value)
{
    // Snoop phase: does a cache hold the latest value (Local state)?
    int supplier = -1;
    if (supplierCount == 0)
        return supplier;
    auto poll = [&](std::size_t client) {
        snoopVisitCount++;
        Word candidate = 0;
        if (clients[client]->wouldSupply(addr, candidate)) {
            ddc_assert(supplier < 0, "two caches claim ownership of addr ",
                       addr, " (single-Local invariant violated)");
            supplier = static_cast<int>(client);
            value = candidate;
        }
    };

    // Clients polled one by one: all, or those past the masks.
    std::size_t unmasked = 0;
    if (filterOn) {
        // Supplying is a reaction to a snooped read, so a masked
        // supplier is either in the block's read mask or an
        // always-snoop client; polling anyone else could only return
        // false.
        std::uint64_t mask = snooperMask(addr, BusOp::Read) & supplierMask;
        if (skip >= 0 && static_cast<std::size_t>(skip) < kMaxFilterClients)
            mask &= ~clientBit(skip);
        for (; mask != 0; mask &= mask - 1)
            poll(static_cast<std::size_t>(std::countr_zero(mask)));
        unmasked = kMaxFilterClients;
    }
    for (std::size_t i = unmasked; i < clients.size(); i++) {
        if (static_cast<int>(i) != skip && suppliers[i])
            poll(i);
    }

#ifndef NDEBUG
    // Cross-check the index against the pre-filter full scan: every
    // client the filter skipped must indeed decline to supply.
    // (Double-polling is safe: wouldSupply is pure for caches and
    // idempotent for the hierarchical cluster cache.)
    if (filterOn) {
        int full_scan = -1;
        for (std::size_t i = 0; i < clients.size(); i++) {
            if (static_cast<int>(i) == skip || !suppliers[i])
                continue;
            Word candidate = 0;
            if (clients[i]->wouldSupply(addr, candidate))
                full_scan = static_cast<int>(i);
        }
        ddc_assert(full_scan == supplier,
                   "snoop index disagrees with the full supplier scan "
                   "for addr ", addr, ": index says ", supplier,
                   ", scan says ", full_scan);
    }
#endif
    return supplier;
}

BusClient *
Bus::localSupplier(Addr addr, Word &value, int skip)
{
    int supplier = findSupplier(skip, addr, value);
    return supplier < 0 ? nullptr
                        : clients[static_cast<std::size_t>(supplier)];
}

void
Bus::broadcast(const BusTransaction &txn, int skip)
{
    // Clients visited one by one: all, or those past the masks.
    std::size_t unmasked = 0;
    if (filterOn) {
        // A skipped client's line for the block does not react to this
        // op (or it holds none), so its observe() would leave the state
        // as it is and snarf nothing: filtering is unobservable in
        // state, counters, and the log.
        std::uint64_t mask = snooperMask(txn.addr, txn.op);
        if (skip >= 0 && static_cast<std::size_t>(skip) < kMaxFilterClients)
            mask &= ~clientBit(skip);
#ifndef NDEBUG
        // Cross-check the masks against the clients themselves, before
        // any delivery moves a state: every indexed client they skip
        // must report its line as non-reactive to this op.
        for (std::size_t i = 0; i < clients.size(); i++) {
            if (!indexed[i] || static_cast<int>(i) == skip ||
                (mask & clientBit(static_cast<int>(i))))
                continue;
            ddc_assert(!(clients[i]->reactionClass(txn.addr) &
                         reactionBit(txn.op)),
                       "snoop index skipped client ", i,
                       ", which reacts to ", toString(txn.op), " on addr ",
                       txn.addr);
        }
#endif
        for (; mask != 0; mask &= mask - 1) {
            int c = std::countr_zero(mask);
            snoopVisitCount++;
            clients[static_cast<std::size_t>(c)]->observe(txn);
        }
        unmasked = kMaxFilterClients;
    }
    for (std::size_t i = unmasked; i < clients.size(); i++) {
        if (static_cast<int>(i) == skip)
            continue;
        snoopVisitCount++;
        clients[i]->observe(txn);
    }
}

void
Bus::carry(std::string_view name, Addr addr, int issuer, bool block,
           const char *detail)
{
    // Every transfer holds the bus for the memory latency; a block
    // streams one more cycle per word past the first.
    std::size_t extra = memoryLatency + (block ? blockSize - 1 : 0);
    if (busTrace)
        traceComplete(name, addr, issuer, extra, detail);
    transferCyclesLeft += extra;
}

void
Bus::killed(const BusRequest &request)
{
    if (busTrace)
        traceInstant("kill", request.addr, toString(request.op).data());
}

void
Bus::nacked(int grant, const BusRequest &request)
{
    if (busTrace)
        traceInstant("nack", request.addr, toString(request.op).data());
    // The memory side declares this NACK repeats until the client's
    // request changes: the client is a repeater from here on.
    std::size_t slot = repeatSlot(request.op);
    if (parkable && slot < kNumRepeatOps) {
        repeaters[slot].set(grant);
        repeaterCount++;
        repeatNacked = true;
    }
}

} // namespace ddc
