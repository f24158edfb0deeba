#include "sim/bus.hh"

#include <bit>

#include "base/logging.hh"

namespace ddc {

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
 * literal instead of assembling a std::string per op per Bus.
 * tests/bus_test.cc pins each name to its toString(BusOp) spelling.
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

namespace {

std::size_t
opIndex(BusOp op)
{
    return static_cast<std::size_t>(op);
}

constexpr std::uint64_t
clientBit(int client)
{
    return std::uint64_t{1} << client;
}

} // namespace

Addr
BusClient::pendingAddr() const
{
    ddc_panic("this bus client cannot be address-routed (pendingAddr "
              "is only implemented by global-fabric clients)");
}

Bus::Bus(MemorySide &memory, ArbiterKind arbiter_kind, const Clock &clock,
         stats::CounterSet &stats, std::uint64_t seed,
         std::size_t block_words, std::size_t memory_latency,
         bool snoop_filter)
    : memory(memory), arbiter(makeArbiter(arbiter_kind, seed)),
      clock(clock), stats(stats), blockSize(block_words),
      memoryLatency(memory_latency),
      filterOn(snoop_filter)
{
    ddc_assert(block_words >= 1, "block size must be at least one word");
    if ((blockSize & (blockSize - 1)) == 0) {
        for (std::size_t size = blockSize; size > 1; size >>= 1)
            blockShift++;
    } else {
        blockPow2 = false;
    }
    statBusy = stats.intern("bus.busy_cycles");
    statTransfer = stats.intern("bus.transfer_cycles");
    statIdle = stats.intern("bus.idle_cycles");
    statKill = stats.intern("bus.kill");
    statSupplyWrite = stats.intern("bus.supply_write");
    statRmwSuccess = stats.intern("bus.rmw_success");
    statRmwFail = stats.intern("bus.rmw_fail");
    statNack = stats.intern("bus.nack");
    for (auto op : {BusOp::Read, BusOp::Write, BusOp::Invalidate,
                    BusOp::Rmw, BusOp::ReadLock, BusOp::WriteUnlock}) {
        statOp[opIndex(op)] = stats.intern(busOpStatName(op));
        statNackOp[opIndex(op)] = stats.intern(busNackStatName(op));
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
    armed.set(index);
    armedCount++;
    always.set(index);
    suppliers.push_back(1);
    supplierCount++;
    indexed.push_back(0);
    if (clients.size() > kMaxFilterClients) {
        revertToFullSnoop();
    } else {
        alwaysSnoopMask |= clientBit(index);
        supplierMask |= clientBit(index);
    }
    return index;
}

void
Bus::setSnoopIndexed(int client)
{
    auto index = static_cast<std::size_t>(client);
    ddc_assert(index < clients.size(), "bad bus client index ", client);
    if (indexed[index])
        return;
    indexed[index] = 1;
    if (index < kMaxFilterClients)
        alwaysSnoopMask &= ~clientBit(client);
}

void
Bus::noteReactions(int client, Addr base, ReactionClass from,
                   ReactionClass to)
{
    ddc_assert(static_cast<std::size_t>(client) < clients.size() &&
                   indexed[static_cast<std::size_t>(client)],
               "reaction note from a non-indexed client ", client);
    if (!filterOn)
        return;
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
Bus::occupy(std::size_t extra_cycles)
{
    transferCyclesLeft += extra_cycles;
}

void
Bus::skipCycles(Cycle count)
{
    // Streaming past the end of the in-flight transfer is only legal
    // when no client could have requested the freed bus.
    ddc_assert(count <= static_cast<Cycle>(transferCyclesLeft) ||
                   armedClients() == 0,
               "skipped across a bus grant opportunity");
    auto streamed = std::min(count,
                             static_cast<Cycle>(transferCyclesLeft));
    if (streamed > 0) {
        transferCyclesLeft -= static_cast<std::size_t>(streamed);
        stats.add(statBusy, streamed);
        stats.add(statTransfer, streamed);
    }
    if (count > streamed)
        stats.add(statIdle, count - streamed);
}

void
Bus::tick()
{
    if (transferCyclesLeft > 0) {
        // A multi-cycle transfer is still streaming over the bus.
        transferCyclesLeft--;
        stats.add(statBusy);
        stats.add(statTransfer);
        return;
    }

    const ClientMask &ready = collectRequesters();
    if (ready.empty()) {
        stats.add(statIdle);
        return;
    }
    stats.add(statBusy);

    int grant = arbiter->pick(ready);
    BusRequest request = clients[static_cast<std::size_t>(grant)]
                             ->currentRequest();

    switch (request.op) {
      case BusOp::Read:
      case BusOp::ReadLock:
      case BusOp::Rmw:
        executeReadLike(grant, request);
        break;
      case BusOp::Write:
      case BusOp::WriteUnlock:
      case BusOp::Invalidate:
        executeWriteLike(grant, request);
        break;
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
Bus::revertToFullSnoop()
{
    // Only an *active* filter degrades; a bus built (or already
    // reverted) with filtering off is just doing what it was asked.
    if (filterOn) {
        fallbackCount++;
        ddc_warn("snoop filter reverting to full snooping (more than 64 "
                 "clients); run continues correct but O(clients) per "
                 "snoop");
    }
    filterOn = false;
    holders.clear();
}

void
Bus::setObserver(obs::Recorder *recorder, int bus_id)
{
    busId = bus_id;
    busTrace = recorder ? recorder->trace(obs::Category::Bus) : nullptr;
    lockRec = recorder ? recorder->lockLog() : nullptr;
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

    if (!filterOn) {
        for (std::size_t i = 0; i < clients.size(); i++) {
            if (static_cast<int>(i) == skip || !suppliers[i])
                continue;
            snoopVisitCount++;
            Word candidate = 0;
            if (clients[i]->wouldSupply(addr, candidate)) {
                ddc_assert(supplier < 0,
                           "two caches claim ownership of addr ", addr,
                           " (single-Local invariant violated)");
                supplier = static_cast<int>(i);
                value = candidate;
            }
        }
        return supplier;
    }

    // Supplying is a reaction to a snooped read, so a supplier is
    // either in the block's read mask or an always-snoop client;
    // polling anyone else could only return false.
    std::uint64_t mask = snooperMask(addr, BusOp::Read) & supplierMask;
    if (skip >= 0)
        mask &= ~clientBit(skip);
    for (; mask != 0; mask &= mask - 1) {
        int c = std::countr_zero(mask);
        snoopVisitCount++;
        Word candidate = 0;
        if (clients[static_cast<std::size_t>(c)]->wouldSupply(addr,
                                                              candidate)) {
            ddc_assert(supplier < 0,
                       "two caches claim ownership of addr ", addr,
                       " (single-Local invariant violated)");
            supplier = c;
            value = candidate;
        }
    }

#ifndef NDEBUG
    // Cross-check the index against the pre-filter full scan: every
    // client the filter skipped must indeed decline to supply.
    // (Double-polling is safe: wouldSupply is pure for caches and
    // idempotent for the hierarchical cluster cache.)
    int full_scan = -1;
    for (std::size_t i = 0; i < clients.size(); i++) {
        if (static_cast<int>(i) == skip || !suppliers[i])
            continue;
        Word candidate = 0;
        if (clients[i]->wouldSupply(addr, candidate))
            full_scan = static_cast<int>(i);
    }
    ddc_assert(full_scan == supplier,
               "snoop index disagrees with the full supplier scan for "
               "addr ", addr, ": index says ", supplier, ", scan says ",
               full_scan);
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
Bus::executeReadLike(int grant, const BusRequest &request)
{
    auto *grantee = clients[static_cast<std::size_t>(grant)];

    Word supplied_value = 0;
    int supplier = findSupplier(grant, request.addr, supplied_value);

    if (supplier >= 0) {
        // Kill the transaction and replace it with the owner's bus
        // write; the original request stays pending and retries.
        auto *owner = clients[static_cast<std::size_t>(supplier)];
        stats.add(statKill);
        stats.add(statSupplyWrite);
        stats.add(statOp[opIndex(BusOp::Write)]);
        if (busTrace) {
            traceInstant("kill", request.addr,
                         toString(request.op).data());
            traceComplete("supply_write", request.addr, supplier,
                          blockSize > 1 ? blockCost() : wordCost());
        }
        // A killed lock RMW is deliberately not a lock release: the
        // supplier is publishing the held value, not unlocking.
        grantee->requestKilled();

        BusTransaction txn{BusOp::Write, request.addr, supplied_value,
                           supplier, {}};
        if (blockSize > 1) {
            Addr base = blockBase(request.addr);
            txn.block = owner->supplyBlock(request.addr);
            ddc_assert(txn.block.size() == blockSize,
                       "supplier returned a malformed block");
            memory.acceptSupplyBlock(base, txn.block);
            occupy(blockCost());
        } else {
            memory.acceptSupply(request.addr, supplied_value);
            occupy(wordCost());
        }
        broadcast(txn, supplier);
        owner->supplied(request.addr);
        return;
    }

    PeId pe = grantee->peId();
    switch (request.op) {
      case BusOp::Read: {
        if (request.block_transfer && blockSize > 1) {
            Addr base = blockBase(request.addr);
            BusResult result;
            if (!memory.tryReadBlock(base, blockSize, pe, result.block)) {
                nack(grant, request);
                return;
            }
            stats.add(statOp[opIndex(request.op)]);
            if (busTrace)
                traceComplete(toString(request.op), request.addr,
                              grant, blockCost(), "block");
            result.data =
                result.block[static_cast<std::size_t>(request.addr -
                                                      base)];
            occupy(blockCost());
            BusTransaction txn{BusOp::Read, request.addr, result.data,
                               grant, result.block};
            broadcast(txn, grant);
            grantee->requestComplete(result);
        } else {
            Word data = 0;
            if (!memory.tryRead(request.addr, pe, data)) {
                nack(grant, request);
                return;
            }
            stats.add(statOp[opIndex(request.op)]);
            if (busTrace)
                traceComplete(toString(request.op), request.addr,
                              grant, wordCost());
            occupy(wordCost());
            broadcast({BusOp::Read, request.addr, data, grant, {}},
                      grant);
            grantee->requestComplete({data, false, {}});
        }
        return;
      }
      case BusOp::ReadLock: {
        Word data = 0;
        if (!memory.tryReadLock(request.addr, pe, data)) {
            nack(grant, request);
            return;
        }
        stats.add(statOp[opIndex(request.op)]);
        if (busTrace)
            traceComplete(toString(request.op), request.addr, grant,
                          wordCost());
        if (lockRec)
            lockRec->attempt(pe, request.addr, clock.now, true);
        occupy(wordCost());
        broadcast({BusOp::Read, request.addr, data, grant, {}}, grant);
        grantee->requestComplete({data, false, {}});
        return;
      }
      case BusOp::Rmw: {
        Word old = 0;
        bool success = false;
        if (!memory.tryRmw(request.addr, pe, request.data, old, success)) {
            nack(grant, request);
            return;
        }
        stats.add(statOp[opIndex(request.op)]);
        if (busTrace)
            traceComplete(toString(request.op), request.addr, grant,
                          wordCost(), success ? "success" : "fail");
        if (lockRec)
            lockRec->attempt(pe, request.addr, clock.now, success);
        occupy(wordCost());
        if (success) {
            stats.add(statRmwSuccess);
            broadcast({BusOp::Write, request.addr, request.data, grant,
                       {}},
                      grant);
            grantee->requestComplete({old, true, {}});
        } else {
            stats.add(statRmwFail);
            broadcast({BusOp::Read, request.addr, old, grant, {}}, grant);
            grantee->requestComplete({old, false, {}});
        }
        return;
      }
      default:
        break;
    }
    ddc_panic("unreachable");
}

void
Bus::executeWriteLike(int grant, const BusRequest &request)
{
    auto *grantee = clients[static_cast<std::size_t>(grant)];
    PeId pe = grantee->peId();

    BusTransaction txn;
    txn.addr = request.addr;
    txn.data = request.data;
    txn.issuer = grant;
    // Snoopers see the RWB BI signal as-is and everything else as an
    // effective bus write.
    txn.op = request.op == BusOp::Invalidate ? BusOp::Invalidate
                                             : BusOp::Write;

    if (request.block_transfer && blockSize > 1) {
        // Write-back / flush of a whole dirty block.
        ddc_assert(request.block_data.size() == blockSize,
                   "malformed block write");
        if (!memory.tryWriteBlock(blockBase(request.addr), pe,
                                  request.block_data)) {
            nack(grant, request);
            return;
        }
        txn.block = request.block_data;
        occupy(blockCost());
    } else if (request.op == BusOp::WriteUnlock) {
        if (!memory.tryWriteUnlock(request.addr, pe, request.data)) {
            nack(grant, request);
            return;
        }
        occupy(wordCost());
    } else if (request.op == BusOp::Invalidate) {
        if (!memory.tryInvalidate(request.addr, pe, request.data)) {
            nack(grant, request);
            return;
        }
        occupy(wordCost());
    } else {
        if (!memory.tryWrite(request.addr, pe, request.data)) {
            // "Any bus writes before the unlock will fail" (Section 3).
            nack(grant, request);
            return;
        }
        occupy(wordCost());
    }

    stats.add(statOp[opIndex(request.op)]);
    if (busTrace)
        traceComplete(toString(request.op), request.addr, grant,
                      request.block_transfer && blockSize > 1
                          ? blockCost()
                          : wordCost(),
                      request.block_transfer ? "block" : nullptr);
    broadcast(txn, grant);
    grantee->requestComplete({request.data, false, {}});
}

void
Bus::broadcast(const BusTransaction &txn, int skip)
{
    if (!filterOn) {
        for (std::size_t i = 0; i < clients.size(); i++) {
            if (static_cast<int>(i) == skip)
                continue;
            snoopVisitCount++;
            clients[i]->observe(txn);
        }
        return;
    }

    // A skipped client's line for the block does not react to this op
    // (or it holds none), so its observe() would leave the state as it
    // is and snarf nothing: filtering is unobservable in state,
    // counters, and the log.
    std::uint64_t mask = snooperMask(txn.addr, txn.op);
    if (skip >= 0)
        mask &= ~clientBit(skip);
#ifndef NDEBUG
    // Cross-check the masks against the clients themselves, before
    // any delivery moves a state: every indexed client they skip must
    // report its line as non-reactive to this op.
    for (std::size_t i = 0; i < clients.size(); i++) {
        if (!indexed[i] || static_cast<int>(i) == skip ||
            (mask & clientBit(static_cast<int>(i))))
            continue;
        ddc_assert(!(clients[i]->reactionClass(txn.addr) &
                     reactionBit(txn.op)),
                   "snoop index skipped client ", i, ", which reacts to ",
                   toString(txn.op), " on addr ", txn.addr);
    }
#endif
    for (; mask != 0; mask &= mask - 1) {
        int c = std::countr_zero(mask);
        snoopVisitCount++;
        clients[static_cast<std::size_t>(c)]->observe(txn);
    }
}

void
Bus::nack(int grant, const BusRequest &request)
{
    stats.add(statNack);
    stats.add(statNackOp[opIndex(request.op)]);
    if (busTrace)
        traceInstant("nack", request.addr,
                     toString(request.op).data());
    // A NACKed lock primitive is a failed acquisition attempt (the
    // word is locked by another PE's two-phase RMW).
    if (lockRec &&
        (request.op == BusOp::Rmw || request.op == BusOp::ReadLock))
        lockRec->attempt(clients[static_cast<std::size_t>(grant)]
                             ->peId(),
                         request.addr, clock.now, false);
    clients[static_cast<std::size_t>(grant)]->requestNacked();
}

} // namespace ddc
