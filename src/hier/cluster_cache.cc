#include "hier/cluster_cache.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ddc {
namespace hier {

ClusterCache::ClusterCache(int cluster_id, stats::CounterSet &stats)
    : clusterId(cluster_id), stats(stats)
{
    statForwardCancelled = stats.intern("hier.forward_cancelled");
    statDroppedReadCompletion =
        stats.intern("hier.dropped_read_completion");
    statPull = stats.intern("hier.pull");
    statForwardResolvedLocally =
        stats.intern("hier.forward_resolved_locally");
    statFlush = stats.intern("hier.flush");
    statGlobalInvalidation = stats.intern("hier.global_invalidation");
    statSupply = stats.intern("hier.supply");
    statForwardRotate = stats.intern("hier.forward_rotate");
    statDownwardBroadcast = stats.intern("hier.downward_broadcast");
    statAbsorbedRead = stats.intern("hier.absorbed.read");
    statAbsorbedWrite = stats.intern("hier.absorbed.write");
    for (std::size_t op = 0; op < kNumBusOps; op++) {
        statForwardOp[op] = stats.intern(
            "hier.forward." + std::string(toString(static_cast<BusOp>(op))));
    }
}

void
ClusterCache::connectGlobal(GlobalFabric &fabric)
{
    ddc_assert(global == nullptr,
               "cluster already on a global interconnect");
    ddc_assert(fabric.blockWords() == 1,
               "the hierarchical machine uses one-word blocks");
    global = &fabric;
    clientIndex = fabric.attach(this);
    // No forwards can be queued yet; re-armed as they arrive.
    fabric.setRequestArmed(clientIndex, false);
}

void
ClusterCache::updateArmed()
{
    if (global != nullptr)
        global->setRequestArmed(clientIndex, !forwards.empty());
}

void
ClusterCache::connectCluster(Bus &bus)
{
    ddc_assert(clusterBus == nullptr, "cluster bus already connected");
    clusterBus = &bus;
}

void
ClusterCache::addChild(Cache *child)
{
    ddc_assert(child != nullptr, "null child cache");
    ddc_assert(child->blockWords() == 1,
               "the hierarchical machine uses one-word blocks");
    childByPe[child->peId()].cache = child;
}

ClusterCache::Child &
ClusterCache::childOf(PeId pe)
{
    Child *child = childByPe.lookup(pe);
    ddc_assert(child != nullptr, "forward from an unknown PE ", pe);
    return *child;
}

bool
ClusterCache::owns(Addr addr) const
{
    const Entry *entry = entries.lookup(addr);
    return entry != nullptr && entry->tag == LineTag::Local;
}

bool
ClusterCache::holds(Addr addr) const
{
    return entries.contains(addr);
}

Word
ClusterCache::value(Addr addr) const
{
    const Entry *entry = entries.lookup(addr);
    return entry == nullptr ? 0 : entry->value;
}

// ---- Forwarding machinery ---------------------------------------------

void
ClusterCache::enqueueForward(BusOp op, Addr addr, Word data, PeId pe)
{
    Child &child = childOf(pe);
    if (child.queued)
        return; // One outstanding global op per PE.
    child.queued = true;

    Forward forward;
    forward.op = op;
    forward.addr = addr;
    forward.data = data;
    forward.origin = pe;
    forward.origin_child = child.cache;
    forward.child_access = child.cache->accessId();
    forwards.push_back(forward);
    updateArmed();
    stats.add(statForwardOp[static_cast<std::size_t>(op)]);
}

void
ClusterCache::cancelForward(PeId pe)
{
    // The cluster bus is about to service this PE's operation locally
    // (a sibling's forward acquired ownership first, or the block
    // arrived meanwhile), so a queued global forward for it is stale.
    // Between bus ticks no forward is mid-flight, so erasing the front
    // is safe too.
    if (!childOf(pe).queued)
        return;
    auto it = std::find_if(forwards.begin(), forwards.end(),
                           [pe](const Forward &forward) {
                               return forward.origin == pe;
                           });
    ddc_assert(it != forwards.end(), "PE ", pe,
               " is flagged queued but has no forward");
    dequeue(it);
    stats.add(statForwardCancelled);
}

std::deque<ClusterCache::Forward>::iterator
ClusterCache::dequeue(std::deque<Forward>::iterator it)
{
    Child &child = childOf(it->origin);
    child.queued = false;
    // The PE's next RMW-class grant enqueues again instead of
    // repeating a NACK (an abandoned read's forward can hold the slot
    // under a later TestAndSet, whose L1 hears nothing here).
    clusterBus->endRepeat(child.cache->busClient());
    if (it == forwards.begin())
        flushing = false;
    it = forwards.erase(it);
    updateArmed();
    return it;
}

void
ClusterCache::deliverToChild(const Forward &forward,
                             const BusResult &result)
{
    Cache *child = forward.origin_child;
    if (child->busy() && child->accessId() == forward.child_access) {
        child->requestComplete(result);
    } else {
        ddc_assert(forward.op == BusOp::Read,
                   "a non-read forward was abandoned by its L1");
        stats.add(statDroppedReadCompletion);
    }
}

void
ClusterCache::pullFromChild(Addr addr, Entry &entry, int skip)
{
    Word child_value = 0;
    BusClient *child = clusterBus->localSupplier(addr, child_value, skip);
    if (child == nullptr)
        return;
    entry.value = child_value;
    child->supplied(addr);
    stats.add(statPull);
}

void
ClusterCache::resolvePendingLocally()
{
    // Sibling forwards can make an already-queued forward serviceable
    // inside the cluster: a read whose word arrived meanwhile, or a
    // write to a word the cluster now owns.  Serving it locally keeps
    // it off the global bus and, crucially, keeps a global read from
    // bypassing cluster ownership.  Both need an entry that only a
    // global completion creates or promotes, so nothing changed since
    // the last scan unless requestComplete() ran.
    if (!mayResolve)
        return;
    mayResolve = false;
    for (auto it = forwards.begin(); it != forwards.end();) {
        // RMW-class forwards always serialize globally.
        if (it->op != BusOp::Read && it->op != BusOp::Write &&
            it->op != BusOp::Invalidate) {
            ++it;
            continue;
        }
        Entry *entry = entries.lookup(it->addr);
        bool resolved = false;

        if (it->op == BusOp::Read && entry != nullptr) {
            pullFromChild(it->addr, *entry, it->origin_child->busClient());
            deliverToChild(*it, {entry->value, false, {}});
            resolved = true;
        } else if (it->op != BusOp::Read && entry != nullptr &&
                   entry->tag == LineTag::Local) {
            entry->value = it->data;
            // Preserve the op downward: a BI must invalidate the
            // sibling copies, a plain write updates them (RWB).
            forwardDown({it->op, it->addr, it->data, -1, {}});
            deliverToChild(*it, {it->data, false, {}});
            resolved = true;
        }

        if (resolved) {
            it = dequeue(it);
            stats.add(statForwardResolvedLocally);
        } else {
            ++it;
        }
    }
}

// ---- Global-bus client side ---------------------------------------------

bool
ClusterCache::hasRequest()
{
    resolvePendingLocally();
    return !forwards.empty();
}

BusRequest
ClusterCache::currentRequest()
{
    ddc_assert(!forwards.empty(), "no pending forward");
    const Forward &front = forwards.front();

    // RMW-class operations take their input from global memory; if
    // this cluster owns the word, its (latest) value goes back first.
    // A sibling L1 may have dirtied the word since the forward was
    // queued; pull its value (and demote it) before flushing.
    bool rmw_like = front.op == BusOp::Rmw || front.op == BusOp::ReadLock;
    Entry *entry = rmw_like ? entries.lookup(front.addr) : nullptr;
    if (entry != nullptr && entry->tag == LineTag::Local) {
        pullFromChild(front.addr, *entry);
        flushing = true;
        // writeback: the directory must not record this publish as an
        // ownership acquisition (the snooping bus ignores the flag).
        return {BusOp::Write, front.addr, entry->value, false, {}, true};
    }
    flushing = false;
    return {front.op, front.addr, front.data, false, {}};
}

Addr
ClusterCache::pendingAddr() const
{
    // Side-effect-free routing hook for the directory fabric.  The
    // front forward's address is the request's address even while
    // flushing: the pre-flush write targets the same word.
    ddc_assert(!forwards.empty(), "pendingAddr without a forward");
    return forwards.front().addr;
}

void
ClusterCache::requestComplete(const BusResult &result)
{
    ddc_assert(!forwards.empty(), "completion without a forward");
    Forward front = forwards.front();
    // Any completion may create or promote an entry a queued sibling
    // forward is waiting for; the next poll rescans the queue.
    mayResolve = true;

    if (flushing) {
        // The pre-flush write went out: global memory is current, the
        // cluster demotes to Readable, and the real op goes next.
        entries[front.addr].tag = LineTag::Readable;
        flushing = false;
        stats.add(statFlush);
        return;
    }
    dequeue(forwards.begin());

    // Apply the global RB completion to the cluster-level entry and
    // forward the effective broadcast to the children: the global bus
    // skipped us as issuer, but our L1s must snoop the event in the
    // very cycle it commits (the buses form one logical broadcast
    // medium).
    BusTransaction down;
    down.addr = front.addr;
    down.issuer = -1;
    switch (front.op) {
      case BusOp::Read:
      case BusOp::ReadLock:
        entries[front.addr] = {LineTag::Readable, result.data};
        down.op = BusOp::Read;
        down.data = result.data;
        break;
      case BusOp::Write:
      case BusOp::WriteUnlock:
        entries[front.addr] = {LineTag::Local, front.data};
        down.op = BusOp::Write;
        down.data = front.data;
        break;
      case BusOp::Invalidate:
        // A forwarded BI: the cluster takes ownership and the signal
        // invalidates (never updates) every other copy, downward too.
        entries[front.addr] = {LineTag::Local, front.data};
        down.op = BusOp::Invalidate;
        down.data = front.data;
        break;
      case BusOp::Rmw:
        if (result.rmw_success) {
            entries[front.addr] = {LineTag::Local, front.data};
            down.op = BusOp::Write;
            down.data = front.data;
        } else {
            entries[front.addr] = {LineTag::Readable, result.data};
            down.op = BusOp::Read;
            down.data = result.data;
        }
        break;
    }
    forwardDown(down);

    // Complete the originating L1 at the global commit instant, so
    // the serial position of its access is the global transaction's.
    deliverToChild(front, result);
}

bool
ClusterCache::wouldSupply(Addr addr, Word &out)
{
    const Entry *entry = entries.lookup(addr);
    if (entry == nullptr || entry->tag != LineTag::Local)
        return false;

    // The latest value is the dirty child's if one exists, else ours.
    out = entry->value;
    pendingSupplyChild = clusterBus->localSupplier(addr, out);
    return true;
}

void
ClusterCache::observe(const BusTransaction &txn)
{
    Entry *entry = entries.lookup(txn.addr);
    if (entry == nullptr)
        return; // Inclusion: no child can hold it either.

    switch (txn.op) {
      case BusOp::Read:
        // Another cluster read the word; our copy stays valid (it
        // cannot be Local here — a Local entry would have supplied).
        ddc_assert(entry->tag != LineTag::Local,
                   "global read proceeded past a Local cluster entry");
        entry->value = txn.data;
        forwardDown(txn); // read broadcast refills Invalid L1 copies
        return;

      case BusOp::Write:
      case BusOp::Invalidate: {
        // Another cluster wrote: every copy in this cluster dies.
        // The downward broadcast is always an *invalidation*: the
        // cluster entry is gone, so update-snarfing L1s (RWB) must
        // not keep live copies inclusion no longer covers.
        entries.erase(txn.addr);
        stats.add(statGlobalInvalidation);
        BusTransaction down = txn;
        down.op = BusOp::Invalidate;
        forwardDown(down);
        return;
      }

      default:
        break;
    }
    ddc_panic("cluster cache snooped unexpected bus op");
}

void
ClusterCache::supplied(Addr addr)
{
    Entry *entry = entries.lookup(addr);
    ddc_assert(entry != nullptr && entry->tag == LineTag::Local,
               "supplied() without global ownership");
    stats.add(statSupply);
    if (pendingSupplyChild != nullptr) {
        Word child_value = 0;
        bool still = pendingSupplyChild->wouldSupply(addr, child_value);
        ddc_assert(still, "supply child vanished mid-cycle");
        entry->value = child_value;
        pendingSupplyChild->supplied(addr);
        pendingSupplyChild = nullptr;
    }
    // The supplied value now matches global memory.
    entry->tag = LineTag::Readable;
}

void
ClusterCache::requestNacked()
{
    // The front forward is blocked (e.g. a TS on a word another PE
    // holds locked).  Rotate so a forward that would unblock it — the
    // holder's unlock may be queued right behind — gets its turn.
    flushing = false;
    if (forwards.size() > 1) {
        std::rotate(forwards.begin(), forwards.begin() + 1,
                    forwards.end());
        stats.add(statForwardRotate);
    }
}

PeId
ClusterCache::peId() const
{
    // Global lock bookkeeping must see the originating PE so that
    // cross-cluster two-phase RMWs pair up correctly.
    if (!forwards.empty())
        return forwards.front().origin;
    return -1000 - clusterId;
}

void
ClusterCache::forwardDown(const BusTransaction &txn)
{
    stats.add(statDownwardBroadcast);
    clusterBus->snoopDown(txn);
}

// ---- Cluster-bus memory side ---------------------------------------------

bool
ClusterCache::tryRead(Addr addr, PeId pe, Word &data)
{
    const Entry *entry = entries.lookup(addr);
    if (entry != nullptr) {
        // A dirty child would have killed the read before it got
        // here, so our copy is the cluster's latest.
        stats.add(statAbsorbedRead);
        cancelForward(pe);
        data = entry->value;
        return true;
    }
    enqueueForward(BusOp::Read, addr, 0, pe);
    return false;
}

bool
ClusterCache::tryReadBlock(Addr base, std::size_t words, PeId pe,
                           std::vector<Word> &block)
{
    (void)base;
    (void)words;
    (void)pe;
    (void)block;
    ddc_panic("hierarchical machine uses one-word blocks");
}

bool
ClusterCache::tryWrite(Addr addr, PeId pe, Word data)
{
    Entry *entry = entries.lookup(addr);
    if (entry != nullptr && entry->tag == LineTag::Local) {
        // The cluster owns the word: the write is cluster-internal.
        stats.add(statAbsorbedWrite);
        cancelForward(pe);
        entry->value = data;
        return true;
    }
    enqueueForward(BusOp::Write, addr, data, pe);
    return false;
}

bool
ClusterCache::tryInvalidate(Addr addr, PeId pe, Word data)
{
    Entry *entry = entries.lookup(addr);
    if (entry != nullptr && entry->tag == LineTag::Local) {
        // Cluster-internal BI: the bus broadcasts the Invalidate to
        // the sibling L1s; we just absorb the data.
        stats.add(statAbsorbedWrite);
        cancelForward(pe);
        entry->value = data;
        return true;
    }
    enqueueForward(BusOp::Invalidate, addr, data, pe);
    return false;
}

bool
ClusterCache::tryWriteBlock(Addr base, PeId pe,
                            const std::vector<Word> &block)
{
    (void)base;
    (void)pe;
    (void)block;
    ddc_panic("hierarchical machine uses one-word blocks");
}

bool
ClusterCache::tryRmw(Addr addr, PeId pe, Word set_value, Word &old,
                     bool &success)
{
    (void)old;
    (void)success;
    enqueueForward(BusOp::Rmw, addr, set_value, pe);
    return false;
}

bool
ClusterCache::tryReadLock(Addr addr, PeId pe, Word &data)
{
    (void)data;
    enqueueForward(BusOp::ReadLock, addr, 0, pe);
    return false;
}

bool
ClusterCache::tryWriteUnlock(Addr addr, PeId pe, Word data)
{
    enqueueForward(BusOp::WriteUnlock, addr, data, pe);
    return false;
}

void
ClusterCache::acceptSupply(Addr addr, Word data)
{
    // A dirty child supplied a cluster-bus read.  We are the cluster
    // bus's "memory": absorb the latest value.  The cluster keeps
    // global ownership (global memory is still stale).
    Entry *entry = entries.lookup(addr);
    ddc_assert(entry != nullptr && entry->tag == LineTag::Local,
               "cluster-level supply without global ownership");
    entry->value = data;
}

void
ClusterCache::acceptSupplyBlock(Addr base, const std::vector<Word> &block)
{
    (void)base;
    (void)block;
    ddc_panic("hierarchical machine uses one-word blocks");
}

} // namespace hier
} // namespace ddc
