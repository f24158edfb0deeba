#include "dir/home_node.hh"

#include "base/logging.hh"

namespace ddc {
namespace dir {

HomeNode::HomeNode(int home_id, ArbiterKind arbiter_kind,
                   std::uint64_t arbiter_seed, stats::CounterSet &stats)
    : TransactionPath(stats), homeId(home_id), memory(stats),
      arbiter(makeArbiter(arbiter_kind,
                          arbiter_seed +
                              static_cast<std::uint64_t>(home_id)))
{
    statMsgRequest = stats.intern("dir.msg.request");
    statMsgFwd = stats.intern("dir.msg.fwd");
    statMsgInval = stats.intern("dir.msg.inval");
    statMsgAck = stats.intern("dir.msg.ack");
    statMsgUpdate = stats.intern("dir.msg.update");
    statSharerOverflow = stats.intern("dir.sharer_overflow");
}

void
HomeNode::countIdle(Cycle count)
{
    if (count > 0)
        stats.add(busStats.idle, count);
}

void
HomeNode::tick(const std::vector<BusClient *> &clients,
               std::uint64_t &visits)
{
    if (inbox.empty()) {
        stats.add(busStats.idle);
        return;
    }
    stats.add(busStats.busy);
    stats.add(statMsgRequest);
    msgCount++;

    int grant = arbiter->pick(inbox);
    BusRequest request =
        clients[static_cast<std::size_t>(grant)]->currentRequest();
    ddc_assert(!request.block_transfer,
               "the directory fabric uses one-word blocks");

    if (obsCtx && obsCtx->trace) {
        // The granted request as a one-cycle slice on this home's
        // track (the synchronous model serves it within the cycle).
        obs::TraceEvent event;
        event.ts = obsCtx->clock->now;
        event.dur = 1;
        event.name = toString(request.op);
        event.addr = request.addr;
        event.has_addr = true;
        event.value = grant;
        event.value_name = "issuer";
        event.phase = 'X';
        event.track = obs::kTrackHomes;
        event.tid = homeId;
        obsCtx->trace->push(event);
    }

    tickClients = &clients;
    tickVisits = &visits;
    if (serve(clients, grant, request))
        noteComplete(grant);
}

int
HomeNode::findSupplier(int grant, Addr addr, Word &value)
{
    const std::vector<BusClient *> &clients = *tickClients;
    const DirEntry *entry = dir.lookup(addr);
    int owner = entry != nullptr ? entry->owner : -1;

#ifndef NDEBUG
    // Cross-check the directory against the snooping bus's full
    // supplier scan: every cluster the directory skips must indeed
    // decline to supply.  (Double-polling is safe: wouldSupply is
    // idempotent for the cluster cache.)
    int full_scan = -1;
    for (std::size_t i = 0; i < clients.size(); i++) {
        if (static_cast<int>(i) == grant)
            continue;
        Word candidate = 0;
        if (clients[i]->wouldSupply(addr, candidate))
            full_scan = static_cast<int>(i);
    }
    ddc_assert(full_scan == owner,
               "directory owner disagrees with the full supplier scan "
               "for addr ", addr, ": directory says ", owner,
               ", scan says ", full_scan);
#endif
    ddc_assert(owner != grant,
               "read-like request granted to the owning cluster");
    if (owner < 0)
        return -1;

    // Owner forward: the home cannot serve the read — the owning
    // cluster holds a newer value, and its supply write kills the
    // read, exactly like the snooping bus's L-interrupt.
    stats.add(statMsgFwd);
    (*tickVisits)++;
    msgCount++;
    if (obsCtx && obsCtx->trace)
        traceInstant("fwd", addr, nullptr, owner);
    bool supplies =
        clients[static_cast<std::size_t>(owner)]->wouldSupply(addr, value);
    ddc_assert(supplies, "directory owner declined to supply addr ", addr);
    return owner;
}

void
HomeNode::commit(const BusTransaction &txn, Commit kind)
{
    DirEntry &entry = dir.ensure(txn.addr);
    switch (kind) {
      case Commit::Share:
        deliverRead(entry, txn);
        addSharer(entry, txn.issuer);
        return;
      case Commit::Own:
        deliverWriteLike(entry, txn);
        entry.owner = txn.issuer;
        addSharer(entry, txn.issuer);
        return;
      case Commit::Publish:
        // A kill's supply write or the cluster cache's pre-flush
        // publish before an RMW-class forward: home memory becomes
        // current, and the owner keeps its (demoted) entry.
        ddc_assert(entry.owner == txn.issuer, "cluster ", txn.issuer,
                   " published addr ", txn.addr,
                   ", which the directory records as owned by ",
                   entry.owner);
        deliverWriteLike(entry, txn);
        entry.owner = -1;
        return;
    }
}

void
HomeNode::addSharer(DirEntry &entry, int client)
{
    if (entry.sharers.add(client) &&
        client >= SharerSet::kBitmapIds)
        stats.add(statSharerOverflow);
}

void
HomeNode::deliverWriteLike(DirEntry &entry, const BusTransaction &txn)
{
    // Collect first: observers do not touch the directory, but the
    // sharer set itself is rewritten below and must not be walked
    // while it changes.
    targets.clear();
    entry.sharers.forEach([&](int sharer) {
        if (sharer != txn.issuer)
            targets.push_back(sharer);
    });
    std::size_t acks = 0;
    const bool traced = obsCtx && obsCtx->trace;
    for (int sharer : targets) {
        stats.add(statMsgInval);
        (*tickVisits)++;
        msgCount++;
        if (traced)
            traceInstant("inval", txn.addr, nullptr, sharer);
        (*tickClients)[static_cast<std::size_t>(sharer)]->observe(txn);
        // The synchronous machine model collects the ack in the same
        // cycle; counted per target so ack traffic is visible.
        stats.add(statMsgAck);
        msgCount++;
        if (traced)
            traceInstant("ack", txn.addr, nullptr, sharer);
        acks++;
    }
    ddc_assert(acks == targets.size(),
               "invalidate-ack collection lost a target");
    if (obsCtx && obsCtx->metrics)
        obsCtx->metrics->acks_per_inval.sample(acks);

    // Every delivered write-like observation erased its target's
    // entry; only the issuer (when it was a sharer) still holds one.
    bool issuer_was_sharer = entry.sharers.contains(txn.issuer);
    entry.sharers.clear();
    if (issuer_was_sharer)
        entry.sharers.add(txn.issuer);
}

void
HomeNode::deliverRead(DirEntry &entry, const BusTransaction &txn)
{
    // Read observations refresh values (and refill L1 copies RWB-
    // style) but never change entry membership: iterating live is
    // safe.
    entry.sharers.forEach([&](int sharer) {
        if (sharer == txn.issuer)
            return;
        stats.add(statMsgUpdate);
        (*tickVisits)++;
        msgCount++;
        if (obsCtx && obsCtx->trace)
            traceInstant("update", txn.addr, nullptr, sharer);
        (*tickClients)[static_cast<std::size_t>(sharer)]->observe(txn);
    });
}

void
HomeNode::nacked(int grant, const BusRequest &request)
{
    (void)grant;
    if (obsCtx && obsCtx->trace)
        traceInstant("nack", request.addr, toString(request.op).data());
}

void
HomeNode::traceInstant(std::string_view name, Addr addr,
                       const char *detail, int target)
{
    obs::TraceEvent event;
    event.ts = obsCtx->clock->now;
    event.name = name;
    event.detail = detail;
    event.addr = addr;
    event.has_addr = true;
    if (target >= 0) {
        event.value = target;
        event.value_name = "target";
    }
    event.track = obs::kTrackHomes;
    event.tid = homeId;
    obsCtx->trace->push(event);
}

void
HomeNode::noteComplete(int grant)
{
    if (!obsCtx || !obsCtx->metrics || !obsCtx->requestStart)
        return;
    Cycle &start =
        (*obsCtx->requestStart)[static_cast<std::size_t>(grant)];
    if (start == kNever)
        return;
    obsCtx->metrics->home_service.sample(obsCtx->clock->now - start);
    start = kNever;
}

} // namespace dir
} // namespace ddc
