#include "sim/cache.hh"

#include <algorithm>
#include <array>
#include <string>

#include "base/logging.hh"
#include "sim/shard.hh"

namespace ddc {

namespace {

/**
 * "NP->R"-style tag-transition labels with static storage (the trace
 * sink keeps the pointers), built once on first traced transition.
 */
std::string_view
transitionName(LineTag from, LineTag to)
{
    constexpr std::size_t kTags = 8;
    static const auto table = [] {
        std::array<std::array<std::string, kTags>, kTags> names;
        for (std::size_t f = 0; f < kTags; f++) {
            for (std::size_t t = 0; t < kTags; t++) {
                names[f][t] =
                    std::string(toString(static_cast<LineTag>(f))) +
                    "->" +
                    std::string(toString(static_cast<LineTag>(t)));
            }
        }
        return names;
    }();
    return table[static_cast<std::size_t>(from)]
                [static_cast<std::size_t>(to)];
}

/** Miss-span names per CpuOp (static storage for the sink). */
std::string_view
missName(CpuOp op)
{
    switch (op) {
      case CpuOp::Read:        return "read_miss";
      case CpuOp::Write:       return "write_miss";
      case CpuOp::TestAndSet:  return "ts_miss";
      case CpuOp::ReadLock:    return "readlock_miss";
      case CpuOp::WriteUnlock: return "writeunlock_miss";
    }
    return "miss";
}

std::string
refStatName(const MemRef &ref, bool miss)
{
    std::string name = "cache.";
    switch (ref.op) {
      case CpuOp::Read:        name += miss ? "read_miss." : "read_hit.";
                               break;
      case CpuOp::Write:       name += miss ? "write_miss." : "write_hit.";
                               break;
      case CpuOp::TestAndSet:  name += "ts."; break;
      case CpuOp::ReadLock:    name += "readlock."; break;
      case CpuOp::WriteUnlock: name += "writeunlock."; break;
    }
    name += toString(ref.cls);
    return name;
}

} // namespace

Cache::Cache(PeId pe, std::size_t num_lines, const Protocol &protocol,
             const Clock &clock, stats::CounterSet &stats,
             ExecutionLog *log, std::size_t block_words, std::size_t ways)
    : pe(pe), protocol(protocol), clock(clock), stats(stats), log(log),
      blockSize(block_words), ways(ways)
{
    ddc_assert(num_lines > 0, "cache needs at least one line");
    ddc_assert(block_words >= 1, "block size must be at least one word");
    ddc_assert(ways >= 1 && num_lines % ways == 0,
               "associativity must divide the line count");
    std::size_t num_sets = num_lines / ways;
    if ((blockSize & (blockSize - 1)) == 0 &&
        (num_sets & (num_sets - 1)) == 0) {
        pow2Geometry = true;
        blockShift = 0;
        for (std::size_t size = blockSize; size > 1; size >>= 1)
            blockShift++;
        setMask = num_sets - 1;
    }
    static_assert(sizeof(Line) == 8, "a cache line's base and state "
                                     "must pack into one word");
    lines.resize(num_lines);
    words.assign(num_lines * blockSize, 0);
    if (ways > 1)
        lastUse.assign(num_lines, 0);

    statRefs = this->stats.intern("cache.refs");
    statWriteback = this->stats.intern("cache.writeback");
    statFlush = this->stats.intern("cache.flush");
    statFill = this->stats.intern("cache.fill");
    statSnarf = this->stats.intern("cache.snarf");
    statSnarfSuppressed = this->stats.intern("cache.snarf_suppressed");
    statInvalidated = this->stats.intern("cache.invalidated");
    statSupply = this->stats.intern("cache.supply");
    statBroadcastFill = this->stats.intern("cache.broadcast_fill");

    const CpuOp ops[kNumCpuOps] = {CpuOp::Read, CpuOp::Write,
                                   CpuOp::TestAndSet, CpuOp::ReadLock,
                                   CpuOp::WriteUnlock};
    const DataClass classes[kNumClasses] = {
        DataClass::Code, DataClass::Local, DataClass::Shared};
    for (CpuOp op : ops) {
        for (DataClass cls : classes) {
            for (int miss = 0; miss < 2; miss++) {
                MemRef ref{op, 0, 0, cls};
                refStat[static_cast<std::size_t>(op)][miss]
                       [static_cast<std::size_t>(cls)] =
                    this->stats.intern(refStatName(ref, miss != 0));
            }
        }
    }
}

void
Cache::connectBus(Bus &bus_to_join)
{
    ddc_assert(bus == nullptr, "cache already attached to a bus");
    ddc_assert(bus_to_join.blockWords() == blockSize,
               "cache and bus disagree on the block size");
    bus = &bus_to_join;
    clientIndex = bus->attach(this);
    // Nothing can be pending yet; stay disarmed until a miss arms us,
    // and no line is held yet, so the supplier scan can skip us too.
    bus->setRequestArmed(clientIndex, false);
    bus->setSupplier(clientIndex, false);
    // While armed, hasRequest() is a pure "yes" until a snoop moves the
    // line reserved for the pending access (markStale), so the bus
    // polls only then.
    bus->setPollOnStale(clientIndex);
    // Snoops can only matter for lines that react to them, so let the
    // bus's sharer index route them when it can; every line is
    // NotPresent (reacting to nothing) right now, matching the empty
    // index.
    busIndexed = bus->setSnoopIndexed(clientIndex);
}

void
Cache::setArmed(bool is_armed)
{
    bus->setRequestArmed(clientIndex, is_armed);
}

void
Cache::markStale(const Line &line)
{
    if (!pending.active)
        return;
    if (&line == &pendingLine()) {
        pending.stale = true;
        bus->noteStale(clientIndex);
        return;
    }
#ifndef NDEBUG
    // The plan is a pure function of the reserved line, so moving any
    // other line must leave a fresh plan exactly as derived.
    if (!pending.stale) {
        CpuReaction reaction =
            protocol.access(stateFor(pendingLine(), pending.ref.addr),
                            pending.ref.op, pending.ref.cls);
        ddc_assert(reaction == pending.reaction &&
                       computePhase() == pending.phase,
                   "PE ", pe, ": a snoop on another line moved the plan "
                   "of the pending access to ", Addr{pending.ref.addr});
    }
#endif
}

void
Cache::setObserver(obs::Recorder *recorder)
{
    stateTrace =
        recorder ? recorder->trace(obs::Category::State) : nullptr;
    missTrace = recorder ? recorder->trace(obs::Category::Miss) : nullptr;
    metrics = recorder ? recorder->liveMetrics() : nullptr;
    lockRec = recorder ? recorder->lockLog() : nullptr;
    if (metrics && lastWrite.empty())
        lastWrite.assign(lines.size(), kNever);
    if (stateTrace)
        stateCause = "cpu";
}

void
Cache::addTagCensus(std::uint64_t *counts) const
{
    for (const Line &line : lines)
        counts[static_cast<std::size_t>(line.state().tag)]++;
}

void
Cache::traceStateChange(LineTag from, LineTag to, Addr base)
{
    obs::TraceEvent event;
    event.ts = clock.now;
    event.name = transitionName(from, to);
    event.detail = stateCause;
    event.addr = base;
    event.has_addr = true;
    event.track = obs::kTrackPes;
    event.tid = pe;
    stateTrace->push(event);
}

void
Cache::requestNacked()
{
    pending.retries++;
}

void
Cache::requestKilled()
{
    pending.retries++;
}

inline Addr
Cache::blockBase(Addr addr) const
{
    if (pow2Geometry)
        return addr & ~((Addr{1} << blockShift) - 1);
    return addr - addr % static_cast<Addr>(blockSize);
}

inline std::size_t
Cache::setBase(Addr addr) const
{
    if (pow2Geometry)
        return (static_cast<std::size_t>(addr >> blockShift) & setMask) *
               ways;
    std::size_t num_sets = lines.size() / ways;
    auto set = static_cast<std::size_t>(
        (addr / static_cast<Addr>(blockSize)) %
        static_cast<Addr>(num_sets));
    return set * ways;
}

inline bool
Cache::holdsBlock(const Line &line, Addr addr) const
{
    return line.state().tag != LineTag::NotPresent &&
           line.base() == blockBase(addr);
}

inline Cache::Line *
Cache::findLine(Addr addr)
{
    std::size_t base = setBase(addr);
    for (std::size_t way = 0; way < ways; way++) {
        Line &line = lines[base + way];
        if (holdsBlock(line, addr))
            return &line;
    }
    return nullptr;
}

inline const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

inline Cache::Line &
Cache::victimLine(Addr addr)
{
    std::size_t base = setBase(addr);
    // A direct-mapped set's one line is the match, the empty way and
    // the LRU way alike.
    if (ways == 1)
        return lines[base];
    if (Line *match = findLine(addr))
        return *match;
    std::size_t victim = base;
    for (std::size_t way = 0; way < ways; way++) {
        if (lines[base + way].state().tag == LineTag::NotPresent)
            return lines[base + way];
        if (lastUse[base + way] < lastUse[victim])
            victim = base + way;
    }
    return lines[victim];
}

inline void
Cache::touch(const Line &line)
{
    if (ways > 1)
        lastUse[static_cast<std::size_t>(&line - lines.data())] =
            ++lruClock;
}

Cache::Line &
Cache::pendingLine()
{
    return lines[pending.way_index];
}

const Cache::Line &
Cache::pendingLine() const
{
    return lines[pending.way_index];
}

inline Word *
Cache::lineData(const Line &line)
{
    return words.data() +
           static_cast<std::size_t>(&line - lines.data()) * blockSize;
}

inline const Word *
Cache::lineData(const Line &line) const
{
    return const_cast<Cache *>(this)->lineData(line);
}

inline LineState
Cache::stateFor(const Line &line, Addr addr) const
{
    if (!holdsBlock(line, addr))
        return {LineTag::NotPresent, 0};
    return line.state();
}

ReactionClass
Cache::classOf(LineState state) const
{
    if (state.tag == LineTag::NotPresent)
        return 0;
    auto reacts = [&](BusOp op) {
        SnoopReaction reaction = protocol.snoop(state, op);
        return reaction.supply || reaction.snarf || reaction.next != state;
    };
    auto compute = [&] {
        ReactionClass cls = 0;
        if (reacts(BusOp::Read))
            cls |= kReactsToRead;
        if (reacts(BusOp::Write) || reacts(BusOp::Invalidate))
            cls |= kReactsToWrite;
        return cls;
    };
    if (state.streak != 0)
        return compute();
    auto tag_index = static_cast<std::size_t>(state.tag);
    if (!classMemoValid[tag_index]) {
        classMemo[tag_index] = compute();
        classMemoValid[tag_index] = true;
    }
    return classMemo[tag_index];
}

ReactionClass
Cache::reactionClass(Addr addr) const
{
    const Line *line = findLine(addr);
    return line == nullptr ? 0 : classOf(line->state());
}

void
Cache::setLineState(Line &line, LineState next)
{
    if (line.state() == next)
        return;
    bool was_supplier = protocol.snoop(line.state(), BusOp::Read).supply;
    bool is_supplier = protocol.snoop(next, BusOp::Read).supply;
    if (was_supplier != is_supplier) {
        supplierLines += is_supplier ? 1 : std::size_t{0} - 1;
        if (is_supplier ? supplierLines == 1 : supplierLines == 0)
            bus->setSupplier(clientIndex, supplierLines != 0);
    }
    // The sharer index tracks which snooped ops each line reacts to,
    // so only a change of reaction class touches it: an RB line going
    // Readable -> Local gains read reactions, an RWB write streak
    // growing keeps its class and changes nothing.
    if (busIndexed) {
        ReactionClass from = classOf(line.state());
        ReactionClass to = classOf(next);
        if (from != to)
            bus->noteReactions(clientIndex, line.base(), from, to);
    }
    // Every state change funnels through here, so this one site (plus
    // the cause label set at each entry point) traces the full
    // NP/I/R/L/F transition diagram.
    if (stateTrace && line.state().tag != next.tag)
        traceStateChange(line.state().tag, next.tag, line.base());
    line.setState(next);
}

void
Cache::setLineBase(Line &line, Addr base)
{
    if (line.base() == base)
        return;
    if (busIndexed) {
        ReactionClass cls = classOf(line.state());
        if (cls != 0) {
            bus->noteReactions(clientIndex, line.base(), cls, 0);
            bus->noteReactions(clientIndex, base, 0, cls);
        }
    }
    line.setBase(base);
}

Cache::AccessResult
Cache::cpuAccess(const MemRef &ref)
{
    ddc_assert(bus != nullptr, "cache not attached to a bus");
    ddc_assert(!pending.active, "access issued while one is outstanding");
    ddc_assert(!completionReady, "previous completion not consumed");

    accessCounter++;
    Line &line = victimLine(ref.addr);
    LineState state = stateFor(line, ref.addr);
    CpuReaction reaction = protocol.access(state, ref.op, ref.cls);

    if (stateTrace)
        stateCause = "cpu";
    // A program store to a known lock word is its release — reported
    // at issue so it is seen even when the store completes in-cache
    // (a Local line under a write-back scheme never hits the bus).
    if (lockRec &&
        (ref.op == CpuOp::Write || ref.op == CpuOp::WriteUnlock))
        lockRec->release(pe, ref.addr, clock.now);
    if (metrics && ref.op == CpuOp::Write &&
        holdsBlock(line, ref.addr)) {
        Cycle &last_write =
            lastWrite[static_cast<std::size_t>(&line - lines.data())];
        if (last_write != kNever)
            metrics->write_gap.sample(clock.now - last_write);
        last_write = clock.now;
    }

    stats.add(statRefs);
    stats.add(refStat[static_cast<std::size_t>(ref.op)]
                     [reaction.needs_bus ? 1 : 0]
                     [static_cast<std::size_t>(ref.cls)]);

    std::size_t offset =
        static_cast<std::size_t>(ref.addr - blockBase(ref.addr));

    if (!reaction.needs_bus) {
        // Hit: complete within the cache cycle.
        setLineState(line, reaction.next);
        touch(line);
        Word *data = lineData(line);
        if (reaction.update_value)
            data[offset] = ref.data;
        AccessResult result;
        result.complete = true;
        result.value = ref.op == CpuOp::Write ? ref.data : data[offset];
        logCommit(ref, result);
        return result;
    }

    pending.active = true;
    pending.ref = ref;
    pending.reaction = reaction;
    pending.way_index = static_cast<std::size_t>(&line - lines.data());
    pending.phase = computePhase();
    pending.stale = false;
    pending.issue_cycle = clock.now;
    pending.phase_start = clock.now;
    pending.retries = 0;
    if (missTrace) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.name = missName(ref.op);
        event.addr = ref.addr;
        event.has_addr = true;
        event.phase = 'B';
        event.track = obs::kTrackPes;
        event.tid = pe;
        missTrace->push(event);
    }
    setArmed(true);
    return {};
}

Cache::Phase
Cache::computePhase() const
{
    const Line &line = pendingLine();
    Addr base = blockBase(pending.ref.addr);
    const CpuReaction &reaction = pending.reaction;

    // A dirty victim occupying the target line goes back first.
    if (reaction.allocate && line.state().tag != LineTag::NotPresent &&
        line.base() != base && protocol.needsWriteback(line.state())) {
        return Phase::Writeback;
    }

    // An RMW-class transaction takes its input from memory, so a
    // dirty copy of the target block must be flushed first.
    bool rmw_like = reaction.bus_op == BusOp::Rmw ||
                    reaction.bus_op == BusOp::ReadLock;
    if (rmw_like && holdsBlock(line, pending.ref.addr) &&
        protocol.memoryMayBeStale(line.state())) {
        return Phase::Flush;
    }

    // Write-allocate on multi-word blocks needs the block's other
    // words before the write-class transaction can install the line.
    // An Invalid resident block does not count: its data may be
    // partially stale (invalidations carry no data).
    if (reaction.allocate && blockSize > 1 &&
        !stateFor(line, pending.ref.addr).present() &&
        reaction.bus_op != BusOp::Read) {
        return Phase::Fill;
    }
    return Phase::Main;
}

Cache::AccessResult
Cache::takeCompletion()
{
    ddc_assert(completionReady, "no completion available");
    completionReady = false;
    return completion;
}

LineState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(addr);
    if (line == nullptr)
        return {LineTag::NotPresent, 0};
    return line->state();
}

Word
Cache::lineValue(Addr addr) const
{
    const Line *line = findLine(addr);
    if (line == nullptr)
        return 0;
    return lineData(*line)[static_cast<std::size_t>(addr - line->base())];
}

bool
Cache::hasRequest()
{
    if (!pending.active)
        return false;
    // Between moves of the reserved line the re-derivation is a pure
    // function of unchanged state, so polling it every cycle is wasted
    // work.
    if (pending.stale)
        revalidatePending();
    return pending.active;
}

BusRequest
Cache::currentRequest()
{
    ddc_assert(pending.active, "no pending request");
    const Line &line = pendingLine();

    BusRequest request;
    switch (pending.phase) {
      case Phase::Writeback:
      case Phase::Flush:
        // Write the dirty victim (Writeback) or the target block
        // itself (Flush) back to memory.
        request.op = BusOp::Write;
        request.addr = line.base();
        request.data = lineData(line)[0];
        if (blockSize > 1) {
            request.block_transfer = true;
            request.block_data.assign(lineData(line),
                                      lineData(line) + blockSize);
        }
        return request;

      case Phase::Fill:
        request.op = BusOp::Read;
        request.addr = pending.ref.addr;
        request.block_transfer = true;
        return request;

      case Phase::Main:
        request.op = pending.reaction.bus_op;
        request.addr = pending.ref.addr;
        request.data = pending.ref.data;
        request.block_transfer = pending.reaction.bus_op == BusOp::Read &&
                                 pending.reaction.allocate &&
                                 blockSize > 1;
        return request;
    }
    ddc_panic("unreachable");
}

void
Cache::requestComplete(const BusResult &result)
{
    ddc_assert(pending.active, "completion without a pending request");
    Line &line = pendingLine();
    Word *data = lineData(line);
    Addr base = blockBase(pending.ref.addr);
    std::size_t offset = static_cast<std::size_t>(pending.ref.addr - base);

    if (metrics) {
        metrics->bus_wait.sample(clock.now - pending.phase_start);
        pending.phase_start = clock.now;
    }
    if (stateTrace) {
        switch (pending.phase) {
          case Phase::Writeback: stateCause = "writeback"; break;
          case Phase::Fill:      stateCause = "fill"; break;
          case Phase::Flush:     stateCause = "flush"; break;
          case Phase::Main:      stateCause = "bus_complete"; break;
        }
    }

    switch (pending.phase) {
      case Phase::Writeback:
        stats.add(statWriteback);
        setLineState(line, {LineTag::NotPresent, 0});
        revalidatePending();
        return;

      case Phase::Flush:
        stats.add(statFlush);
        // The flushed block now matches memory.
        setLineState(line, protocol.afterSupply(line.state()));
        revalidatePending();
        return;

      case Phase::Fill: {
        stats.add(statFill);
        ddc_assert(result.block.size() == blockSize,
                   "fill returned a malformed block");
        LineState state = stateFor(line, pending.ref.addr);
        setLineBase(line, base);
        std::copy(result.block.begin(), result.block.end(), data);
        setLineState(line, protocol.afterBusOp(state, BusOp::Read, false));
        touch(line);
        revalidatePending();
        return;
      }

      case Phase::Main: {
        const MemRef &ref = pending.ref;
        if (pending.reaction.allocate) {
            LineState state = stateFor(line, ref.addr);
            switch (pending.reaction.bus_op) {
              case BusOp::Read:
                setLineBase(line, base);
                if (blockSize > 1) {
                    ddc_assert(result.block.size() == blockSize,
                               "block read returned a malformed block");
                    std::copy(result.block.begin(), result.block.end(),
                              data);
                } else {
                    data[0] = result.data;
                }
                break;
              case BusOp::ReadLock:
                ddc_assert(blockSize == 1 || stateFor(line, ref.addr).present(),
                           "ReadLock allocation without a resident block");
                setLineBase(line, base);
                data[offset] = result.data;
                break;
              case BusOp::Write:
              case BusOp::WriteUnlock:
              case BusOp::Invalidate:
                ddc_assert(blockSize == 1 || stateFor(line, ref.addr).present(),
                           "write allocation without a resident block");
                setLineBase(line, base);
                data[offset] = ref.data;
                break;
              case BusOp::Rmw:
                ddc_assert(blockSize == 1 || stateFor(line, ref.addr).present(),
                           "RMW allocation without a resident block");
                setLineBase(line, base);
                data[offset] = result.rmw_success ? ref.data : result.data;
                break;
            }
            setLineState(line,
                         protocol.afterBusOp(state, pending.reaction.bus_op,
                                             result.rmw_success));
            touch(line);
        }
        AccessResult access;
        access.complete = true;
        access.ts_success = result.rmw_success;
        access.value = ref.op == CpuOp::Write || ref.op == CpuOp::WriteUnlock
                           ? ref.data : result.data;
        finish(access);
        return;
      }
    }
    ddc_panic("unreachable");
}

bool
Cache::wouldSupply(Addr addr, Word &value)
{
    // Polled for every attached cache on every read-class bus
    // transaction; a cache owning no line answers without a lookup.
    if (supplierLines == 0)
        return false;
    const Line *line = findLine(addr);
    if (line == nullptr)
        return false;
    if (!protocol.snoop(line->state(), BusOp::Read).supply)
        return false;
    value = lineData(*line)[static_cast<std::size_t>(addr - line->base())];
    return true;
}

std::vector<Word>
Cache::supplyBlock(Addr addr)
{
    const Line *line = findLine(addr);
    ddc_assert(line != nullptr,
               "supplyBlock for an address this cache does not hold");
    const Word *data = lineData(*line);
    return {data, data + blockSize};
}

void
Cache::observe(const BusTransaction &txn)
{
    Line *found = findLine(txn.addr);
    if (found == nullptr)
        return; // Caches react only to blocks they contain.
    Line &line = *found;
    LineState state = line.state();

    SnoopReaction reaction = protocol.snoop(state, txn.op);
    ddc_assert(!reaction.supply,
               "supply decision must be resolved before broadcast");

    if (stateTrace) {
        stateCause = txn.op == BusOp::Read ? "snoop_read"
                     : txn.op == BusOp::Invalidate ? "snoop_bi"
                                                   : "snoop_write";
    }

    // A snoop that neither moves the state nor captures data is a
    // no-op; skipping it keeps the pending re-derivation lazy (a
    // spinning cache is not re-evaluated for every failed broadcast
    // that changes nothing).
    if (reaction.next == state && !reaction.snarf)
        return;

    bool was_present = state.present();
    if (reaction.snarf && !was_present && blockSize > 1 &&
        txn.block.empty()) {
        // The protocol wants to revive this dead block from the data
        // flowing past, but a word-granular transaction (e.g. a
        // failed test-and-set broadcast) cannot fill a multi-word
        // line: the block's other words may be stale.  Stay dead.
        stats.add(statSnarfSuppressed);
        return;
    }
    if (reaction.next != state) {
        // The pending plan is a pure function of line *state* (data is
        // read only at completion), so a snarf that merely refreshes
        // the value leaves it valid.
        setLineState(line, reaction.next);
        markStale(line);
    }
    if (reaction.snarf) {
        if (!txn.block.empty()) {
            ddc_assert(txn.block.size() == blockSize,
                       "snarf of a malformed block");
            std::copy(txn.block.begin(), txn.block.end(), lineData(line));
        } else {
            lineData(line)[static_cast<std::size_t>(txn.addr - line.base())] =
                txn.data;
        }
        stats.add(statSnarf);
    }
    if (was_present && !reaction.next.present())
        stats.add(statInvalidated);
}

void
Cache::supplied(Addr addr)
{
    Line *line = findLine(addr);
    ddc_assert(line != nullptr,
               "supplied() for an address this cache does not hold");
    stats.add(statSupply);
    if (stateTrace)
        stateCause = "supply";
    setLineState(*line, protocol.afterSupply(line->state()));
    markStale(*line);
}

void
Cache::revalidatePending()
{
    pending.stale = false;
    if (!pending.active)
        return;

    // Re-evaluate the access against the current line state: a snooped
    // broadcast may have completed it (RWB write broadcast / RB read
    // broadcast), changed which transaction is appropriate (e.g. a
    // broken write streak downgrades BI to a plain bus write), or
    // erased / re-created the need for a write-back, fill, or flush.
    Line &line = pendingLine();
    LineState state = stateFor(line, pending.ref.addr);
    CpuReaction reaction = protocol.access(state, pending.ref.op,
                                           pending.ref.cls);
    if (!reaction.needs_bus) {
        stats.add(statBroadcastFill);
        if (stateTrace)
            stateCause = "broadcast_fill";
        setLineState(line, reaction.next);
        Word &word = lineData(line)[static_cast<std::size_t>(
            pending.ref.addr - line.base())];
        if (reaction.update_value)
            word = pending.ref.data;
        AccessResult access;
        access.complete = true;
        access.value =
            pending.ref.op == CpuOp::Write ? pending.ref.data : word;
        finish(access);
        return;
    }
    pending.reaction = reaction;
    pending.phase = computePhase();
}

void
Cache::finish(const AccessResult &result)
{
    if (metrics) {
        metrics->miss_service.sample(clock.now - pending.issue_cycle);
        metrics->miss_retries.sample(pending.retries);
    }
    if (missTrace) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.name = missName(pending.ref.op);
        event.value = static_cast<std::int64_t>(pending.retries);
        event.value_name = "retries";
        event.phase = 'E';
        event.track = obs::kTrackPes;
        event.tid = pe;
        missTrace->push(event);
    }
    logCommit(pending.ref, result);
    pending.active = false;
    setArmed(false);
    completionReady = true;
    completion = result;
    if (wakeShard != nullptr)
        wakeShard->raiseWake(wakeSlot);
}

void
Cache::logCommit(const MemRef &ref, const AccessResult &result)
{
    if (log == nullptr)
        return;
    LogEntry entry;
    entry.cycle = clock.now;
    entry.pe = pe;
    entry.op = ref.op;
    entry.addr = ref.addr;
    entry.value = result.value;
    if (ref.op == CpuOp::TestAndSet) {
        entry.stored = ref.data;
        entry.ts_success = result.ts_success;
    }
    log->append(entry);
}

} // namespace ddc
