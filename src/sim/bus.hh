/**
 * @file
 * The logically single shared bus (Section 2, assumptions 1-6).
 *
 * One transaction begins per free cycle.  Every cache listens to the
 * bus and reacts before the next cycle; a cache holding the latest
 * value of a read's target may *kill* the transaction and replace it
 * with a bus write of its value, after which the original read
 * retries (Section 3: "The cache is fast enough to first observe a
 * bus action and to then interrupt it").  Bus writes to a word locked
 * by a two-phase RMW fail (NACK) and retry until the unlock.
 *
 * Conditional transactions are resolved here: snooping caches never
 * see BusOp::Rmw / ReadLock / WriteUnlock — they observe the
 * effective BusOp::Read or BusOp::Write, matching the paper's
 * treatment of a failing test-and-set as a read and a succeeding one
 * as a write.
 *
 * Block transfers (the assumption-7 ablation): when the machine is
 * configured with multi-word blocks, allocating reads, write-backs,
 * and owner supplies move whole blocks; a B-word transfer occupies
 * the bus for B cycles.  CPU writes remain word-granular
 * write-throughs (their snoop effect is block-granular in the
 * invalidating schemes — false sharing).
 */

#ifndef DDC_SIM_BUS_HH
#define DDC_SIM_BUS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/flat_map.hh"
#include "base/types.hh"
#include "obs/recorder.hh"
#include "sim/arbiter.hh"
#include "sim/clock.hh"
#include "sim/fabric.hh"
#include "sim/memory_side.hh"
#include "stats/counter.hh"

namespace ddc {

/** A bus transaction a cache wants to issue. */
struct BusRequest
{
    BusOp op = BusOp::Read;
    Addr addr = 0;
    /** Write data, or the value an Rmw stores on success. */
    Word data = 0;
    /** Transfer a whole block (allocating read / write-back). */
    bool block_transfer = false;
    /** Payload of a block write (write-back); block_words long. */
    std::vector<Word> block_data{};
    /**
     * This Write publishes an owned value back to memory without
     * claiming ownership (the hierarchical cluster cache's pre-flush
     * before an RMW-class forward).  The snooping bus ignores the
     * flag — a snooped write invalidates other copies either way, and
     * the issuer demotes itself on completion — but a directory must
     * distinguish it from an ownership-acquiring write to keep its
     * owner field exact.
     */
    bool writeback = false;
};

/** Completion data handed back to the issuing cache. */
struct BusResult
{
    /** Read data / the Rmw's observed old value / the written data. */
    Word data = 0;
    /** BusOp::Rmw only: whether the conditional store happened. */
    bool rmw_success = false;
    /** Block read payload (empty for word-granular transactions). */
    std::vector<Word> block;
};

/** A transaction as seen by snooping caches (effective ops only). */
struct BusTransaction
{
    BusOp op = BusOp::Read;
    Addr addr = 0;
    Word data = 0;
    /** Client index of the issuer on this bus. */
    int issuer = -1;
    /** Block payload (empty for word-granular transactions). */
    std::vector<Word> block;
};

/**
 * The snooped ops a cache line would react to: a bitmask of
 * kReactsToRead and kReactsToWrite.  A line *reacts* to an op when its
 * snoop reaction would supply, snarf, or move its state; every other
 * delivery is a no-op the sharer index may skip.
 */
using ReactionClass = std::uint8_t;
/** A snooped Read would supply, snarf, or move the line's state. */
inline constexpr ReactionClass kReactsToRead = 1;
/** A snooped Write or Invalidate would snarf or move its state. */
inline constexpr ReactionClass kReactsToWrite = 2;

/** The reaction-class bit that an effective snooped @p op tests. */
constexpr ReactionClass
reactionBit(BusOp op)
{
    return op == BusOp::Read ? kReactsToRead : kReactsToWrite;
}

/**
 * Interface between the bus and an attached cache.
 *
 * A client has at most one pending request.  On every free cycle the
 * bus polls hasRequest() of each armed client that is always-polled
 * (the default) or that reported a change through Bus::noteStale()
 * since its last poll, giving the cache a chance to lazily re-validate
 * multi-phase operations whose preconditions a snooped transaction
 * erased (see Bus::setPollOnStale).
 */
class BusClient
{
  public:
    virtual ~BusClient() = default;

    /** Does this client want the bus this cycle? */
    virtual bool hasRequest() = 0;

    /** The pending request (valid only when hasRequest()). */
    virtual BusRequest currentRequest() = 0;

    /** The pending request completed with @p result. */
    virtual void requestComplete(const BusResult &result) = 0;

    /**
     * Would this client kill a read of @p addr and supply the value?
     * On true, @p value receives the supplied (word) data.
     */
    virtual bool wouldSupply(Addr addr, Word &value) = 0;

    /**
     * The full block this client would supply for @p addr (multi-word
     * machines only; called after wouldSupply() returned true).
     */
    virtual std::vector<Word>
    supplyBlock(Addr addr)
    {
        Word value = 0;
        wouldSupply(addr, value);
        return {value};
    }

    /** Observe another client's (effective) transaction. */
    virtual void observe(const BusTransaction &txn) = 0;

    /**
     * The reaction class of this client's line for @p addr's block (0
     * when it holds none).  Asked only of sharer-indexed clients, by
     * the Debug build's broadcast cross-check; the default claims
     * every reaction.
     */
    virtual ReactionClass
    reactionClass(Addr addr) const
    {
        (void)addr;
        return kReactsToRead | kReactsToWrite;
    }

    /** This client supplied data for @p addr (apply afterSupply). */
    virtual void supplied(Addr addr) = 0;

    /**
     * The client's granted request was NACKed (locked word / memory
     * side not ready) and will retry.  Multi-request proxies (the
     * hierarchical cluster cache) use this to rotate their queue so a
     * blocked operation cannot starve the one that would unblock it.
     */
    virtual void requestNacked() {}

    /**
     * The client's granted read-like request was killed by an owning
     * cache's supply write and will retry (the paper's L-interrupt).
     * Purely informational — the request stays pending exactly as
     * before this hook existed.
     */
    virtual void requestKilled() {}

    /** Owning PE, for memory-lock bookkeeping. */
    virtual PeId peId() const = 0;

    /**
     * Address of the pending request (valid only when a request is
     * pending), *without* the side effects of currentRequest().  An
     * address-interleaved fabric routes on it before granting.  Only
     * clients attached to such a fabric need to implement it; the
     * default panics.
     */
    virtual Addr pendingAddr() const;
};

/**
 * Counter names of an issued / NACKed BusOp ("bus.read",
 * "bus.nack.BusRead", ...).  Shared with the directory fabric's home
 * nodes, which emit the same statistics family so directory-mode
 * counter reports line up with the snooping bus name-for-name.
 */
std::string_view busOpStatName(BusOp op);
std::string_view busNackStatName(BusOp op);

/** The shared bus: arbitration, execution, snooping, kill/retry. */
class Bus : public GlobalFabric, public Tickable
{
  public:
    /**
     * @param memory The memory side this bus reaches (main memory on
     *        a flat machine, a cluster cache on the hierarchical one;
     *        a not-ready side NACKs and the transaction retries).
     * @param arbiter_kind Arbitration policy.
     * @param clock The machine clock, read to stamp observability
     *        output (read-only use).
     * @param stats Counter set receiving bus.* statistics.
     * @param seed Seed for the Random arbitration policy.
     * @param block_words Words per cache block (block transfers
     *        occupy the bus for block_words cycles).
     * @param memory_latency Extra cycles every memory-touching
     *        transaction holds the bus (0 = the paper's unified
     *        cycle).
     * @param snoop_filter Resolve broadcasts and supplier scans
     *        through the sharer index (see setSnoopIndexed) instead
     *        of visiting every client.  Results are byte-identical
     *        either way; off is the A/B baseline (the machine
     *        passes its EngineKnobs::snoop_filter).
     */
    Bus(MemorySide &memory, ArbiterKind arbiter_kind, const Clock &clock,
        stats::CounterSet &stats, std::uint64_t seed = 0,
        std::size_t block_words = 1, std::size_t memory_latency = 0,
        bool snoop_filter = true);

    /** Attach a client; returns its client index on this bus. */
    int attach(BusClient *client) override;

    /**
     * Fast-path hint: whether client @p client may have a pending
     * request.  Clients attach armed (so one that never calls this is
     * considered on every free cycle); a client that tracks its own
     * pending state can disarm while it has nothing to issue so idle
     * cycles cost no virtual polling at all.
     *
     * Disarming is strictly a promise that hasRequest() would return
     * false (and have no side effects) until the client re-arms.
     */
    void setRequestArmed(int client, bool is_armed) override;

    /**
     * Stop polling @p client every cycle.  Clients attach
     * always-polled; opting in is a promise that, while the client is
     * armed, hasRequest() returns true with no side effects until the
     * client calls noteStale().  The bus then polls it once, at its
     * next free cycle, and counts it as a requester without a call in
     * between.
     */
    void setPollOnStale(int client);

    /**
     * Opted-in client @p client's answer may have changed (a snoop
     * moved the line of its pending access): poll it at the next free
     * cycle.
     */
    void noteStale(int client) { poll.set(client); }

    /** Number of currently armed clients. */
    std::size_t
    armedClients() const
    {
        return armedCount;
    }

    /**
     * Declare whether @p client could supply data for a snooped read
     * (same contract shape as setRequestArmed: clearing is strictly a
     * promise that wouldSupply() returns false until re-set).  Clients
     * default to set at attach, so a client that never calls this is
     * always polled during the supplier scan.
     */
    void setSupplier(int client, bool is_supplier);

    /**
     * Opt @p client into sharer-indexed snooping.  Clients attach as
     * *always-snoop* (visited on every broadcast and polled on every
     * supplier scan, exactly as before); an indexed client is visited
     * by a transaction only while the index records its line for the
     * block as reacting to the transaction's op.  Indexing is strictly
     * a promise that observe() is a no-op for any op outside the
     * reaction class the client last declared for the block via
     * noteReactions(), and that wouldSupply() returns false unless
     * that class includes kReactsToRead.  Must be called while the
     * client holds no blocks (typically right after attach).
     */
    void setSnoopIndexed(int client);

    /**
     * Declare that indexed client @p client's line for block @p base
     * changed its reaction class from @p from to @p to (a line that
     * enters the tag array moves from 0, one that leaves it moves to
     * 0).  Called only when the two differ.  @p from must match what
     * the index holds for the client; a mismatch is a lost or doubled
     * notification and panics.
     */
    void noteReactions(int client, Addr base, ReactionClass from,
                       ReactionClass to);

    /** Whether this bus resolves snoops through the sharer index. */
    bool snoopFilterActive() const { return filterOn; }

    /**
     * Deliver @p txn, a transaction committed elsewhere (the
     * hierarchical cluster cache's downward broadcast), to every
     * client of this bus it can change: the same filtered delivery
     * as one of the bus's own broadcasts, with no issuer to skip.
     */
    void snoopDown(const BusTransaction &txn) { broadcast(txn, -1); }

    /**
     * The client that would kill a read of @p addr and supply its
     * value, other than client @p skip (-1 skips nobody); null when
     * none.  @p value receives the supplied word.  The supplier scan
     * of this bus's own reads, for a memory side that must source the
     * latest value from its clients (the cluster cache's pulls).
     */
    BusClient *localSupplier(Addr addr, Word &value, int skip = -1);

    /**
     * Clients visited by broadcasts plus clients polled by supplier
     * scans so far, downward deliveries (snoopDown) and
     * localSupplier() scans included.  Counted identically with the
     * filter on or off, so an A/B pair quantifies the avoided virtual
     * calls.  Plain bookkeeping, deliberately not a CounterSet
     * statistic: counter reports stay byte-identical filter-on vs
     * filter-off.
     */
    std::uint64_t snoopVisits() const { return snoopVisitCount; }

    /**
     * Times this bus silently degraded from sharer-indexed to full
     * snooping (more clients than a mask holds; see
     * revertToFullSnoop).  Counted only when the filter was actually
     * active — a bus built with the filter off never "degrades".
     * Like snoopVisits, deliberately not a CounterSet statistic, so
     * counter reports stay byte-identical filter-on vs filter-off;
     * surfaced per run in the engine section
     * (EngineReport::snoop_filter_fallbacks, under --timing).
     */
    std::uint64_t snoopFilterFallbacks() const { return fallbackCount; }

    /**
     * Test introspection: the indexed clients whose line for @p addr's
     * block reacts to a snooped @p op.
     */
    std::vector<int> indexHolders(Addr addr, BusOp op) const;

    /**
     * Attach observability (trace events on the "bus @p bus_id"
     * track, raw lock attempt events).  @p recorder may be null; the
     * cached per-category pointers keep the disabled path at one
     * null test per emission site.
     */
    void setObserver(obs::Recorder *recorder, int bus_id);

    /** Advance one cycle (at most one new transaction begins). */
    void tick() override;

    /**
     * Earliest cycle at which this bus (or the memory side behind it)
     * can next change state: @p now while any client is armed (a
     * grant could start a transaction), the end of the streaming
     * window while a multi-cycle transfer occupies the bus, kNever
     * when every client is disarmed.  Side-effect free: consults only
     * the armed count, the transfer countdown, and the memory side's
     * own nextEventCycle() — never hasRequest() (whose lazy
     * revalidation must stay aligned with the baseline polling
     * schedule).
     */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        Cycle own = transferCyclesLeft > 0
                        ? now + static_cast<Cycle>(transferCyclesLeft)
                        : (armedClients() > 0 ? now : kNever);
        return std::min(own, memory.nextEventCycle(now));
    }

    /**
     * Account for @p count quiescent cycles at once: stream the
     * in-flight transfer and/or accrue idle cycles exactly as @p count
     * consecutive tick() calls would have.  The caller guarantees no
     * grant opportunity was skipped (count never crosses this bus's
     * nextEventCycle() while a client is armed).
     */
    void skipCycles(Cycle count) override;

    /** True when no client has a pending request. */
    bool idle();

    /** Words per block on this bus. */
    std::size_t blockWords() const override { return blockSize; }

    /** First word address of the block containing @p addr. */
    Addr
    blockBase(Addr addr) const
    {
        return addr - addr % static_cast<Addr>(blockSize);
    }

  private:
    /** Number of BusOp enumerators (op-indexed handle tables). */
    static constexpr std::size_t kNumBusOps = 6;

    /**
     * Collect the armed clients with a request into the reusable
     * scratch mask.  Only the always-polled and the stale opted-in
     * clients are polled, in ascending order; every other armed client
     * counts as a requester without a call.  One pass serves both the
     * idle check and arbitration; when every client is disarmed it
     * returns empty without a single virtual call.
     */
    const ClientMask &collectRequesters();

    /** Handle Read / ReadLock / Rmw, including the kill/supply path. */
    void executeReadLike(int grant, const BusRequest &request);

    /** Handle Write / WriteUnlock / Invalidate. */
    void executeWriteLike(int grant, const BusRequest &request);

    /** Block number of @p addr (the holder-index key). */
    std::uint64_t blockIndex(Addr addr) const;

    /**
     * Bitmask of the clients that must see a snooped @p op on
     * @p addr's block: the indexed clients whose line reacts to it,
     * OR'd with the always-snoop clients.  Bit position is client
     * index, so iterating set bits upward reproduces the unfiltered
     * ascending visit order, restricted to clients whose snoop can
     * matter.  The returned value is also a free snapshot: a snooper's
     * reaction changes its class and mutates the index mid-delivery
     * without disturbing the mask being iterated.
     */
    std::uint64_t snooperMask(Addr addr, BusOp op) const;

    /**
     * Permanently fall back to unfiltered snooping on this bus (more
     * clients than a mask holds).  Always safe: filtered and
     * unfiltered snooping are byte-identical by construction, and
     * reaction notes become no-ops from here on.
     */
    void revertToFullSnoop();

    /**
     * The single client other than @p skip (-1: none) that would kill
     * a read of @p addr and supply its value (-1 when none); @p value
     * receives the supplied word.  Scans every potential supplier, or
     * — with the filter on — only the read-reacting snoopers
     * snooperMask() reports, plus a Debug-only full-scan cross-check
     * that the index missed nobody.
     */
    int findSupplier(int skip, Addr addr, Word &value);

    /**
     * Deliver @p txn to every (filtered) client except @p skip (-1:
     * none), plus a Debug-only cross-check that every indexed client
     * the masks skipped is indeed non-reactive.
     */
    void broadcast(const BusTransaction &txn, int skip);

    /** Record a retry due to a locked word / not-ready memory side. */
    void nack(int grant, const BusRequest &request);

    /** Emit a completed-transaction trace event (phase 'X'). */
    void traceComplete(std::string_view name, Addr addr, int issuer,
                       std::size_t extra_cycles,
                       const char *detail = nullptr);

    /** Emit an instant trace event on this bus's track. */
    void traceInstant(std::string_view name, Addr addr,
                      const char *detail);

    /** Hold the bus for a transaction's extra cycles. */
    void occupy(std::size_t extra_cycles);

    /** Extra occupancy of a word-granular memory transaction. */
    std::size_t wordCost() const { return memoryLatency; }

    /** Extra occupancy of a block transfer. */
    std::size_t
    blockCost() const
    {
        return memoryLatency + (blockSize > 1 ? blockSize - 1 : 0);
    }

    MemorySide &memory;
    std::unique_ptr<Arbiter> arbiter;
    const Clock &clock;
    stats::CounterSet &stats;
    std::size_t blockSize;
    std::size_t memoryLatency;
    std::vector<BusClient *> clients;
    /** Clients that may have a pending request. */
    ClientMask armed;
    /** Opted-in clients to poll at the next free cycle (noteStale). */
    ClientMask poll;
    /** Clients polled on every free cycle while armed (the default). */
    ClientMask always;
    /** Members of armed. */
    std::size_t armedCount = 0;
    /** Per-client potential-supplier flag (parallel to clients). */
    std::vector<char> suppliers;
    /** Count of set entries in suppliers. */
    std::size_t supplierCount = 0;
    /** Scratch requester set reused every cycle (no allocation). */
    ClientMask ready;
    /** Remaining cycles of an in-flight transaction. */
    std::size_t transferCyclesLeft = 0;

    /** Most clients one bus can sharer-index (bits in a mask). */
    static constexpr std::size_t kMaxFilterClients = 64;

    /**
     * One block's slot in the sharer index: the indexed clients whose
     * line for the block reacts to a snooped Read, and those whose
     * line reacts to a snooped Write or Invalidate.
     */
    struct ReactionMasks
    {
        std::uint64_t read = 0;
        std::uint64_t write = 0;
    };

    /**
     * The sharer index: block number -> the reaction masks of that
     * block.  A line that holds the block but reacts to nothing (an
     * RB Readable line under a read broadcast, say) is in neither
     * mask, so it costs no visit.  The synthetic address space is
     * sparse — private PE regions sit a megaword apart and shared
     * data lives at 2^40 — so a dense array is unusable; a FlatMap
     * (base/flat_map.hh, the same open-addressing table behind the
     * directory and the memory banks) holds the masks instead.
     * An entry is erased when its last reacting line leaves both
     * masks, so the entry count is bounded by the indexed lines that
     * react, not by the blocks the workload ever cached.  Nothing
     * iterates the index, so its slot order cannot reach a result.
     */
    using HolderIndex = FlatMap<std::uint64_t, ReactionMasks>;

    /** Indexed clients reacting to a snooped @p op on @p addr's block. */
    std::uint64_t
    reactingMask(Addr addr, BusOp op) const
    {
        const ReactionMasks *masks = holders.lookup(blockIndex(addr));
        if (masks == nullptr)
            return 0;
        return op == BusOp::Read ? masks->read : masks->write;
    }

    /** Whether this bus filters snoops (the ctor flag, until a revert). */
    bool filterOn = true;
    /** blockSize is a power of two; blockIndex() shifts instead. */
    bool blockPow2 = true;
    std::size_t blockShift = 0;
    /** Per-client indexed flag (1 = sharer-indexed; parallel). */
    std::vector<char> indexed;
    /** Bit per client not opted into indexing (always visited). */
    std::uint64_t alwaysSnoopMask = 0;
    /** Bit per client registered as a potential supplier. */
    std::uint64_t supplierMask = 0;
    /** Sharer index (see HolderIndex). */
    HolderIndex holders;
    /** Broadcast visits + supplier polls (see snoopVisits()). */
    std::uint64_t snoopVisitCount = 0;
    /** Active-filter reverts to full snooping (see snoopFilterFallbacks). */
    std::uint64_t fallbackCount = 0;

    /** Bus-category trace buffer (null when not traced). */
    obs::TraceBuffer *busTrace = nullptr;
    /** The recorder's lock log (null when lock events are off). */
    obs::LockLog *lockRec = nullptr;
    /** Trace track id (bus index within the System). */
    std::int32_t busId = 0;

    // Handles interned once at construction; every per-event
    // statistic is a plain array increment.
    stats::CounterId statBusy, statTransfer, statIdle, statKill,
        statSupplyWrite, statRmwSuccess, statRmwFail, statNack;
    /** bus.<op> issue counters, indexed by BusOp. */
    stats::CounterId statOp[kNumBusOps];
    /** bus.nack.<op> counters, indexed by BusOp. */
    stats::CounterId statNackOp[kNumBusOps];
};

} // namespace ddc

#endif // DDC_SIM_BUS_HH
