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
 * Conditional transactions are resolved by the transaction path the
 * bus shares with the directory's home nodes (sim/transaction.hh):
 * snooping caches never see BusOp::Rmw / ReadLock / WriteUnlock —
 * they observe the effective BusOp::Read or BusOp::Write, matching
 * the paper's treatment of a failing test-and-set as a read and a
 * succeeding one as a write.  The bus supplies its addressing: the
 * supplier scan, the (filtered) broadcast, block geometry and
 * occupancy, and its trace track.
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
#include "sim/transaction.hh"
#include "stats/counter.hh"

namespace ddc {

/**
 * The shared bus: arbitration, snooping and occupancy around the
 * shared transaction path.
 *
 * NACK-repeat parking (DESIGN.md): a client whose RMW-class grant its
 * memory side NACKed, where that side declares such NACKs repeat
 * (MemorySide::rmwNacksRepeat), is a *repeater*: until something
 * changes, granting it again only books one busy cycle and one NACK.
 * After such a NACK, when no transfer is in flight, no armed client is
 * due for a poll, no client could supply, nothing observes grants or
 * retries, and the arbiter can say how many of its next grants go to
 * repeaters of the same op, the bus parks: tick() only counts the
 * cycles it owes, up to that many.  Anything that could change or
 * read what the repeats depend on first catches the bus up (settle):
 * arming, disarming, noteStale, setSupplier, setPollOnStale,
 * endRepeat and Shard::flushStalls.  A catch-up adds the owed cycles
 * to the busy and NACK counters and advances the arbiter by as many
 * grants (a few mask-word popcounts for RoundRobin); it touches no
 * client.
 */
class Bus : public GlobalFabric,
            public Tickable,
            private TransactionPath<Bus>
{
    friend class TransactionPath<Bus>;

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
     * @param park_repeats Book runs of repeated NACKs in bulk when
     *        @p memory declares them (MemorySide::rmwNacksRepeat; see
     *        the class comment).  Results are byte-identical either
     *        way; off is the A/B baseline (the machine passes its
     *        EngineKnobs::skip_quiescent).
     */
    Bus(MemorySide &memory, ArbiterKind arbiter_kind, const Clock &clock,
        stats::CounterSet &stats, std::uint64_t seed = 0,
        std::size_t block_words = 1, std::size_t memory_latency = 0,
        bool snoop_filter = true, bool park_repeats = true);

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
    void
    noteStale(int client)
    {
        settle();
        unrepeat(client);
        poll.set(client);
    }

    /**
     * The memory side's NACKs of client @p client's request no longer
     * repeat (the cluster cache dequeued that PE's forward): catch up
     * a park that counted on them.
     */
    void
    endRepeat(int client)
    {
        if (isRepeater(client)) {
            settle();
            unrepeat(client);
        }
    }

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
     * @return Whether the client is now indexed.  A bus with the
     *         filter off, and clients past the 64th (one bit each in
     *         a mask), stay always-snoop: they are visited after the
     *         masked clients, in ascending order, on every snoop.
     */
    bool setSnoopIndexed(int client);

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
     * Catch a parked bus up: book the cycles it owes, exactly as the
     * ticks it skipped would have, and unpark.  A no-op otherwise.
     */
    void
    settle() override
    {
        if (parked)
            catchUp();
    }

    /**
     * Bus cycles booked by catch-ups so far, all of them NACKed grants
     * (a parked interval not yet settled is not counted).  Plain
     * bookkeeping like snoopVisits: it depends on the skip knob and on
     * observation, so it is reported only in the engine section
     * (EngineReport::parked_cycles, under --timing).
     */
    std::uint64_t parkedCycles() const { return parkedTotal; }

    /**
     * Earliest cycle at which this bus can next change state: the end
     * of the streaming window while a multi-cycle transfer occupies
     * the bus, else @p now while any client is armed (a grant could
     * start a transaction), else kNever.  The memory side behind it
     * is passive (see DESIGN.md, "Quiescent-cycle skipping").
     * Side-effect free: consults only the transfer countdown and the
     * armed count — never hasRequest() (whose lazy revalidation must
     * stay aligned with the baseline polling schedule).
     */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        if (transferCyclesLeft > 0)
            return now + static_cast<Cycle>(transferCyclesLeft);
        return armedClients() > 0 ? now : kNever;
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
    using TransactionPath::blockBase;

  private:
    /**
     * Collect the armed clients with a request into the reusable
     * scratch mask.  Only the always-polled and the stale opted-in
     * clients are polled, in ascending order; every other armed client
     * counts as a requester without a call.  One pass serves both the
     * idle check and arbitration; when every client is disarmed it
     * returns empty without a single virtual call.
     */
    const ClientMask &collectRequesters();

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

    // The transaction path's hooks (see TransactionPath).

    /** A committed transaction is broadcast; the bus records nothing. */
    void
    commit(const BusTransaction &txn, Commit kind)
    {
        (void)kind;
        broadcast(txn, txn.issuer);
    }

    /** Hold the bus for the transfer and trace its slice. */
    void carry(std::string_view name, Addr addr, int issuer, bool block,
               const char *detail);

    /** Trace the kill of @p request's read. */
    void killed(const BusRequest &request);

    /** Trace the NACK and mark a repeater (see the class comment). */
    void nacked(int grant, const BusRequest &request);

    /** Number of RMW-class ops (Rmw, ReadLock, WriteUnlock). */
    static constexpr std::size_t kNumRepeatOps = 3;

    /** @p op's repeaters slot, or kNumRepeatOps when it cannot repeat. */
    static std::size_t repeatSlot(BusOp op);

    /** Whether @p client is a repeater (of any op). */
    bool
    isRepeater(int client) const
    {
        if (repeaterCount == 0)
            return false;
        for (const ClientMask &mask : repeaters) {
            if (mask.test(client))
                return true;
        }
        return false;
    }

    /**
     * @p client stops being a repeater.  A client repeats at most one
     * op (every grant unrepeats it before its NACK can mark it), and a
     * bus without repeaters touches no mask.
     */
    void
    unrepeat(int client)
    {
        if (repeaterCount == 0)
            return;
        for (ClientMask &mask : repeaters) {
            if (mask.test(client)) {
                mask.reset(client);
                repeaterCount--;
                return;
            }
        }
    }

    /**
     * After a tick whose grant NACKed a repeater of @p op: park when
     * the predicate holds (see the class comment).
     */
    void tryPark(BusOp op);

    /** Book the owed cycles and unpark (settle's slow path). */
    void catchUp();

    /** Debug: the park's inputs are as they were when it began. */
    void checkParked() const;

    /** Emit a completed-transaction trace event (phase 'X'). */
    void traceComplete(std::string_view name, Addr addr, int issuer,
                       std::size_t extra_cycles,
                       const char *detail = nullptr);

    /** Emit an instant trace event on this bus's track. */
    void traceInstant(std::string_view name, Addr addr,
                      const char *detail);

    MemorySide &memory;
    std::unique_ptr<Arbiter> arbiter;
    const Clock &clock;
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

    // Parking state every tick() reads, kept beside transferCyclesLeft
    // so an unparked tick touches no further cache line.
    /** Ticks only count owed cycles (see the class comment). */
    bool parked = false;
    /** This tick's grant was NACKed and repeats (tick -> tryPark). */
    bool repeatNacked = false;
    /**
     * The ctor's park_repeats, the memory side declares repeats, and
     * no observer reads grants or retries (setObserver).
     */
    bool parkable = false;
    /** The op every grant of the park repeats. */
    BusOp parkOp = BusOp::Rmw;
    /** Parked ticks not yet booked. */
    std::uint64_t owed = 0;
    /** Cycles the park may owe before its next grant is a real one. */
    std::uint64_t parkRun = 0;
    /** Members of all repeaters masks. */
    std::size_t repeaterCount = 0;
    /** Per RMW-class op (repeatSlot), the clients whose NACK repeats. */
    ClientMask repeaters[kNumRepeatOps];
    /** Cycles booked by catch-ups (parkedCycles()). */
    std::uint64_t parkedTotal = 0;
#ifndef NDEBUG
    /** The park's inputs when it began (checkParked). */
    ClientMask parkArmed, parkPoll, parkAlways, parkRepeaters;
    std::size_t parkSuppliers = 0;
#endif

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

    /** Whether this bus filters snoops (the ctor's snoop_filter). */
    const bool filterOn;
    /** blockSize is a power of two; blockIndex() shifts instead. */
    bool blockPow2 = true;
    std::size_t blockShift = 0;
    /** Per-client indexed flag (1 = sharer-indexed; parallel). */
    std::vector<char> indexed;
    /** Bit per client of the first 64 not indexed (always visited). */
    std::uint64_t alwaysSnoopMask = 0;
    /** Bit per client of the first 64 registered as a supplier. */
    std::uint64_t supplierMask = 0;
    /** Sharer index (see HolderIndex). */
    HolderIndex holders;
    /** Broadcast visits + supplier polls (see snoopVisits()). */
    std::uint64_t snoopVisitCount = 0;

    /** Bus-category trace buffer (null when not traced). */
    obs::TraceBuffer *busTrace = nullptr;
    /** Trace track id (bus index within the System). */
    std::int32_t busId = 0;
};

} // namespace ddc

#endif // DDC_SIM_BUS_HH
