/**
 * @file
 * The coherence-protocol policy interface.
 *
 * A Protocol is pure policy for a single cache line ("address line" in
 * the paper's terms): it maps (current line state, event) to (next line
 * state, actions).  The cache substrate executes the actions; the bus
 * serializes transactions.  Crucially, the product-machine model
 * checker in src/verify drives these same Protocol objects, so the
 * consistency proof of Section 4 is checked against the shipped
 * implementation rather than a re-transcription of the state diagram.
 *
 * Events a protocol sees:
 *  - a CPU access from its own PE (onCpuAccess);
 *  - completion of its own bus transaction (afterBusOp);
 *  - a snooped transaction issued by another cache (onSnoop);
 *  - being chosen to supply data for a killed bus read (afterSupply);
 *  - eviction (needsWriteback decides whether a write-back is due).
 *
 * The bus resolves conditional transactions before snoop delivery:
 * protocols never snoop BusOp::Rmw / ReadLock / WriteUnlock — they see
 * the effective BusOp::Read or BusOp::Write (plus BusOp::Invalidate for
 * the RWB scheme's BI signal).
 */

#ifndef DDC_CORE_PROTOCOL_HH
#define DDC_CORE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "base/logging.hh"
#include "base/types.hh"

namespace ddc {

/**
 * Coherence state of one cache line.
 *
 * @c streak counts consecutive writes by the owning PE with no
 * intervening bus-visible reference by another PE; only the RWB scheme
 * uses it (its First-write state generalized to the paper's footnote-6
 * "at least k uninterrupted writes" rule).
 */
struct LineState
{
    LineTag tag = LineTag::NotPresent;
    std::uint8_t streak = 0;

    bool operator==(const LineState &other) const = default;

    /** True when this line currently holds a copy of its address. */
    bool
    present() const
    {
        return tag != LineTag::NotPresent && tag != LineTag::Invalid;
    }
};

/** Render a LineState as e.g. "R" or "F1". */
std::string toString(const LineState &state);

/**
 * Reaction of a protocol to a CPU access.  Word-aligned so the memo
 * lookup on every access copies it as one 8-byte load, not six bytes.
 */
struct alignas(8) CpuReaction
{
    /** True when the access needs a bus transaction to complete. */
    bool needs_bus = false;
    /** Which transaction to issue (valid when needs_bus). */
    BusOp bus_op = BusOp::Read;
    /** Next state when the access completes locally (hit). */
    LineState next{};
    /** Hit-write: store the CPU's data into the cached line. */
    bool update_value = false;
    /**
     * Install the line when the bus transaction completes.  The
     * Cm*-style baseline sets this false for shared data, which is
     * never cached (Table 1-1's emulation rule).
     */
    bool allocate = true;

    bool operator==(const CpuReaction &other) const = default;
};

static_assert(sizeof(CpuReaction) == 8, "a CPU reaction is one word");

/**
 * Reaction of a protocol to a snooped bus transaction (aligned, like
 * CpuReaction, to copy as one 4-byte word).
 */
struct alignas(4) SnoopReaction
{
    /** Next state of the snooping line. */
    LineState next{};
    /** Latch the transaction's data value into the line. */
    bool snarf = false;
    /**
     * Kill the transaction and supply this line's value via a bus
     * write (the Local-state intervention of the RB scheme).  Only
     * meaningful for snooped reads.
     */
    bool supply = false;
};

static_assert(sizeof(SnoopReaction) == 4, "a snoop reaction is one word");

/**
 * Abstract decentralized cache-coherence scheme.
 *
 * Implementations are policy objects holding no per-line state (all of
 * it lives in LineState), so one Protocol instance serves every line
 * of every cache of one machine.  The base class adds the memoizing
 * accessors snoop() and access() that the caches' hot paths use; their
 * tables fill lazily, so they are per-instance mutable state with no
 * locking.  A Protocol belongs to the one machine that built it, and
 * the experiment runner never shares a machine across threads
 * (exp/runner.hh), so no two threads fill one table.
 */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    /** Short scheme name, e.g. "RB". */
    virtual std::string_view name() const = 0;

    /**
     * True when the scheme latches the data portion of bus writes
     * (the defining difference between RWB and RB, Section 5).
     */
    virtual bool broadcastsWrites() const = 0;

    /**
     * React to a CPU access.
     *
     * @param state Current state of the addressed line (for the
     *              accessed address; NotPresent if another address
     *              occupies the line).
     * @param op The CPU operation.
     * @param cls Software data classification (transparent schemes
     *            ignore it; the Cm* baseline keys off it).
     */
    virtual CpuReaction onCpuAccess(LineState state, CpuOp op,
                                    DataClass cls) const = 0;

    /**
     * State after this cache's own bus transaction completed.
     *
     * @param state State when the transaction was issued.
     * @param op The transaction that completed.
     * @param rmw_success For BusOp::Rmw: whether the test succeeded
     *                    (write semantics) or failed (read semantics).
     */
    virtual LineState afterBusOp(LineState state, BusOp op,
                                 bool rmw_success) const = 0;

    /**
     * React to another cache's transaction for an address this line
     * holds.  @p op is the effective operation: Read, Write, or
     * Invalidate.
     */
    virtual SnoopReaction onSnoop(LineState state, BusOp op) const = 0;

    /**
     * State after this line killed a bus read and supplied its value
     * (always Readable in the paper's schemes: the supplied value now
     * matches memory).
     */
    virtual LineState afterSupply(LineState state) const = 0;

    /** Does eviction of a line in @p state require a bus write-back? */
    virtual bool needsWriteback(LineState state) const = 0;

    /**
     * May memory hold a stale value while a line is in @p state?  When
     * true, the cache flushes (bus-writes) the line before issuing an
     * Rmw or ReadLock for the same address, since those transactions
     * take their input from memory.
     */
    virtual bool
    memoryMayBeStale(LineState state) const
    {
        return needsWriteback(state);
    }

    /**
     * onSnoop through this instance's memo.  The reaction for a
     * streak-free state is a constant per (tag, op); states carrying
     * a write streak (RWB FirstWrite) call onSnoop directly.
     */
    SnoopReaction
    snoop(LineState state, BusOp op) const
    {
        auto op_index = static_cast<std::size_t>(op);
        ddc_assert(op_index < kNumSnoopOps,
                   "snooped an unresolved conditional bus op");
        if (state.streak != 0)
            return onSnoop(state, op);
        // Filled lazily rather than eagerly at construction:
        // combinations a protocol treats as impossible panic inside
        // onSnoop, and must keep doing so only when actually reached.
        auto tag_index = static_cast<std::size_t>(state.tag);
        if (!snoopMemoValid[tag_index][op_index]) {
            snoopMemo[tag_index][op_index] = onSnoop(state, op);
            snoopMemoValid[tag_index][op_index] = true;
        }
        return snoopMemo[tag_index][op_index];
    }

    /**
     * onCpuAccess through the same kind of memo.  The table is the
     * instance's own: a reaction may depend on its configuration
     * (RWB's k decides Readable + Write).
     */
    CpuReaction
    access(LineState state, CpuOp op, DataClass cls) const
    {
        if (state.streak != 0)
            return onCpuAccess(state, op, cls);
        auto tag_index = static_cast<std::size_t>(state.tag);
        auto op_index = static_cast<std::size_t>(op);
        auto cls_index = static_cast<std::size_t>(cls);
        if (!cpuMemoValid[tag_index][op_index][cls_index]) {
            cpuMemo[tag_index][op_index][cls_index] =
                onCpuAccess(state, op, cls);
            cpuMemoValid[tag_index][op_index][cls_index] = true;
        }
        return cpuMemo[tag_index][op_index][cls_index];
    }

  private:
    /** Number of LineTag / CpuOp / DataClass enumerators. */
    static constexpr std::size_t kNumTags = 8;
    static constexpr std::size_t kNumCpuOps = 5;
    static constexpr std::size_t kNumClasses = 3;
    /**
     * Snooped bus ops are the contiguous enum prefix Read, Write,
     * Invalidate (the bus resolves Rmw / ReadLock / WriteUnlock to an
     * effective Read or Write before broadcast).
     */
    static constexpr std::size_t kNumSnoopOps = 3;

    /** Snoop reactions for streak-free states, filled lazily. */
    mutable SnoopReaction snoopMemo[kNumTags][kNumSnoopOps];
    mutable bool snoopMemoValid[kNumTags][kNumSnoopOps] = {};
    /** CPU reactions for streak-free states, filled lazily. */
    mutable CpuReaction cpuMemo[kNumTags][kNumCpuOps][kNumClasses];
    mutable bool cpuMemoValid[kNumTags][kNumCpuOps][kNumClasses] = {};
};

} // namespace ddc

#endif // DDC_CORE_PROTOCOL_HH
