/**
 * @file
 * A private per-PE cache: direct-mapped, with the paper's one-word
 * blocks by default (Section 2, assumption 7) and optional multi-word
 * blocks for the assumption-7 ablation.
 *
 * The cache owns tag/state/value storage and *executes* whatever the
 * configured Protocol decides.  A CPU access either completes locally
 * in the same cycle (hit) or becomes the cache's single pending bus
 * operation, which may take up to three sequential bus transactions:
 *
 *   Writeback  - evict a dirty victim occupying the target line,
 *   Fill       - fetch the target block before a write-class
 *                transaction, when blocks are multi-word and the
 *                block is not resident (write-allocate needs the
 *                block's other words),
 *   Flush      - write back the target word/block itself before an
 *                RMW-class transaction that takes its input from
 *                memory,
 *   Main       - the protocol-chosen transaction for the access.
 *
 * Preconditions of the earlier phases can be erased (or re-created)
 * by snooped transactions, so the whole plan is lazily re-validated
 * each time the bus polls hasRequest(); a pending read whose line was
 * refilled by a snooped broadcast completes without ever using the
 * bus — the RWB scheme's "data can be fetched from any cache".
 */

#ifndef DDC_SIM_CACHE_HH
#define DDC_SIM_CACHE_HH

#include <vector>

#include "base/types.hh"
#include "core/protocol.hh"
#include "sim/bus.hh"
#include "sim/clock.hh"
#include "sim/exec_log.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

namespace ddc {

/** One direct-mapped private cache (or one bank of a multi-bus set). */
class Cache : public BusClient
{
  public:
    /** Outcome of a CPU access. */
    struct AccessResult
    {
        bool complete = false;
        Word value = 0;
        bool ts_success = false;
    };

    /**
     * @param pe Owning PE.
     * @param num_lines Number of lines (> 0); capacity in words is
     *        num_lines * block_words.
     * @param protocol Coherence policy (shared, not owned).
     * @param clock The machine clock, read to stamp observability
     *        output and execution-log entries.
     * @param stats Counter set receiving cache.* statistics.
     * @param log Optional serial execution log for consistency checks.
     * @param block_words Words per block (paper default: 1).
     * @param ways Set associativity (paper default: 1, direct-mapped);
     *        must divide num_lines.  Replacement within a set is LRU.
     */
    Cache(PeId pe, std::size_t num_lines, const Protocol &protocol,
          const Clock &clock, stats::CounterSet &stats,
          ExecutionLog *log = nullptr, std::size_t block_words = 1,
          std::size_t ways = 1);

    /** Attach to @p bus (must be called exactly once before use). */
    void connectBus(Bus &bus);

    /** This cache's client index on its bus (-1 before connectBus). */
    int busClient() const { return clientIndex; }

    /**
     * Attach observability (state-transition instants, miss-service
     * spans, latency histograms).  @p recorder may be null; the
     * cached per-category pointers keep the disabled path at one
     * null test per emission site.
     */
    void setObserver(obs::Recorder *recorder);

    /**
     * Add this cache's per-tag line population into @p counts
     * (indexed by LineTag; at least kNumTags entries) — the
     * state-population census column set of the counter sampler.
     */
    void addTagCensus(std::uint64_t *counts) const;

    /**
     * Issue a CPU access.  Returns complete=true for hits; otherwise
     * the access is pending (at most one at a time) and the caller
     * polls takeCompletion() on subsequent cycles.
     */
    AccessResult cpuAccess(const MemRef &ref);

    /** True while an access is outstanding. */
    bool busy() const { return pending.active; }

    /**
     * Monotonic id of the most recent cpuAccess.  A component that
     * completes this cache's request out-of-band (the hierarchical
     * cluster cache) records it to detect abandoned operations.
     */
    std::uint64_t accessId() const { return accessCounter; }

    /** True when a previously pending access has completed. */
    bool hasCompletion() const { return completionReady; }

    /**
     * Register a flag raised whenever an outstanding access completes
     * (every completionReady transition).  The System points this at
     * the owning agent's wake slot so an agent stalled on a miss
     * needs no per-cycle completion polling (see
     * Agent::stalledOnCompletion).
     */
    void setWakeFlag(char *flag) { wakeFlag = flag; }

    /** Retrieve (and consume) the completed access's result. */
    AccessResult takeCompletion();

    /** Coherence state this cache holds for @p addr's block. */
    LineState lineState(Addr addr) const;

    /** Cached value for @p addr (0 when not present). */
    Word lineValue(Addr addr) const;

    /** Number of lines. */
    std::size_t numLines() const { return lines.size(); }

    /** Words per block. */
    std::size_t blockWords() const { return blockSize; }

    /** Set associativity. */
    std::size_t numWays() const { return ways; }

    // BusClient interface.
    bool hasRequest() override;
    BusRequest currentRequest() override;
    void requestComplete(const BusResult &result) override;
    bool wouldSupply(Addr addr, Word &value) override;
    std::vector<Word> supplyBlock(Addr addr) override;
    void observe(const BusTransaction &txn) override;
    ReactionClass reactionClass(Addr addr) const override;
    void supplied(Addr addr) override;
    void requestNacked() override;
    void requestKilled() override;
    PeId peId() const override { return pe; }

    /** Number of LineTag enumerators (snoop memo / census tables). */
    static constexpr std::size_t kNumTags = 8;

  private:
    /**
     * Tag and state of one line (one block).  The block's words live
     * in the cache's contiguous words array (lineData()), so a line is
     * 24 bytes with no allocation of its own.
     */
    struct Line
    {
        /** Block base address (valid when state is not NotPresent). */
        Addr base = 0;
        /** LRU stamp (updated on CPU use and install). */
        std::uint64_t last_use = 0;
        LineState state{};
    };

    /** Phases of a pending access. */
    enum class Phase { Writeback, Fill, Flush, Main };

    /**
     * The (single) outstanding access.
     *
     * Arming invariant (the skip engine's lifeline): the cache arms
     * itself on its bus exactly for the lifetime of a pending access
     * — setArmed(true) at activation in cpuAccess(), cleared only by
     * finish(), which also raises completionReady.  NACK retries and
     * phase/reaction changes never disarm, so an agent stalled on
     * this access is always visible to System::earliestNextEvent()
     * through the bus's armed count (or through hasCompletion() once
     * the access finished), and a quiescent interval can never hide a
     * retry the baseline would have issued.
     */
    struct PendingOp
    {
        bool active = false;
        MemRef ref{};
        CpuReaction reaction{};
        Phase phase = Phase::Main;
        /** Line index reserved for this access (stable across phases). */
        std::size_t way_index = 0;
        /**
         * True when a snoop may have changed the stored reaction or
         * phase.  The re-derivation is pure in the line array, so
         * hasRequest() only re-runs it after a line actually mutated
         * (observe / supplied / requestComplete) instead of on every
         * poll of every cycle.
         */
        bool stale = false;
        /** Cycle cpuAccess() issued this access (observability). */
        Cycle issue_cycle = 0;
        /** Start of the current bus wait (reset per transaction). */
        Cycle phase_start = 0;
        /** NACK + kill restarts absorbed so far (observability). */
        std::uint64_t retries = 0;
    };

    Addr blockBase(Addr addr) const;

    /** First line index of @p addr's set. */
    std::size_t setBase(Addr addr) const;

    /** The way of @p addr's set holding its tag, or nullptr. */
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    /**
     * The line a (re)fill of @p addr will use: the tag-matching way
     * when one exists (even Invalid, so a set never holds duplicate
     * tags), else an empty way, else the LRU way.
     */
    Line &victimLine(Addr addr);

    /** The words of @p line's block (blockSize of them). */
    Word *lineData(const Line &line);
    const Word *lineData(const Line &line) const;

    /** The line reserved for the pending access. */
    Line &pendingLine();
    const Line &pendingLine() const;

    /**
     * Assign @p next to @p line's state, maintaining supplierLines
     * and the bus's sharer index (a reaction-class change is noted
     * for line.base, which must already hold the line's block).
     * Every state change must go through here.
     */
    void setLineState(Line &line, LineState next);

    /**
     * Retarget @p line to block @p base, moving its sharer-index
     * entry when the line reacts to anything under a different base
     * (clean retag of a victim that needed no write-back).  Every
     * base assignment must go through here.
     */
    void setLineBase(Line &line, Addr base);

    /**
     * The snooped ops a line in @p state reacts to, via a per-tag
     * memo filled like the snoop memo; states carrying a write streak
     * are computed directly.  NotPresent reacts to nothing.
     */
    ReactionClass classOf(LineState state) const;

    /**
     * Protocol::onSnoop via the constructor-built memo table.
     * Protocols are stateless policy objects, so the reaction for a
     * streak-free state is a constant per (tag, op); states carrying
     * a write streak (RWB FirstWrite) fall back to the virtual call.
     */
    SnoopReaction snoopReaction(LineState state, BusOp op) const;

    /** Protocol::onCpuAccess via the same kind of memo table. */
    CpuReaction cpuReaction(LineState state, CpuOp op,
                            DataClass cls) const;

    /** True when @p line holds the block containing @p addr. */
    bool holdsBlock(const Line &line, Addr addr) const;

    /** State of @p line as seen for @p addr (NotPresent on tag miss). */
    LineState stateFor(const Line &line, Addr addr) const;

    /** Choose the next phase for the current pending reaction. */
    Phase computePhase() const;

    /**
     * Re-derive the reaction and phase from the current line state;
     * completes the access locally if a snooped broadcast already
     * satisfied it.
     */
    void revalidatePending();

    /** Finish the pending access with @p result and log the commit. */
    void finish(const AccessResult &result);

    /** Record the commit of @p ref in the serial execution log. */
    void logCommit(const MemRef &ref, const AccessResult &result);

    /** Tell the bus whether this cache needs polling (fast path). */
    void setArmed(bool is_armed);

    /** Emit a tag-transition instant (stateTrace known non-null). */
    void traceStateChange(LineTag from, LineTag to, Addr base);

    /** Number of CpuOp / DataClass enumerators (handle table). */
    static constexpr std::size_t kNumCpuOps = 5;
    static constexpr std::size_t kNumClasses = 3;
    /**
     * Snooped bus ops are the contiguous enum prefix Read, Write,
     * Invalidate (the bus resolves Rmw / ReadLock / WriteUnlock to an
     * effective Read or Write before broadcast).
     */
    static constexpr std::size_t kNumSnoopOps = 3;

    PeId pe;
    const Protocol &protocol;
    const Clock &clock;
    stats::CounterSet &stats;
    ExecutionLog *log;
    std::size_t blockSize;
    std::size_t ways;
    /**
     * Power-of-two geometry (block size and set count) lets the
     * per-snoop address mapping use shifts and masks; odd geometries
     * keep the division path.  Every broadcast runs the mapping once
     * per attached cache, so this is the snoop fast path.
     */
    bool pow2Geometry = false;
    std::size_t blockShift = 0;
    std::size_t setMask = 0;
    /**
     * Number of lines whose state would supply a snooped read
     * (protocol ownership, e.g. RB/RWB Local).  The bus polls
     * wouldSupply() on every attached cache for every read-class
     * transaction; a zero count answers without touching the line
     * array.
     */
    std::size_t supplierLines = 0;
    std::uint64_t lruClock = 0;
    Bus *bus = nullptr;
    /** This cache's client index on the attached bus. */
    int clientIndex = -1;
    /**
     * True when this cache registered as sharer-indexed on its bus
     * (the bus's snoop filter is active), and so must report every
     * reaction-class / base change through noteReactions.
     */
    bool busIndexed = false;

    // Handles interned once at construction; per-reference statistics
    // are plain array increments.
    stats::CounterId statRefs, statWriteback, statFlush, statFill,
        statSnarf, statSnarfSuppressed, statInvalidated, statSupply,
        statBroadcastFill;
    /**
     * Per-reference cache.<op>[_<hit|miss>].<class> handles, indexed
     * [op][miss][class]; ops without a hit/miss split (TS, readlock,
     * writeunlock) hold the same handle in both miss slots.
     */
    stats::CounterId refStat[kNumCpuOps][2][kNumClasses];

    /** Snoop reactions for streak-free states, filled lazily. */
    mutable SnoopReaction snoopMemo[kNumTags][kNumSnoopOps];
    mutable bool snoopMemoValid[kNumTags][kNumSnoopOps] = {};
    /** Reaction classes for streak-free states, filled lazily. */
    mutable ReactionClass classMemo[kNumTags];
    mutable bool classMemoValid[kNumTags] = {};
    /** CPU reactions for streak-free states, filled lazily. */
    mutable CpuReaction cpuMemo[kNumTags][kNumCpuOps][kNumClasses];
    mutable bool cpuMemoValid[kNumTags][kNumCpuOps][kNumClasses] = {};

    /** State-category trace buffer (null when not traced). */
    obs::TraceBuffer *stateTrace = nullptr;
    /** Miss-category trace buffer (null when not traced). */
    obs::TraceBuffer *missTrace = nullptr;
    /** The recorder's histograms (null when --histograms is off). */
    obs::RunMetrics *metrics = nullptr;
    /**
     * The recorder's lock log (null unless lock events are wanted).
     * Releases are reported here, at the program-store level: under
     * write-back schemes the releasing store can complete in-cache
     * (line Local) and never reach the bus, so the bus cannot see it.
     */
    obs::LockLog *lockRec = nullptr;
    /**
     * Cause label for the next traced state transition, set at each
     * entry point (cpu / snoop / fill / supply / ...) only while
     * stateTrace is non-null.  Static-storage strings only.
     */
    const char *stateCause = nullptr;

    std::vector<Line> lines;
    /** Block data, lines.size() * blockSize words, line-major. */
    std::vector<Word> words;
    /**
     * Issue cycle of the last CPU write to each line's block (kNever =
     * none yet), indexed like lines.  Allocated and maintained only
     * once histograms are attached; feeds the inter-write-distance
     * histogram behind RWB's k-consecutive-writes rule.
     */
    std::vector<Cycle> lastWrite;
    PendingOp pending;
    std::uint64_t accessCounter = 0;
    bool completionReady = false;
    /** Raised on completion for the owning agent (see setWakeFlag). */
    char *wakeFlag = nullptr;
    AccessResult completion{};
};

} // namespace ddc

#endif // DDC_SIM_CACHE_HH
