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
 * by snooped transactions on the line reserved for the access, so the
 * whole plan is lazily re-validated when the bus next polls
 * hasRequest() after such a snoop; a pending read whose line was
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

class Shard;

/** One direct-mapped private cache (or one bank of a multi-bus set). */
class Cache : public BusClient
{
  public:
    /**
     * Outcome of a CPU access: 16 bytes, so a hit comes back in two
     * registers rather than through memory.
     */
    struct AccessResult
    {
        Word value = 0;
        bool complete = false;
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
     * Raise @p shard's wake for agent slot @p slot whenever an
     * outstanding access completes (every completionReady
     * transition), so an agent stalled on a miss needs no per-cycle
     * completion polling (see Agent::stalledOnCompletion).
     */
    void
    setWakeSlot(Shard *shard, std::size_t slot)
    {
        wakeShard = shard;
        wakeSlot = slot;
    }

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

    /** Number of LineTag enumerators (class memo / census tables). */
    static constexpr std::size_t kNumTags = 8;

  private:
    /**
     * Block base and state of one line (one block), packed into one
     * word: the base in the low kAddrBits bits, the LineTag and the
     * write streak in the two bytes above.  The block's words live in
     * the cache's contiguous words array (lineData()) and its LRU
     * stamp, when the cache is set-associative, in lastUse, so a line
     * is 8 bytes with no allocation of its own.  Raw accessors: state
     * and base changes that the bus must hear of go through
     * setLineState() and setLineBase().
     */
    class Line
    {
      public:
        /** Block base address (valid when state is not NotPresent). */
        Addr base() const { return bits & kBaseMask; }

        LineState
        state() const
        {
            return {static_cast<LineTag>((bits >> kAddrBits) & 0xff),
                    static_cast<std::uint8_t>(bits >> (kAddrBits + 8))};
        }

        void setBase(Addr base) { bits = (bits & ~kBaseMask) | base; }

        void
        setState(LineState state)
        {
            bits = (bits & kBaseMask) |
                   (std::uint64_t{static_cast<std::uint8_t>(state.tag)}
                    << kAddrBits) |
                   (std::uint64_t{state.streak} << (kAddrBits + 8));
        }

      private:
        static constexpr std::uint64_t kBaseMask = kAddrLimit - 1;
        /** All zero: base 0, NotPresent. */
        std::uint64_t bits = 0;
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
         * True when a snoop moved the reserved line, so the stored
         * reaction or phase may be out of date.  The plan is a pure
         * function of that one line's state (its base changes only
         * in this cache's own completions, which re-derive the plan
         * at once), so hasRequest() re-runs the derivation only after
         * observe / supplied moved that line: not on every poll, and
         * not when a snoop moves any other line.  Set only through
         * markStale(), which also tells the bus to poll again.
         */
        bool stale = false;
        /** Cycle cpuAccess() issued this access (observability). */
        Cycle issue_cycle = 0;
        /** Start of the current bus wait (reset per transaction). */
        Cycle phase_start = 0;
        /**
         * NACK + kill restarts absorbed so far (observability).  Read
         * only by histograms and the miss trace (finish()).  A parked
         * bus books repeated NACKs without calling requestNacked, but
         * never parks while either is attached, so the count is exact
         * wherever it is read.
         */
        std::uint64_t retries = 0;
    };

    // The lookup helpers are inline, defined in cache.cc (their only
    // user), so the per-access and per-snoop paths carry them in-line.

    inline Addr blockBase(Addr addr) const;

    /** First line index of @p addr's set. */
    inline std::size_t setBase(Addr addr) const;

    /** The way of @p addr's set holding its tag, or nullptr. */
    inline Line *findLine(Addr addr);
    inline const Line *findLine(Addr addr) const;

    /**
     * The line a (re)fill of @p addr will use: the tag-matching way
     * when one exists (even Invalid, so a set never holds duplicate
     * tags), else an empty way, else the LRU way.
     */
    inline Line &victimLine(Addr addr);

    /** The words of @p line's block (blockSize of them). */
    inline Word *lineData(const Line &line);
    inline const Word *lineData(const Line &line) const;

    /** Stamp @p line as most recently used (set-associative only). */
    inline void touch(const Line &line);

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
     * memo filled lazily like the protocol's snoop memo
     * (Protocol::snoop); states carrying a write streak are computed
     * directly.  NotPresent reacts to nothing.
     */
    ReactionClass classOf(LineState state) const;

    /** True when @p line holds the block containing @p addr. */
    inline bool holdsBlock(const Line &line, Addr addr) const;

    /** State of @p line as seen for @p addr (NotPresent on tag miss). */
    inline LineState stateFor(const Line &line, Addr addr) const;

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

    /**
     * A snoop moved @p line.  When it is the line reserved for a
     * pending access, flag the plan for re-derivation and have the
     * bus poll this cache at its next free cycle (the
     * Bus::setPollOnStale promise); a move of any other line cannot
     * change the plan and costs nothing.
     */
    void markStale(const Line &line);

    /** Emit a tag-transition instant (stateTrace known non-null). */
    void traceStateChange(LineTag from, LineTag to, Addr base);

    /** Number of CpuOp / DataClass enumerators (handle table). */
    static constexpr std::size_t kNumCpuOps = 5;
    static constexpr std::size_t kNumClasses = 3;

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
     * True when the bus sharer-indexes this cache (its snoop filter is
     * active and this is one of its first 64 clients), which must then
     * report every reaction-class / base change through noteReactions.
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

    /** Reaction classes for streak-free states, filled lazily. */
    mutable ReactionClass classMemo[kNumTags];
    mutable bool classMemoValid[kNumTags] = {};

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
     * LRU stamp of each line (updated on CPU use and install), indexed
     * like lines.  Allocated only when ways > 1: a direct-mapped
     * set's one line is always its victim.
     */
    std::vector<std::uint64_t> lastUse;
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
    /** Woken on completion for the owning agent (see setWakeSlot). */
    Shard *wakeShard = nullptr;
    std::size_t wakeSlot = 0;
    AccessResult completion{};
};

} // namespace ddc

#endif // DDC_SIM_CACHE_HH
