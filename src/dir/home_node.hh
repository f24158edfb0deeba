/**
 * @file
 * One home node of the directory fabric: an address-interleaved slice
 * of global memory plus the directory for its blocks.
 *
 * A home node serves at most one cluster request per cycle, with the
 * same arbitration policy as the snooping global Bus, through the same
 * transaction path (sim/transaction.hh): the same memory/lock
 * semantics, call sequence, bus.* counters and lock log.  The only
 * difference is *addressing*: instead of broadcasting to every
 * cluster and polling every potential supplier, the home sends
 * point-to-point messages to exactly the clusters its directory
 * records (owner forward on the kill/supply path; invalidate+ack or
 * update deliveries on the broadcast path), and records what each
 * commit made of its issuer.  Delivering only to recorded sharers is
 * exact, not approximate: a cluster without an entry treats the
 * snooped transaction as a no-op, and the directory tracks
 * entry-holding clusters exactly (see dir/directory.hh).
 *
 * With one home node the fabric is cycle-for-cycle, counter-for-
 * counter identical to the snooping global bus; with many, each home
 * grants independently each cycle, which is where the scaling comes
 * from.  Cost per transaction is O(sharers of the block), never
 * O(clusters).
 */

#ifndef DDC_DIR_HOME_NODE_HH
#define DDC_DIR_HOME_NODE_HH

#include <memory>
#include <vector>

#include "base/types.hh"
#include "dir/directory.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/arbiter.hh"
#include "sim/clock.hh"
#include "sim/memory.hh"
#include "sim/transaction.hh"
#include "stats/counter.hh"

namespace ddc {
namespace dir {

/**
 * Observability context shared by every home node of one fabric
 * (dir-category trace, directory histograms, request-latency
 * tracking, the lock log).  Each home holds a pointer that is null
 * when nothing observes the fabric — the disabled path stays one null
 * test per site.
 */
struct HomeObs
{
    /** Dir-category trace buffer (null when not traced). */
    obs::TraceBuffer *trace = nullptr;
    /** Histograms for home_service / acks_per_inval (or null). */
    obs::RunMetrics *metrics = nullptr;
    /** The run's lock log (null when lock events are off). */
    obs::LockLog *lockLog = nullptr;
    /** The machine clock, read to stamp events and samples. */
    const Clock *clock = nullptr;
    /**
     * Per-client cycle the pending request was first routed (kNever
     * = none); set by the fabric's routing pass, cleared by the home
     * at requestComplete — NACKs and kills keep the mark, because
     * the retry continues the same logical request.
     */
    std::vector<Cycle> *requestStart = nullptr;
};

/** One address-interleaved home: memory bank + directory + arbiter. */
class HomeNode : private TransactionPath<HomeNode>
{
    friend class TransactionPath<HomeNode>;

  public:
    /**
     * @param home_id This home's index on the fabric; offsets the
     *        arbiter seed so distinct homes draw distinct streams
     *        (home 0 uses @p arbiter_seed itself, matching the
     *        snooping global bus for the one-home equivalence mode).
     * @param stats Shared global counter set; every home interns the
     *        same bus.* / memory.* / dir.* names, so merged reports
     *        aggregate across homes exactly like a single bus.
     */
    HomeNode(int home_id, ArbiterKind arbiter_kind,
             std::uint64_t arbiter_seed, stats::CounterSet &stats);

    int id() const { return homeId; }

    /**
     * Attach the fabric's shared observability context (may be
     * null).  Serial-phase only; the home then emits message slices
     * on its "home @p homeId" track, samples the directory histograms
     * and logs lock attempts.
     */
    void
    setObserver(const HomeObs *context)
    {
        obsCtx = context;
        setLockLog(context ? context->lockLog : nullptr,
                   context ? context->clock : nullptr);
    }

    /**
     * Point-to-point messages this home has handled (requests,
     * forwards, invalidates, acks, updates) — the hot-home skew
     * numerator, kept always-on next to the interned counters.
     */
    std::uint64_t messages() const { return msgCount; }

    /** Post client @p client's request into this cycle's inbox. */
    void
    post(int client)
    {
        inbox.resize(static_cast<std::size_t>(client) + 1);
        inbox.set(client);
    }

    /** Drop the (per-cycle) inbox; the fabric refills it each tick. */
    void clearInbox() { inbox.clear(); }

    /**
     * Serve one cycle: arbitrate over the (non-empty) inbox and
     * execute one granted request end-to-end (exactly the snooping
     * bus's per-cycle transaction, addressed by directory state
     * instead of broadcast).  The fabric ticks only homes that
     * received a request and books every idle home's cycle itself.
     * @p visits accrues one count per point-to-point message, the
     * directory-mode analogue of Bus::snoopVisits.
     */
    void tick(const std::vector<BusClient *> &clients,
              std::uint64_t &visits);

    /** This home's slice of global memory. */
    Memory &memoryBank() { return memory; }
    const Memory &memoryBank() const { return memory; }

    Directory &directory() { return dir; }
    const Directory &directory() const { return dir; }

  private:
    // The transaction path's hooks (see TransactionPath).

    /** One word per transfer: the fabric has one-word blocks. */
    static constexpr std::size_t blockSize = 1;

    /**
     * The directory's owner of @p addr, forwarded the read (it
     * supplies @p value), or -1 when home memory is current; a Debug
     * build cross-checks it against every cluster's answer.
     */
    int findSupplier(int grant, Addr addr, Word &value);

    /**
     * Deliver @p txn to the recorded sharers and record what it made
     * of its issuer: a sharer (Share), the owner (Own), or a demoted
     * former owner (Publish).
     */
    void commit(const BusTransaction &txn, Commit kind);

    /** The home holds no occupancy; its request slice is in tick(). */
    void
    carry(std::string_view, Addr, int, bool, const char *)
    {}

    /** The owner forward was traced by findSupplier. */
    void killed(const BusRequest &) {}

    /** Trace the NACK on this home's track. */
    void nacked(int grant, const BusRequest &request);

    /**
     * Deliver a write-like transaction to every sharer except its
     * issuer, counting an invalidate and its ack per target; the
     * observers drop their entries, so the sharer set collapses to
     * the issuer (when it was a sharer) afterwards.
     */
    void deliverWriteLike(DirEntry &entry, const BusTransaction &txn);

    /**
     * Deliver a read/update transaction to every sharer except its
     * issuer (observers refresh their copies; membership is
     * unchanged).
     */
    void deliverRead(DirEntry &entry, const BusTransaction &txn);

    /** Record @p client as a sharer (counts bitmap overflow). */
    void addSharer(DirEntry &entry, int client);

    /** Emit an instant message event on this home's track. */
    void traceInstant(std::string_view name, Addr addr,
                      const char *detail = nullptr,
                      int target = -1);

    /**
     * Sample home_service for @p grant's completing request and
     * clear its routing mark (call right before requestComplete).
     */
    void noteComplete(int grant);

    int homeId;
    /** Shared fabric observability (null = directory obs off). */
    const HomeObs *obsCtx = nullptr;
    /** Messages handled by this home (see messages()). */
    std::uint64_t msgCount = 0;
    /**
     * tick()'s clients and visit count, set for the grant it serves;
     * the hooks that deliver messages read them only inside it.
     */
    const std::vector<BusClient *> *tickClients = nullptr;
    std::uint64_t *tickVisits = nullptr;
    Memory memory;
    Directory dir;
    std::unique_ptr<Arbiter> arbiter;
    /** Clients whose pending request routed here this cycle. */
    ClientMask inbox;
    /** Scratch target list for write-like deliveries. */
    std::vector<int> targets;

    // The dir.* message counters (the bus.* family is the path's).
    stats::CounterId statMsgRequest, statMsgFwd, statMsgInval,
        statMsgAck, statMsgUpdate, statSharerOverflow;
};

} // namespace dir
} // namespace ddc

#endif // DDC_DIR_HOME_NODE_HH
