/**
 * @file
 * One home node of the directory fabric: an address-interleaved slice
 * of global memory plus the directory for its blocks.
 *
 * A home node serves at most one cluster request per cycle, with the
 * same arbitration policy, the same memory/lock semantics, and the
 * same per-transaction call sequence as the snooping global Bus —
 * the only difference is *addressing*: instead of broadcasting to
 * every cluster and polling every potential supplier, the home sends
 * point-to-point messages to exactly the clusters its directory
 * records (owner forward on the kill/supply path; invalidate+ack or
 * update deliveries on the broadcast path).  Delivering only to
 * recorded sharers is exact, not approximate: a cluster without an
 * entry treats the snooped transaction as a no-op, and the directory
 * tracks entry-holding clusters exactly (see dir/directory.hh).
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
#include "sim/bus.hh"
#include "sim/clock.hh"
#include "sim/memory.hh"
#include "stats/counter.hh"

namespace ddc {
namespace dir {

/**
 * Observability context shared by every home node of one fabric
 * (dir-category trace, directory histograms, request-latency
 * tracking).  Each home holds a pointer that is null when directory
 * observability is off — the disabled path stays one null test per
 * site.
 */
struct HomeObs
{
    /** Dir-category trace buffer (null when not traced). */
    obs::TraceBuffer *trace = nullptr;
    /** Histograms for home_service / acks_per_inval (or null). */
    obs::RunMetrics *metrics = nullptr;
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
class HomeNode
{
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
     * on its "home @p homeId" track and samples the directory
     * histograms.
     */
    void setObserver(const HomeObs *context) { obsCtx = context; }

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
     * Serve one cycle: idle when the inbox is empty, else arbitrate
     * and execute one granted request end-to-end (exactly the
     * snooping bus's per-cycle transaction, addressed by directory
     * state instead of broadcast).  @p visits accrues one count per
     * point-to-point message, the directory-mode analogue of
     * Bus::snoopVisits.
     */
    void tick(const std::vector<BusClient *> &clients,
              std::uint64_t &visits);

    /** Account @p count grant-free cycles at once (skip support). */
    void countIdle(Cycle count);

    /** This home's slice of global memory. */
    Memory &memoryBank() { return memory; }
    const Memory &memoryBank() const { return memory; }

    Directory &directory() { return dir; }
    const Directory &directory() const { return dir; }

  private:
    /** Number of BusOp enumerators (op-indexed handle tables). */
    static constexpr std::size_t kNumBusOps = 6;

    void executeReadLike(int grant, const BusRequest &request,
                         const std::vector<BusClient *> &clients,
                         std::uint64_t &visits);
    void executeWriteLike(int grant, const BusRequest &request,
                          const std::vector<BusClient *> &clients,
                          std::uint64_t &visits);

    /**
     * Deliver a write-like transaction to every sharer except
     * @p keep, counting an invalidate and its ack per target; the
     * observers drop their entries, so the sharer set collapses to
     * @p keep (when it was a sharer) afterwards.
     */
    void deliverWriteLike(DirEntry &entry, const BusTransaction &txn,
                          int keep,
                          const std::vector<BusClient *> &clients,
                          std::uint64_t &visits);

    /**
     * Deliver a read/update transaction to every sharer except
     * @p skip (observers refresh their copies; membership is
     * unchanged).
     */
    void deliverRead(DirEntry *entry, const BusTransaction &txn,
                     int skip, const std::vector<BusClient *> &clients,
                     std::uint64_t &visits);

    /** Record @p client as a sharer (counts bitmap overflow). */
    void addSharer(DirEntry &entry, int client);

    void nack(int grant, const BusRequest &request,
              const std::vector<BusClient *> &clients);

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
    stats::CounterSet &stats;
    Memory memory;
    Directory dir;
    std::unique_ptr<Arbiter> arbiter;
    /** Clients whose pending request routed here this cycle. */
    ClientMask inbox;
    /** Scratch target list for write-like deliveries. */
    std::vector<int> targets;

    // The full bus.* counter family (interned so reports match the
    // snooping bus name-for-name) plus the dir.* message counters.
    stats::CounterId statBusy, statTransfer, statIdle, statKill,
        statSupplyWrite, statRmwSuccess, statRmwFail, statNack;
    stats::CounterId statOp[kNumBusOps];
    stats::CounterId statNackOp[kNumBusOps];
    stats::CounterId statMsgRequest, statMsgFwd, statMsgInval,
        statMsgAck, statMsgUpdate, statSharerOverflow;
};

} // namespace dir
} // namespace ddc

#endif // DDC_DIR_HOME_NODE_HH
