/**
 * @file
 * The cluster cache of the hierarchical machine (Section 8's first
 * research question: "how to extend our scheme to hierarchical
 * structures more amiable to large scale parallel processing").
 *
 * A cluster groups several PEs (with their private L1 caches) on a
 * cluster bus; one ClusterCache per cluster connects that bus to the
 * global bus.  The RB scheme is applied recursively:
 *
 *  - Within a cluster, the L1s run ordinary RB on the cluster bus;
 *    the ClusterCache is the bus's memory side.
 *  - Across clusters, the ClusterCaches run RB on the global bus: a
 *    cluster-cache entry is Readable (value matches global memory) or
 *    Local (this cluster owns the word; global memory may be stale).
 *
 * Key mechanics:
 *  - Reads that hit the cluster cache never reach the global bus
 *    (the hierarchy filters read traffic, which dominates by the
 *    paper's assumption 1).
 *  - A cluster-bus write is accepted only while the cluster owns the
 *    word (entry Local); otherwise the ClusterCache NACKs it,
 *    acquires global ownership with a global bus write (which
 *    invalidates all other clusters), and accepts the retry.  Once
 *    owned, all further writes in the cluster stay cluster-internal.
 *  - RMW-class operations (TS, read-lock/write-unlock) always
 *    serialize on the global bus; an owned (possibly dirty) word is
 *    flushed global-ward first.
 *  - Snoop broadcasts propagate down *within the cycle*: the global
 *    and cluster buses form one logically single broadcast medium
 *    ("although physically this may be a set of buses", Section 1),
 *    so every globally visible write invalidates every stale L1 copy
 *    in the same cycle that it commits.
 *  - A global read of a word whose latest value sits in some L1 is
 *    killed and supplied through the ClusterCache, which sources the
 *    data from the dirty child.
 *
 * Simplifications (documented in DESIGN.md): RB at both levels,
 * one-word blocks, and an unbounded (fully associative) cluster cache
 * so inclusion of the L1s is structural.
 */

#ifndef DDC_HIER_CLUSTER_CACHE_HH
#define DDC_HIER_CLUSTER_CACHE_HH

#include <deque>
#include <vector>

#include "base/flat_map.hh"
#include "base/types.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "stats/counter.hh"

namespace ddc {
namespace hier {

/** One cluster's second-level cache: global BusClient + cluster
 *  MemorySide. */
class ClusterCache : public BusClient, public MemorySide
{
  public:
    /**
     * @param cluster_id This cluster's index.
     * @param stats Counter set receiving hier.* statistics.
     */
    ClusterCache(int cluster_id, stats::CounterSet &stats);

    /**
     * Attach to the global interconnect (exactly once) — the snooping
     * global Bus or the directory fabric; the recursive-RB mechanics
     * are identical either way.
     */
    void connectGlobal(GlobalFabric &fabric);

    /**
     * Attach the cluster bus this cache is the memory side of
     * (exactly once, before first use).  Downward broadcasts and
     * supplier pulls go through that bus's sharer index, so they
     * reach only the L1s they can change.
     */
    void connectCluster(Bus &bus);

    /** Register a child L1 (all children before first use). */
    void addChild(Cache *child);

    /** Does this cluster currently own @p addr (entry Local)? */
    bool owns(Addr addr) const;

    /** Does this cluster hold any entry for @p addr? */
    bool holds(Addr addr) const;

    /** The cluster cache's value of @p addr (0 when absent). */
    Word value(Addr addr) const;

    // ---- Global-bus client side ----------------------------------
    bool hasRequest() override;
    BusRequest currentRequest() override;
    Addr pendingAddr() const override;
    void requestComplete(const BusResult &result) override;
    bool wouldSupply(Addr addr, Word &value) override;
    void observe(const BusTransaction &txn) override;
    void supplied(Addr addr) override;
    void requestNacked() override;
    PeId peId() const override;

    // ---- Cluster-bus memory side ----------------------------------
    /**
     * As a memory side the cluster cache never self-schedules:
     * whenever it has queued forwards it is armed on the *global* bus
     * (updateArmed()), and a cluster-bus transaction it NACKed leaves
     * the issuing L1 armed on the cluster bus — so one of the two
     * buses always reports the pending work and kNever here never
     * hides an event from the skip engine.
     */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        (void)now;
        return kNever;
    }

    bool tryRead(Addr addr, PeId pe, Word &data) override;
    bool tryReadBlock(Addr base, std::size_t words, PeId pe,
                      std::vector<Word> &block) override;
    bool tryWrite(Addr addr, PeId pe, Word data) override;
    bool tryInvalidate(Addr addr, PeId pe, Word data) override;
    bool tryWriteBlock(Addr base, PeId pe,
                       const std::vector<Word> &block) override;
    bool tryRmw(Addr addr, PeId pe, Word set_value, Word &old,
                bool &success) override;
    bool tryReadLock(Addr addr, PeId pe, Word &data) override;
    bool tryWriteUnlock(Addr addr, PeId pe, Word data) override;
    void acceptSupply(Addr addr, Word data) override;
    void acceptSupplyBlock(Addr base,
                           const std::vector<Word> &block) override;

  private:
    /** Global-level coherence entry for one word. */
    struct Entry
    {
        /** Readable (matches global memory) or Local (cluster owns). */
        LineTag tag = LineTag::Readable;
        Word value = 0;
    };

    /** A cluster-bus request being serialized on the global bus. */
    struct Forward
    {
        BusOp op = BusOp::Read;
        Addr addr = 0;
        Word data = 0;
        PeId origin = kNoPe;
        /** Child to complete directly at the global commit instant. */
        Cache *origin_child = nullptr;
        /** The child's accessId at enqueue (abandonment detection). */
        std::uint64_t child_access = 0;
    };

    /** Queue a forward unless @p pe already has one in flight. */
    void enqueueForward(BusOp op, Addr addr, Word data, PeId pe);

    /** Drop @p pe's queued forward (its op is being served locally). */
    void cancelForward(PeId pe);

    /**
     * Serve queued forwards that became cluster-serviceable.  Only
     * requestComplete() creates or promotes entries, and a forward is
     * never serviceable when queued, so a scan runs only while
     * mayResolve is set.
     */
    void resolvePendingLocally();

    /** Complete a forward's originating L1 (drops abandoned reads). */
    void deliverToChild(const Forward &forward, const BusResult &result);

    /**
     * Count and deliver a (downward) broadcast to the child L1s it
     * can change (Bus::snoopDown).
     */
    void forwardDown(const BusTransaction &txn);

    /**
     * If a child L1 holds @p addr dirty (other than cluster-bus client
     * @p skip), pull its value into @p entry and demote it.
     */
    void pullFromChild(Addr addr, Entry &entry, int skip = -1);

    /** Re-arm/disarm on the global bus after a forwards mutation. */
    void updateArmed();

    /** Number of BusOp enumerators (op-indexed handle table). */
    static constexpr std::size_t kNumBusOps = 6;

    int clusterId;
    stats::CounterSet &stats;
    FlatMap<PeId, Cache *> childByPe;
    /** The cluster bus whose memory side this cache is. */
    Bus *clusterBus = nullptr;
    GlobalFabric *global = nullptr;
    /** This cluster's client index on the global fabric. */
    int clientIndex = -1;

    // Handles interned once at construction (per-event adds).
    stats::CounterId statForwardCancelled, statDroppedReadCompletion,
        statPull, statForwardResolvedLocally, statFlush,
        statGlobalInvalidation, statSupply, statForwardRotate,
        statDownwardBroadcast, statAbsorbedRead, statAbsorbedWrite;
    /** hier.forward.<op> counters, indexed by BusOp. */
    stats::CounterId statForwardOp[kNumBusOps];

    /**
     * Per-word coherence entries, on the same FlatMap
     * (base/flat_map.hh) as the directory and the memory banks —
     * looked up on every cluster-bus transaction and every global
     * observation, the hierarchical machine's per-access hot path.
     */
    FlatMap<Addr, Entry> entries;
    std::deque<Forward> forwards;
    /** True while the front forward is its pre-flush global write. */
    bool flushing = false;
    /**
     * Set by requestComplete(), cleared by the resolvePendingLocally()
     * scan: no queued forward can have become serviceable since.
     */
    bool mayResolve = false;
    /** Child chosen by the last wouldSupply, pending supplied(). */
    BusClient *pendingSupplyChild = nullptr;
};

} // namespace hier
} // namespace ddc

#endif // DDC_HIER_CLUSTER_CACHE_HH
