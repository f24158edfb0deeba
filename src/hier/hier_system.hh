/**
 * @file
 * The two-level hierarchical machine: clusters of PEs on cluster
 * buses, cluster caches on a global bus (Section 8's hierarchical-
 * structures research direction, built on the recursive-RB design of
 * hier/cluster_cache.hh).
 */

#ifndef DDC_HIER_HIER_SYSTEM_HH
#define DDC_HIER_HIER_SYSTEM_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/factory.hh"
#include "dir/fabric.hh"
#include "hier/cluster_cache.hh"
#include "sim/bus.hh"
#include "sim/memory.hh"
#include "sim/multiprocessor.hh"
#include "stats/counter.hh"

namespace ddc {
namespace hier {

/** Global-interconnect flavour of the hierarchical machine. */
enum class GlobalKind
{
    /** One snooping global bus (broadcast; O(clusters) per snoop). */
    Snoop,
    /**
     * Address-interleaved directory home nodes (point-to-point;
     * O(sharers) per transaction — the 1k–4k-PE configuration).
     */
    Directory,
};

/** Printable name of a GlobalKind. */
std::string_view toString(GlobalKind kind);

/** Configuration of a hierarchical machine. */
struct HierConfig
{
    int num_clusters = 4;
    int pes_per_cluster = 4;
    /** Lines per L1 cache. */
    std::size_t cache_lines = 256;
    /**
     * L1 coherence scheme within clusters: Rb or Rwb.  The cluster
     * level always runs RB (ownership acquire / invalidate across
     * clusters); RWB's update broadcast then applies cluster-
     * internally.
     */
    ProtocolKind protocol = ProtocolKind::Rb;
    /** RWB's writes-to-local threshold k (RWB only). */
    int rwb_writes_to_local = 2;
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
    std::uint64_t arbiter_seed = 1;
    bool record_log = false;
    /**
     * Fast paths and observers, as SystemConfig::engine (starts from
     * engineDefaults(); a field set in code wins).  snoop_filter
     * applies to every bus; cluster caches register as always-snoop
     * on the global bus, so global broadcasts reach every cluster
     * regardless.
     */
    EngineKnobs engine = engineDefaults();
    /**
     * Global interconnect: the snooping bus (default, the paper's
     * logically single broadcast medium) or the directory fabric
     * (src/dir) for large cluster counts.  With home_nodes == 1 the
     * directory is cycle-for-cycle identical to the snooping bus
     * (see DESIGN.md, "The directory contract").
     */
    GlobalKind global = GlobalKind::Snoop;
    /** Home nodes of the directory fabric (GlobalKind::Directory). */
    int home_nodes = 1;
};

/** A complete hierarchical shared-bus multiprocessor (RB recursive). */
class HierSystem final : public Multiprocessor
{
  public:
    explicit HierSystem(const HierConfig &config);

    int numClusters() const { return config.num_clusters; }

    /** The cluster PE @p pe belongs to. */
    int clusterOf(PeId pe) const { return pe / config.pes_per_cluster; }

    /**
     * Host threads run() uses: always 1, the kernel ticks every
     * shard on the calling thread.  Kept only because the layer
     * benchmark (bench/perf) reports it.
     */
    int workerLanes() const { return 1; }

    /** Global memory's value of @p addr (routed to its home bank). */
    Word memoryValue(Addr addr) const;

    /** Overwrite global memory directly (fault-injection hook). */
    void pokeMemory(Addr addr, Word value);

    /** The machine's latest value of @p addr. */
    Word coherentValue(Addr addr) const;

    /** PE @p pe's L1 coherence state for @p addr. */
    LineState lineState(PeId pe, Addr addr) const;

    /** PE @p pe's L1 cached value of @p addr. */
    Word cacheValue(PeId pe, Addr addr) const;

    /** Cluster @p cluster's cache. */
    const ClusterCache &clusterCache(int cluster) const;

    /** Merged counters from all components. */
    stats::CounterSet counters() const override;

    /** Global-bus (and global-memory) counters only. */
    const stats::CounterSet &globalCounters() const { return globalStats; }

    /**
     * Cluster @p cluster's bus/cache counters (parked buses caught up
     * first, as by counters()).
     */
    const stats::CounterSet &clusterCounters(int cluster) const;

    /** Transactions executed on the global bus. */
    std::uint64_t globalBusTransactions() const;

    /** Transactions executed on all cluster buses. */
    std::uint64_t clusterBusTransactions() const;

    /**
     * Broadcast visits + supplier polls across every bus; in
     * directory mode the global-level term is the fabric's
     * point-to-point message count instead (the apples-to-apples
     * "clients touched per transaction" comparison).
     */
    std::uint64_t snoopVisits() const override;

    /**
     * The global-level term of snoopVisits() alone: snoop broadcasts
     * and supplier polls on the snooping global bus, point-to-point
     * messages on the directory fabric.  The per-transaction cost of
     * the global interconnect — O(clusters) snooping (cluster caches
     * are never sharer-indexed), O(sharers) directory.
     */
    std::uint64_t globalVisits() const;

    /**
     * Bus cycles the cluster buses booked in bulk while parked on
     * repeated NACKs (Bus::parkedCycles; 0 under --no-skip or when
     * observed, and the global bus never parks).  Counts settled
     * parks: run() settles every bus before it returns.
     */
    std::uint64_t parkedCycles() const;

    /** The directory fabric (null in GlobalKind::Snoop mode). */
    const dir::DirectoryFabric *directoryFabric() const
    {
        return fabric.get();
    }

    /** Mutable fabric access (bench phase-timing enablement). */
    dir::DirectoryFabric *directoryFabric() { return fabric.get(); }

  private:
    const Cache &l1(PeId pe) const;

    HierConfig config;
    stats::CounterSet globalStats;
    std::vector<std::unique_ptr<stats::CounterSet>> clusterStats;

    /** Global memory + snooping bus (GlobalKind::Snoop mode only). */
    std::unique_ptr<Memory> memory;
    std::unique_ptr<Bus> globalBus;
    /** Home-node fabric (GlobalKind::Directory mode only). */
    std::unique_ptr<dir::DirectoryFabric> fabric;
    std::vector<std::unique_ptr<ClusterCache>> clusterCaches;
    std::vector<std::unique_ptr<Bus>> clusterBuses;
    /** l1s[pe]. */
    std::vector<std::unique_ptr<Cache>> l1s;
};

/** Outcome of a hierarchical invariant check. */
struct HierInvariantReport
{
    bool ok = true;
    std::size_t violations = 0;
    std::string first_error;
};

/**
 * Check the Section 4 configuration lemma lifted one level, for each
 * address in @p addrs on a quiescent machine:
 *
 *  1. at most one cluster owns the word (entry Local);
 *  2. when a cluster owns it, no other cluster holds any entry and
 *     no L1 outside that cluster holds a live copy;
 *  3. an L1 holding the word dirty (Local) implies its cluster owns
 *     it, all other copies in the machine are dead, and the L1 holds
 *     the machine's latest value;
 *  4. with no owning cluster, every live copy (cluster entries and
 *     L1 lines) agrees with global memory.
 */
HierInvariantReport checkHierarchyInvariants(
    const HierSystem &system, const std::vector<Addr> &addrs);

} // namespace hier
} // namespace ddc

#endif // DDC_HIER_HIER_SYSTEM_HH
