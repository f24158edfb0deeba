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
#include "sim/agent.hh"
#include "sim/bus.hh"
#include "sim/clock.hh"
#include "sim/exec_log.hh"
#include "sim/isa.hh"
#include "sim/kernel.hh"
#include "sim/memory.hh"
#include "sim/processor.hh"
#include "sim/shard.hh"
#include "sim/system.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

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
     * Fast-forward run() across quiescent cycles; same contract as
     * SystemConfig::skip_quiescent (byte-identical either way, ANDed
     * with setQuiescentSkipEnabled()).
     */
    bool skip_quiescent = true;
    /**
     * Sharer-indexed snooping on the cluster buses; same contract as
     * SystemConfig::snoop_filter (byte-identical either way, ANDed
     * with setSnoopFilterEnabled()).  Cluster caches register as
     * always-snoop on the global bus, so global broadcasts reach
     * every cluster regardless.
     */
    bool snoop_filter = true;
    /**
     * Collect latency histograms; same contract as
     * SystemConfig::histograms (ORed with the process --histograms
     * flag, purely observational).
     */
    bool histograms = false;
    /**
     * Host worker lanes run() ticks the clusters on (each cluster —
     * local bus + its L1s + its PEs — is one kernel shard).  0 = the
     * process-wide default (the --shards flag, itself defaulting to
     * 1).  Purely a host-performance knob: in deterministic mode
     * (the default) results are byte-identical for every value.
     * Machines that must run on the calling thread (record_log, an
     * attached observability recorder) clamp to one lane.
     */
    int shards = 0;
    /**
     * Static shard-to-lane schedule with guaranteed byte-identical
     * output (see KernelConfig::deterministic).  False opts into
     * dynamic load-balanced claiming.
     */
    bool deterministic_shards = true;
    /**
     * Conservative-lookahead batching for sharded runs: lanes tick
     * multi-cycle windows between barriers when no cluster can reach
     * the global interconnect sooner (see KernelConfig::lookahead).
     * Byte-identical either way; ANDed with the process-wide
     * setLookaheadEnabled() switch (the --no-lookahead flag).
     */
    bool lookahead = true;
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
class HierSystem
{
  public:
    explicit HierSystem(const HierConfig &config);

    /** Total number of PEs. */
    int numPes() const { return config.num_clusters *
                                config.pes_per_cluster; }

    int numClusters() const { return config.num_clusters; }

    /** The cluster PE @p pe belongs to. */
    int clusterOf(PeId pe) const { return pe / config.pes_per_cluster; }

    /**
     * Replace every agent with trace replay of @p trace.  The agents
     * share the trace's streams (no copy); @p trace may be changed or
     * destroyed afterwards without affecting the loaded run.
     */
    void loadTrace(const Trace &trace);

    /** Install @p program on PE @p pe (creates a Processor agent). */
    void setProgram(PeId pe, Program program);

    /** The Processor on @p pe. */
    Processor &processor(PeId pe);

    /** Advance one cycle: global bus, cluster buses, then PEs. */
    void tick();

    /**
     * Run until every agent is done (or @p max_cycles elapse); a hit
     * budget logs a warning and is reported by timedOut().
     */
    Cycle run(Cycle max_cycles = System::kDefaultMaxCycles);

    /** Outcome of the most recent run() (Finished before any run). */
    RunStatus runStatus() const { return run_status; }

    /** True when the most recent run() hit its cycle budget. */
    bool timedOut() const { return run_status == RunStatus::TimedOut; }

    /** Cycles run() fast-forwarded instead of ticking. */
    Cycle skippedCycles() const { return kernel.skippedCycles(); }

    /** Parallel barriers run() executed (see Kernel::barrierEpochs). */
    std::uint64_t barrierEpochs() const { return kernel.barrierEpochs(); }

    /** Mean cycles per barrier window (0 on single-lane runs). */
    double
    meanLookaheadWindow() const
    {
        return kernel.meanLookaheadWindow();
    }

    /** Host worker lanes the next run() will use (>= 1). */
    int workerLanes() const { return kernel.workerLanes(); }

    /**
     * Wall ms the coordinator spent waiting at barriers (0 unless
     * phase profiling is on — the --profile flag).
     */
    double kernelBarrierWaitMs() const;

    /** Wall ms the coordinator spent ticking its own lane. */
    double kernelTickPhaseMs() const;

    bool allDone() const;
    Cycle now() const { return clock.now; }

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

    /** The serial execution log (empty unless record_log). */
    const ExecutionLog &log() const { return execLog; }

    /** Merged counters from all components. */
    stats::CounterSet counters() const;

    /** Global-bus (and global-memory) counters only. */
    const stats::CounterSet &globalCounters() const { return globalStats; }

    /** Cluster @p cluster's bus/cache counters. */
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
    std::uint64_t snoopVisits() const;

    /**
     * The global-level term of snoopVisits() alone: snoop broadcasts
     * and supplier polls on the snooping global bus, point-to-point
     * messages on the directory fabric.  The per-transaction cost of
     * the global interconnect — O(clusters) snooping (once the filter
     * reverts past 64 clusters), O(sharers) directory.
     */
    std::uint64_t globalVisits() const;

    /**
     * Times any bus of this machine degraded from sharer-indexed to
     * full snooping (see Bus::snoopFilterFallbacks).  The snooping
     * global bus degrades the moment a 65th cluster attaches; the
     * directory fabric never does.
     */
    std::uint64_t snoopFilterFallbacks() const;

    /** The directory fabric (null in GlobalKind::Snoop mode). */
    const dir::DirectoryFabric *directoryFabric() const
    {
        return fabric.get();
    }

    /** Mutable fabric access (bench phase-timing enablement). */
    dir::DirectoryFabric *directoryFabric() { return fabric.get(); }

    /** This machine's observability state (null when all off). */
    obs::Recorder *observability() const { return recorder.get(); }

  private:
    const Cache &l1(PeId pe) const;

    HierConfig config;
    Clock clock;
    /**
     * The shared run-loop driver.  The global bus is the serial
     * shard (ticked first each cycle by the coordinating thread —
     * all cross-cluster traffic commits there); each cluster is one
     * parallel shard, tickable concurrently because within a cycle a
     * cluster's bus, cluster cache, L1s, and PEs touch only cluster-
     * local state plus the global bus's atomic request arming.
     */
    Kernel kernel;
    RunStatus run_status = RunStatus::Finished;
    ExecutionLog execLog;
    std::unique_ptr<Protocol> protocol;

    stats::CounterSet globalStats;
    std::vector<std::unique_ptr<stats::CounterSet>> clusterStats;
    /**
     * Per-cluster L1 + PE counter sets (cacheStats was one shared set
     * before sharding; CounterSet::merge sums by name, so counters()
     * is byte-identical to the shared-set scheme while letting each
     * shard count without cross-thread contention).
     */
    std::vector<std::unique_ptr<stats::CounterSet>> l1Stats;

    /** Global memory + snooping bus (GlobalKind::Snoop mode only). */
    std::unique_ptr<Memory> memory;
    std::unique_ptr<Bus> globalBus;
    /** Home-node fabric (GlobalKind::Directory mode only). */
    std::unique_ptr<dir::DirectoryFabric> fabric;
    std::vector<std::unique_ptr<ClusterCache>> clusterCaches;
    std::vector<std::unique_ptr<Bus>> clusterBuses;
    /** l1s[pe]. */
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<Agent>> agents;
    /** The serial (global-bus) shard, owned by the kernel. */
    Shard *globalShard = nullptr;
    /** clusterShards[cluster], owned by the kernel. */
    std::vector<Shard *> clusterShards;

    /** Observability state (null when everything is off). */
    std::unique_ptr<obs::Recorder> recorder;
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
