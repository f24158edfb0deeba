#include "hier/hier_system.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/rb.hh"

namespace ddc {
namespace hier {

std::string_view
toString(GlobalKind kind)
{
    switch (kind) {
      case GlobalKind::Snoop:     return "snoop";
      case GlobalKind::Directory: return "directory";
    }
    ddc_panic("unknown GlobalKind ", static_cast<int>(kind));
}

HierSystem::HierSystem(const HierConfig &config)
    : Multiprocessor("HierSystem",
                     config.num_clusters * config.pes_per_cluster,
                     config.protocol, config.rwb_writes_to_local,
                     config.engine, config.record_log),
      config(config)
{
    ddc_assert(config.num_clusters >= 1, "need at least one cluster");
    ddc_assert(config.pes_per_cluster >= 1,
               "need at least one PE per cluster");
    ddc_assert(config.cache_lines >= 1, "need at least one cache line");
    ddc_assert(config.protocol == ProtocolKind::Rb ||
                   config.protocol == ProtocolKind::Rwb,
               "the hierarchical machine supports the RB and RWB schemes");

    // The global shard is created (so ticked) first: every
    // cross-cluster action commits before any cluster runs.
    Shard &global_shard = kernel.makeShard(0);
    if (config.global == GlobalKind::Directory) {
        // Home nodes replace the global bus + monolithic memory;
        // they run in the global shard because the snooping bus
        // commits supply/kill/deliver atomically within a cycle and
        // the clusters rely on observing them in home order.
        fabric = std::make_unique<dir::DirectoryFabric>(
            config.home_nodes, config.arbiter, config.arbiter_seed,
            globalStats);
        global_shard.addComponent(fabric.get());
    } else {
        ddc_assert(config.home_nodes == 1,
                   "home_nodes > 1 needs GlobalKind::Directory");
        memory = std::make_unique<Memory>(globalStats);
        // Never parked: a cluster cache's requestNacked rotates its
        // forward queue, so no NACK of it repeats unseen.
        globalBus = std::make_unique<Bus>(*memory, config.arbiter, clock,
                                          globalStats,
                                          config.arbiter_seed, 1, 0,
                                          config.engine.snoop_filter,
                                          false);
        global_shard.addComponent(globalBus.get());
    }

    ExecutionLog *log = config.record_log ? &execLog : nullptr;
    for (int c = 0; c < config.num_clusters; c++) {
        clusterStats.push_back(std::make_unique<stats::CounterSet>());
        clusterCaches.push_back(
            std::make_unique<ClusterCache>(c, *clusterStats.back()));
        if (fabric)
            clusterCaches.back()->connectGlobal(*fabric);
        else
            clusterCaches.back()->connectGlobal(*globalBus);
        Shard &shard = kernel.makeShard(
            static_cast<std::size_t>(config.pes_per_cluster));
        clusterBuses.push_back(std::make_unique<Bus>(
            *clusterCaches.back(), config.arbiter, clock,
            *clusterStats.back(),
            config.arbiter_seed + static_cast<std::uint64_t>(c) + 1,
            1, 0, config.engine.snoop_filter,
            config.engine.skip_quiescent));
        clusterCaches.back()->connectCluster(*clusterBuses.back());
        shard.addComponent(clusterBuses.back().get());

        for (int p = 0; p < config.pes_per_cluster; p++) {
            PeId pe = c * config.pes_per_cluster + p;
            l1s.push_back(std::make_unique<Cache>(
                pe, config.cache_lines, *proto, clock, cacheStats,
                log));
            l1s.back()->connectBus(*clusterBuses.back());
            l1s.back()->setWakeSlot(&shard, static_cast<std::size_t>(p));
            clusterCaches.back()->addChild(l1s.back().get());
            seat(pe, {l1s.back().get()}, shard,
                 static_cast<std::size_t>(p));
        }
    }

    // Bus track 0 is the global bus; cluster c's bus is track 1 + c.
    obs::CounterSampler *sampler = nullptr;
    if (recorder) {
        if (globalBus)
            globalBus->setObserver(recorder.get(), 0);
        // The directory fabric traces on its own "Homes" track
        // (category dir) instead of a bus track.
        if (fabric)
            fabric->setObserver(recorder.get(), &clock);
        for (int c = 0; c < config.num_clusters; c++)
            clusterBuses[static_cast<std::size_t>(c)]->setObserver(
                recorder.get(), 1 + c);
        for (auto &l1 : l1s)
            l1->setObserver(recorder.get());
        if (fabric)
            fabric->setProfile(recorder->profile());
        sampler = recorder->sampler();
    }
    if (sampler) {
        auto global_busy = globalStats.intern("bus.busy_cycles");
        sampler->addColumn("global.busy_cycles",
                           [this, global_busy](Cycle) {
                               return globalStats.get(global_busy);
                           });
        for (int c = 0; c < config.num_clusters; c++) {
            auto *cluster = clusterStats[static_cast<std::size_t>(c)]
                                .get();
            auto busy = cluster->intern("bus.busy_cycles");
            sampler->addColumn(
                "cluster" + std::to_string(c) + ".busy_cycles",
                [cluster, busy](Cycle) { return cluster->get(busy); });
        }
        if (fabric) {
            dir::DirectoryFabric *fab = fabric.get();
            // Sampling doubles as the dir_occupancy histogram feed:
            // every row's block count is one occupancy observation.
            obs::RunMetrics *dir_metrics = recorder->liveMetrics();
            sampler->addColumn(
                "dir.blocks", [fab, dir_metrics](Cycle) {
                    auto blocks = static_cast<std::uint64_t>(
                        fab->directoryBlocks());
                    if (dir_metrics)
                        dir_metrics->dir_occupancy.sample(blocks);
                    return blocks;
                });
            sampler->addColumn("dir.home_msgs.max", [fab](Cycle) {
                return fab->maxHomeMessages();
            });
            sampler->addColumn("dir.home_msgs.mean", [fab](Cycle) {
                return static_cast<std::uint64_t>(
                    fab->meanHomeMessages());
            });
        }
    }
}

const Cache &
HierSystem::l1(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    return *l1s[static_cast<std::size_t>(pe)];
}

Word
HierSystem::memoryValue(Addr addr) const
{
    return fabric ? fabric->memoryValue(addr) : memory->peek(addr);
}

void
HierSystem::pokeMemory(Addr addr, Word value)
{
    if (fabric)
        fabric->pokeMemory(addr, value);
    else
        memory->poke(addr, value);
}

Word
HierSystem::coherentValue(Addr addr) const
{
    // A dirty L1 holds the latest value; else an owning cluster cache;
    // else global memory.
    for (PeId pe = 0; pe < numPes(); pe++) {
        if (proto->needsWriteback(l1(pe).lineState(addr)))
            return l1(pe).lineValue(addr);
    }
    for (const auto &cluster : clusterCaches) {
        if (cluster->owns(addr))
            return cluster->value(addr);
    }
    return memoryValue(addr);
}

LineState
HierSystem::lineState(PeId pe, Addr addr) const
{
    return l1(pe).lineState(addr);
}

Word
HierSystem::cacheValue(PeId pe, Addr addr) const
{
    return l1(pe).lineValue(addr);
}

const ClusterCache &
HierSystem::clusterCache(int cluster) const
{
    ddc_assert(cluster >= 0 && cluster < config.num_clusters,
               "cluster index out of range");
    return *clusterCaches[static_cast<std::size_t>(cluster)];
}

stats::CounterSet
HierSystem::counters() const
{
    flushStalls();
    stats::CounterSet merged;
    merged.merge(globalStats);
    merged.merge(cacheStats);
    for (const auto &cluster : clusterStats)
        merged.merge(*cluster);
    return merged;
}

const stats::CounterSet &
HierSystem::clusterCounters(int cluster) const
{
    ddc_assert(cluster >= 0 && cluster < config.num_clusters,
               "cluster index out of range");
    flushStalls();
    return *clusterStats[static_cast<std::size_t>(cluster)];
}

std::uint64_t
HierSystem::globalBusTransactions() const
{
    return globalStats.get("bus.busy_cycles");
}

std::uint64_t
HierSystem::clusterBusTransactions() const
{
    flushStalls();
    std::uint64_t total = 0;
    for (const auto &cluster : clusterStats)
        total += cluster->get("bus.busy_cycles");
    return total;
}

std::uint64_t
HierSystem::snoopVisits() const
{
    std::uint64_t total = globalVisits();
    for (const auto &bus : clusterBuses)
        total += bus->snoopVisits();
    return total;
}

std::uint64_t
HierSystem::globalVisits() const
{
    return fabric ? fabric->messageVisits() : globalBus->snoopVisits();
}

std::uint64_t
HierSystem::parkedCycles() const
{
    std::uint64_t total = 0;
    for (const auto &bus : clusterBuses)
        total += bus->parkedCycles();
    return total;
}

std::uint64_t
HierSystem::snoopFilterFallbacks() const
{
    std::uint64_t total = globalBus ? globalBus->snoopFilterFallbacks()
                                    : 0;
    for (const auto &bus : clusterBuses)
        total += bus->snoopFilterFallbacks();
    return total;
}

namespace {

void
flag(HierInvariantReport &report, const std::string &message)
{
    if (report.ok) {
        report.ok = false;
        report.first_error = message;
    }
    report.violations++;
}

} // namespace

HierInvariantReport
checkHierarchyInvariants(const HierSystem &system,
                         const std::vector<Addr> &addrs)
{
    HierInvariantReport report;
    RbProtocol rb; // needsWriteback is shared by RB and RWB (Local only)

    for (Addr addr : addrs) {
        std::string where = "addr " + std::to_string(addr) + ": ";

        int owner_cluster = -1;
        for (int c = 0; c < system.numClusters(); c++) {
            if (!system.clusterCache(c).owns(addr))
                continue;
            if (owner_cluster >= 0)
                flag(report, where + "two owning clusters");
            owner_cluster = c;
        }

        // L1-dirty implies cluster ownership and machine-wide latest.
        for (PeId pe = 0; pe < system.numPes(); pe++) {
            LineState state = system.lineState(pe, addr);
            if (!rb.needsWriteback(state))
                continue;
            if (system.clusterOf(pe) != owner_cluster) {
                flag(report, where + "dirty L1 outside the owning "
                                     "cluster");
            }
            if (system.cacheValue(pe, addr) !=
                system.coherentValue(addr)) {
                flag(report, where + "dirty L1 is not the latest value");
            }
        }

        if (owner_cluster >= 0) {
            // Exclusivity: nothing lives outside the owning cluster.
            for (int c = 0; c < system.numClusters(); c++) {
                if (c != owner_cluster &&
                    system.clusterCache(c).holds(addr)) {
                    flag(report, where + "entry outside the owning "
                                         "cluster");
                }
            }
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                if (system.clusterOf(pe) != owner_cluster &&
                    system.lineState(pe, addr).present()) {
                    flag(report, where + "live L1 copy outside the "
                                         "owning cluster");
                }
            }
        } else {
            // Shared configuration: every live copy matches memory.
            Word memory_value = system.memoryValue(addr);
            for (int c = 0; c < system.numClusters(); c++) {
                if (system.clusterCache(c).holds(addr) &&
                    system.clusterCache(c).value(addr) != memory_value) {
                    flag(report, where + "cluster entry disagrees with "
                                         "memory");
                }
            }
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                if (system.lineState(pe, addr).present() &&
                    system.cacheValue(pe, addr) != memory_value) {
                    flag(report, where + "live L1 copy disagrees with "
                                         "memory");
                }
            }
        }
    }
    return report;
}

} // namespace hier
} // namespace ddc
