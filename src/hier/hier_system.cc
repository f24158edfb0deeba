#include "hier/hier_system.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/rb.hh"
#include "sim/trace_agent.hh"

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
    : config(config), kernel(clock, KernelConfig{config.skip_quiescent})
{
    ddc_assert(config.num_clusters >= 1, "need at least one cluster");
    ddc_assert(config.pes_per_cluster >= 1,
               "need at least one PE per cluster");
    ddc_assert(config.cache_lines >= 1, "need at least one cache line");
    ddc_assert(config.protocol == ProtocolKind::Rb ||
                   config.protocol == ProtocolKind::Rwb,
               "the hierarchical machine supports the RB and RWB schemes");
    protocol = makeProtocol(config.protocol, config.rwb_writes_to_local);

    globalShard = &kernel.makeSerialShard(0);
    if (config.global == GlobalKind::Directory) {
        // Home nodes replace the global bus + monolithic memory;
        // they run in the serial shard because the snooping bus
        // commits supply/kill/deliver atomically within a cycle and
        // the clusters rely on observing them in home order.
        fabric = std::make_unique<dir::DirectoryFabric>(
            config.home_nodes, config.arbiter, config.arbiter_seed,
            globalStats);
        globalShard->addComponent(fabric.get());
    } else {
        ddc_assert(config.home_nodes == 1,
                   "home_nodes > 1 needs GlobalKind::Directory");
        memory = std::make_unique<Memory>(globalStats);
        globalBus = std::make_unique<Bus>(*memory, config.arbiter, clock,
                                          globalStats,
                                          config.arbiter_seed, 1, 0,
                                          config.snoop_filter);
        globalShard->addComponent(globalBus.get());
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
        clusterShards.push_back(&shard);
        clusterBuses.push_back(std::make_unique<Bus>(
            *clusterCaches.back(), config.arbiter, clock,
            *clusterStats.back(),
            config.arbiter_seed + static_cast<std::uint64_t>(c) + 1,
            1, 0, config.snoop_filter));
        clusterCaches.back()->connectCluster(*clusterBuses.back());
        shard.addComponent(clusterBuses.back().get());

        for (int p = 0; p < config.pes_per_cluster; p++) {
            PeId pe = c * config.pes_per_cluster + p;
            l1s.push_back(std::make_unique<Cache>(
                pe, config.cache_lines, *protocol, clock, cacheStats,
                log));
            l1s.back()->connectBus(*clusterBuses.back());
            l1s.back()->setWakeFlag(
                shard.wakeFlag(static_cast<std::size_t>(p)));
            clusterCaches.back()->addChild(l1s.back().get());
        }
    }
    agents.resize(static_cast<std::size_t>(numPes()));

    // Bus track 0 is the global bus; cluster c's bus is track 1 + c.
    recorder = obs::makeRecorder(config.histograms, 0);
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
        kernel.setQuiesceSink(recorder->trace(obs::Category::Quiesce));
        if (fabric)
            fabric->setProfile(recorder->profile());
        sampler = recorder->sampler();
        kernel.setSampler(sampler);
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
            obs::RunMetrics *dir_metrics =
                config.histograms ? recorder->liveMetrics() : nullptr;
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

void
HierSystem::loadTrace(const Trace &trace)
{
    ddc_assert(trace.numPes() <= numPes(),
               "trace has more PE streams than the machine has PEs");
    for (PeId pe = 0; pe < numPes(); pe++) {
        SharedStream stream =
            pe < trace.numPes() ? trace.share(pe) : nullptr;
        int cluster = clusterOf(pe);
        agents[static_cast<std::size_t>(pe)] = std::make_unique<TraceAgent>(
            CacheSet({l1s[static_cast<std::size_t>(pe)].get()}),
            std::move(stream), cacheStats);
        clusterShards[static_cast<std::size_t>(cluster)]->setAgent(
            static_cast<std::size_t>(pe % config.pes_per_cluster),
            agents[static_cast<std::size_t>(pe)].get());
    }
    for (Shard *shard : clusterShards)
        shard->rebuild();
}

void
HierSystem::setProgram(PeId pe, Program program)
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    int cluster = clusterOf(pe);
    agents[static_cast<std::size_t>(pe)] = std::make_unique<Processor>(
        pe, CacheSet({l1s[static_cast<std::size_t>(pe)].get()}),
        std::move(program), cacheStats);
    Shard *shard = clusterShards[static_cast<std::size_t>(cluster)];
    shard->setAgent(static_cast<std::size_t>(pe % config.pes_per_cluster),
                    agents[static_cast<std::size_t>(pe)].get());
    shard->rebuild();
}

Processor &
HierSystem::processor(PeId pe)
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    auto *processor =
        dynamic_cast<Processor *>(agents[static_cast<std::size_t>(pe)]
                                      .get());
    if (processor == nullptr)
        ddc_fatal("PE ", pe, " is not running a program");
    return *processor;
}

void
HierSystem::tick()
{
    // Global commits first: a cluster's forwarded completion lands
    // before the cluster bus (and the PEs) run this cycle.  The
    // kernel preserves that order — serial (global) shard, then the
    // cluster shards.
    kernel.tickOnce();
}

Cycle
HierSystem::run(Cycle max_cycles)
{
    // Next-event time advance and tick ordering live in the kernel;
    // see Kernel::run.  The hierarchy's buses run at the
    // unified (zero extra latency) cycle, so skips engage only when
    // every level is simultaneously blocked — but the engine is wired
    // identically so the on/off equivalence guarantee covers this
    // machine too.
    Cycle start = clock.now;
    run_status = kernel.run(max_cycles);
    if (run_status == RunStatus::TimedOut) {
        ddc_warn("HierSystem::run hit its cycle budget (", max_cycles,
                 " cycles) with agents still busy; reporting timed_out");
    }
    return clock.now - start;
}

bool
HierSystem::allDone() const
{
    return kernel.allDone();
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
        if (protocol->needsWriteback(l1(pe).lineState(addr)))
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
    kernel.flushStalls();
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
