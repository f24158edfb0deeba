#include "dir/fabric.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"

namespace ddc {
namespace dir {

DirectoryFabric::DirectoryFabric(int home_nodes,
                                 ArbiterKind arbiter_kind,
                                 std::uint64_t arbiter_seed,
                                 stats::CounterSet &stats)
    : homesPow2(home_nodes >= 1 &&
                (home_nodes & (home_nodes - 1)) == 0),
      homeMask(static_cast<Addr>(home_nodes) - 1), stats(stats)
{
    ddc_assert(home_nodes >= 1, "need at least one home node");
    homes.reserve(static_cast<std::size_t>(home_nodes));
    for (int h = 0; h < home_nodes; h++) {
        homes.push_back(std::make_unique<HomeNode>(h, arbiter_kind,
                                                   arbiter_seed, stats));
    }
    touchedHomes.resize(homes.size());
    statIdle = stats.intern("bus.idle_cycles");
}

int
DirectoryFabric::attach(BusClient *client)
{
    ddc_assert(client != nullptr, "null fabric client");
    clients.push_back(client);
    int index = static_cast<int>(clients.size()) - 1;
    armed.resize(clients.size());
    armed.set(index);
    armedCount++;
    return index;
}

void
DirectoryFabric::setRequestArmed(int client, bool is_armed)
{
    ddc_assert(static_cast<std::size_t>(client) < clients.size(),
               "bad fabric client index ", client);
    if (armed.test(client) == is_armed)
        return;
    if (is_armed) {
        armed.set(client);
        armedCount++;
    } else {
        armed.reset(client);
        armedCount--;
    }
}

void
DirectoryFabric::setObserver(obs::Recorder *recorder,
                             const Clock *machine_clock)
{
    if (recorder == nullptr)
        return;
    homeObs.trace = recorder->trace(obs::Category::Dir);
    homeObs.metrics = recorder->liveMetrics();
    homeObs.lockLog = recorder->lockLog();
    homeObs.clock = machine_clock;
    if (homeObs.metrics) {
        requestStart.assign(clients.size(), kNever);
        homeObs.requestStart = &requestStart;
    }
    if (homeObs.trace == nullptr && homeObs.metrics == nullptr &&
        homeObs.lockLog == nullptr)
        return;
    for (auto &home : homes)
        home->setObserver(&homeObs);
}

void
DirectoryFabric::tick()
{
    using clock = std::chrono::steady_clock;
    clock::time_point routeStart;
    if (profile)
        routeStart = clock::now();

    // ---- Route phase: O(armed), not O(clients). -------------------
    // Walk the armed set in ascending order and re-read it after each
    // poll, exactly the snooping bus's requester collection.  Routing
    // happens on the side-effect-free pendingAddr (hasRequest may
    // lazily resolve forwards, so it runs first, exactly once, like
    // on the bus).
    std::size_t posted = 0;
    for (int c = armed.first(); c >= 0; c = armed.nextAfter(c)) {
        auto index = static_cast<std::size_t>(c);
        if (!clients[index]->hasRequest())
            continue;
        int h = homeOf(clients[index]->pendingAddr());
        touchedHomes.set(h);
        homes[static_cast<std::size_t>(h)]->post(c);
        posted++;
        // Stamp the first routing of this pending request; the
        // serving home clears the mark at completion
        // (home_service latency), so reposted retries keep it.
        if (homeObs.requestStart != nullptr &&
            requestStart[index] == kNever)
            requestStart[index] = homeObs.clock->now;
    }
    // A poll changes only the polled client's arming, so every client
    // still armed was polled once and must have posted.
    ddc_assert(posted == armedCount, armedCount - posted,
               " armed fabric client(s) had no request");

    clock::time_point serveStart;
    if (profile) {
        serveStart = clock::now();
        profile->fabric_route_ms +=
            std::chrono::duration<double, std::milli>(serveStart -
                                                      routeStart)
                .count();
    }

    // ---- Serve phase: tick only the touched homes, in ascending id
    // order (clusters must observe cross-home deliveries in the same
    // order as the dense scan); batch the rest's idle accounting
    // through the shared counter handle.
    std::size_t served = 0;
    for (int h = touchedHomes.first(); h >= 0;
         h = touchedHomes.nextAfter(h)) {
        homes[static_cast<std::size_t>(h)]->tick(clients, visitCount);
        homes[static_cast<std::size_t>(h)]->clearInbox();
        served++;
    }
    touchedHomes.clear();
    if (served < homes.size())
        stats.add(statIdle, homes.size() - served);

    if (profile) {
        profile->fabric_serve_ms +=
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      serveStart)
                .count();
    }
}

void
DirectoryFabric::skipCycles(Cycle count)
{
    // Skips cross only intervals where our nextEventCycle reported
    // kNever: no armed client at all.
    ddc_assert(armedClients() == 0,
               "skipped across a home-node grant opportunity");
    if (count > 0)
        stats.add(statIdle, count * homes.size());
}

Word
DirectoryFabric::memoryValue(Addr addr) const
{
    return homes[static_cast<std::size_t>(homeOf(addr))]
        ->memoryBank()
        .peek(addr);
}

void
DirectoryFabric::pokeMemory(Addr addr, Word value)
{
    homes[static_cast<std::size_t>(homeOf(addr))]->memoryBank().poke(
        addr, value);
}

std::size_t
DirectoryFabric::directoryBlocks() const
{
    std::size_t total = 0;
    for (const auto &home : homes)
        total += home->directory().blocks();
    return total;
}

std::uint64_t
DirectoryFabric::maxHomeMessages() const
{
    std::uint64_t peak = 0;
    for (const auto &home : homes)
        peak = std::max(peak, home->messages());
    return peak;
}

double
DirectoryFabric::meanHomeMessages() const
{
    std::uint64_t total = 0;
    for (const auto &home : homes)
        total += home->messages();
    return static_cast<double>(total) /
           static_cast<double>(homes.size());
}

double
DirectoryFabric::maxLoadFactor() const
{
    double peak = 0.0;
    for (const auto &home : homes) {
        peak = std::max(peak, home->directory().peakLoadFactor());
        peak = std::max(peak, home->memoryBank().peakLoadFactor());
    }
    return peak;
}

} // namespace dir
} // namespace ddc
