#include "sim/system.hh"

#include <array>
#include <string>

#include "base/logging.hh"

namespace ddc {

System::System(const SystemConfig &config)
    : Multiprocessor("System", config.num_pes, config.protocol,
                     config.rwb_writes_to_local, config.engine,
                     config.record_log),
      config(config)
{
    ddc_assert(config.num_pes >= 1, "need at least one PE");
    ddc_assert(config.num_buses >= 1, "need at least one bus");
    ddc_assert(config.cache_lines >= 1, "need at least one cache line");
    ddc_assert(config.block_words >= 1, "need at least one word per block");

    // The flat machine is one shard: every PE's banks span every bus.
    Shard &shard = kernel.makeShard(static_cast<std::size_t>(config.num_pes));

    for (int b = 0; b < config.num_buses; b++) {
        busStats.push_back(std::make_unique<stats::CounterSet>());
        memories.push_back(std::make_unique<Memory>(*busStats.back()));
        buses.push_back(std::make_unique<Bus>(
            *memories.back(), config.arbiter, clock,
            *busStats.back(),
            config.arbiter_seed + static_cast<std::uint64_t>(b),
            config.block_words, config.memory_latency,
            config.engine.snoop_filter, config.engine.skip_quiescent));
        shard.addComponent(buses.back().get());
    }

    ExecutionLog *log = config.record_log ? &execLog : nullptr;
    for (PeId pe = 0; pe < config.num_pes; pe++) {
        std::vector<Cache *> banks;
        for (int b = 0; b < config.num_buses; b++) {
            caches.push_back(std::make_unique<Cache>(
                pe, config.cache_lines, *proto, clock,
                cacheStats, log, config.block_words, config.ways));
            caches.back()->connectBus(*buses[static_cast<std::size_t>(b)]);
            caches.back()->setWakeSlot(&shard,
                                       static_cast<std::size_t>(pe));
            banks.push_back(caches.back().get());
        }
        seat(pe, std::move(banks), shard, static_cast<std::size_t>(pe));
    }

    obs::CounterSampler *sampler = nullptr;
    if (recorder) {
        for (int b = 0; b < config.num_buses; b++)
            buses[static_cast<std::size_t>(b)]->setObserver(
                recorder.get(), b);
        for (auto &cache : caches)
            cache->setObserver(recorder.get());
        sampler = recorder->sampler();
    }
    if (sampler) {
        for (int b = 0; b < config.num_buses; b++) {
            auto *bus_stats = busStats[static_cast<std::size_t>(b)].get();
            auto busy = bus_stats->intern("bus.busy_cycles");
            sampler->addColumn(
                "bus" + std::to_string(b) + ".busy_cycles",
                [bus_stats, busy](Cycle) {
                    return bus_stats->get(busy);
                });
        }
        auto refs = cacheStats.intern("cache.refs");
        sampler->addColumn("refs", [this, refs](Cycle) {
            return cacheStats.get(refs);
        });
        sampler->addColumn("miss_refs",
                           [this](Cycle) { return missRefs(); });
        // One census scan per sample, shared by the eight per-tag
        // columns through a cycle-stamped buffer.
        struct Census
        {
            Cycle at = kNever;
            std::array<std::uint64_t, Cache::kNumTags> counts{};
        };
        auto census = std::make_shared<Census>();
        for (std::size_t t = 0; t < Cache::kNumTags; t++) {
            sampler->addColumn(
                "tags." +
                    std::string(toString(static_cast<LineTag>(t))),
                [this, census, t](Cycle at) {
                    if (census->at != at) {
                        census->counts.fill(0);
                        for (auto &cache : caches)
                            cache->addTagCensus(census->counts.data());
                        census->at = at;
                    }
                    return census->counts[t];
                });
        }
    }
}

const Cache &
System::cacheBank(PeId pe, Addr addr) const
{
    ddc_assert(pe >= 0 && pe < config.num_pes, "PE id out of range");
    // Interleave across buses at block granularity so a block never
    // straddles two banks (with one-word blocks this is the paper's
    // least-significant-address-bit split).
    int bank = static_cast<int>(
        (addr / static_cast<Addr>(config.block_words)) %
        static_cast<Addr>(config.num_buses));
    return *caches[static_cast<std::size_t>(pe * config.num_buses + bank)];
}

LineState
System::lineState(PeId pe, Addr addr) const
{
    return cacheBank(pe, addr).lineState(addr);
}

Word
System::cacheValue(PeId pe, Addr addr) const
{
    return cacheBank(pe, addr).lineValue(addr);
}

Word
System::memoryValue(Addr addr) const
{
    auto bank = static_cast<std::size_t>(
        (addr / static_cast<Addr>(config.block_words)) %
        static_cast<Addr>(config.num_buses));
    return memories[bank]->peek(addr);
}

void
System::pokeMemory(Addr addr, Word value)
{
    auto bank = static_cast<std::size_t>(
        (addr / static_cast<Addr>(config.block_words)) %
        static_cast<Addr>(config.num_buses));
    memories[bank]->poke(addr, value);
}

Word
System::coherentValue(Addr addr) const
{
    for (PeId pe = 0; pe < config.num_pes; pe++) {
        if (proto->needsWriteback(lineState(pe, addr)))
            return cacheValue(pe, addr);
    }
    return memoryValue(addr);
}

stats::CounterSet
System::counters() const
{
    flushStalls();
    stats::CounterSet merged;
    merged.merge(cacheStats);
    for (const auto &bus_stats : busStats)
        merged.merge(*bus_stats);
    return merged;
}

const stats::CounterSet &
System::busCounters(int bus) const
{
    ddc_assert(bus >= 0 && bus < config.num_buses, "bus index out of range");
    return *busStats[static_cast<std::size_t>(bus)];
}

std::uint64_t
System::totalBusTransactions() const
{
    std::uint64_t total = 0;
    for (const auto &bus_stats : busStats)
        total += bus_stats->get("bus.busy_cycles");
    return total;
}

std::uint64_t
System::snoopVisits() const
{
    std::uint64_t total = 0;
    for (const auto &bus : buses)
        total += bus->snoopVisits();
    return total;
}

} // namespace ddc
