#include "sim/scenario.hh"

#include <sstream>

#include "base/logging.hh"
#include "sim/kernel.hh"

namespace ddc {

Scenario::Scenario(ProtocolKind kind, int num_caches,
                   std::size_t cache_lines, int rwb_writes_to_local,
                   std::size_t block_words)
    : protocol(makeProtocol(kind, rwb_writes_to_local)),
      memory(stats),
      bus(memory, ArbiterKind::RoundRobin, clock, stats, 0, block_words, 0,
          engineDefaults().snoop_filter)
{
    ddc_assert(num_caches >= 1, "need at least one cache");
    for (PeId pe = 0; pe < num_caches; pe++) {
        caches.push_back(std::make_unique<Cache>(
            pe, cache_lines, *protocol, clock, stats, &execLog,
            block_words));
        caches.back()->connectBus(bus);
    }
}

Cache::AccessResult
Scenario::run(PeId pe, const MemRef &ref)
{
    ddc_assert(pe >= 0 && pe < numCaches(), "PE id out of range");
    Cache &cache = *caches[static_cast<std::size_t>(pe)];
    auto result = cache.cpuAccess(ref);
    if (result.complete)
        return result;
    for (int i = 0; i < 1000; i++) {
        if (cache.hasCompletion())
            return cache.takeCompletion();
        bus.tick();
        clock.now++;
    }
    ddc_panic("scenario access failed to complete");
}

Word
Scenario::read(PeId pe, Addr addr)
{
    return run(pe, {CpuOp::Read, addr, 0, DataClass::Shared}).value;
}

void
Scenario::write(PeId pe, Addr addr, Word data)
{
    run(pe, {CpuOp::Write, addr, data, DataClass::Shared});
}

Cache::AccessResult
Scenario::testAndSet(PeId pe, Addr addr, Word data)
{
    return run(pe, {CpuOp::TestAndSet, addr, data, DataClass::Shared});
}

LineState
Scenario::state(PeId pe, Addr addr) const
{
    return caches[static_cast<std::size_t>(pe)]->lineState(addr);
}

Word
Scenario::value(PeId pe, Addr addr) const
{
    return caches[static_cast<std::size_t>(pe)]->lineValue(addr);
}

Word
Scenario::memoryValue(Addr addr) const
{
    return memory.peek(addr);
}

std::uint64_t
Scenario::busTransactions() const
{
    return stats.get("bus.busy_cycles");
}

std::string
Scenario::row(Addr addr) const
{
    std::ostringstream os;
    for (int pe = 0; pe < numCaches(); pe++) {
        LineState line = state(pe, addr);
        os << toString(line) << "(";
        if (line.present()) {
            os << value(pe, addr);
        } else {
            os << "-";
        }
        os << ")";
        if (pe + 1 < numCaches())
            os << "  ";
    }
    os << "  | S=" << memoryValue(addr);
    return os.str();
}

} // namespace ddc
