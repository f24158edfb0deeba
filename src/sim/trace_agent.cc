#include "sim/trace_agent.hh"

namespace ddc {

TraceAgent::TraceAgent(CacheSet caches, SharedStream stream,
                       stats::CounterSet &stats)
    : caches(std::move(caches)), stream(std::move(stream)), stats(stats)
{
    if (this->stream) {
        next = this->stream->data();
        end = next + this->stream->size();
    }
    statStallCycles = stats.intern("pe.stall_cycles");
}

bool
TraceAgent::done() const
{
    return !waiting && next == end;
}

void
TraceAgent::addStallCycles(Cycle count)
{
    stats.add(statStallCycles, count);
}

void
TraceAgent::tick()
{
    if (waiting) {
        if (!caches.hasCompletion()) {
            stats.add(statStallCycles);
            return;
        }
        caches.takeCompletion();
        waiting = false;
        completed++;
        return;
    }
    if (next == end)
        return;

    auto result = caches.access(*next);
    next++;
    if (result.complete) {
        completed++;
    } else {
        waiting = true;
        stats.add(statStallCycles);
    }
}

} // namespace ddc
