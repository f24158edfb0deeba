#include "sim/shard.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ddc {

Shard::Shard(std::size_t agent_slots)
{
    agents.assign(agent_slots, nullptr);
    stalled.assign(agent_slots, 0);
    wake.assign(agent_slots, 0);
    accrued.assign(agent_slots, 0);
}

void
Shard::addComponent(Tickable *component)
{
    ddc_assert(component != nullptr,
               "Shard::addComponent needs a component");
    components.push_back(component);
}

char *
Shard::wakeFlag(std::size_t slot)
{
    ddc_assert(slot < wake.size(), "agent slot out of range");
    return &wake[slot];
}

void
Shard::setAgent(std::size_t slot, Agent *agent)
{
    ddc_assert(slot < agents.size(), "agent slot out of range");
    agents[slot] = agent;
}

void
Shard::rebuild()
{
    flushStalls();
    std::fill(stalled.begin(), stalled.end(), 0);
    std::fill(wake.begin(), wake.end(), 0);
    active.clear();
    for (std::size_t slot = 0; slot < agents.size(); slot++) {
        if (agents[slot] && !agents[slot]->done())
            active.push_back(slot);
    }
}

void
Shard::tick()
{
    for (Tickable *component : components)
        component->tick();
    std::size_t out = 0;
    for (std::size_t slot : active) {
        if (stalled[slot]) {
            if (!wake[slot]) {
                accrued[slot]++;
                active[out++] = slot;
                continue;
            }
            stalled[slot] = 0;
            wake[slot] = 0;
            if (accrued[slot] > 0) {
                agents[slot]->addStallCycles(accrued[slot]);
                accrued[slot] = 0;
            }
        }
        agents[slot]->tick();
        if (agents[slot]->stalledOnCompletion()) {
            stalled[slot] = 1;
            wake[slot] = 0;
        }
        if (!agents[slot]->done())
            active[out++] = slot;
    }
    active.resize(out);
}

Cycle
Shard::nextEventCycle(Cycle now) const
{
    Cycle earliest = kNever;
    for (const Tickable *component : components) {
        Cycle next = component->nextEventCycle(now);
        if (next <= now)
            return now;
        earliest = std::min(earliest, next);
    }
    for (std::size_t slot : active) {
        // A stalled agent with no wake pending can only be woken by
        // its cache's completion: kNever, without the virtual call.
        if (stalled[slot] && !wake[slot])
            continue;
        Cycle next = agents[slot]->nextEventCycle(now);
        if (next <= now)
            return now;
        earliest = std::min(earliest, next);
    }
    return earliest;
}

void
Shard::skipCycles(Cycle count)
{
    for (Tickable *component : components)
        component->skipCycles(count);
    for (std::size_t slot : active)
        agents[slot]->skipCycles(count);
}

void
Shard::flushStalls() const
{
    for (std::size_t slot = 0; slot < accrued.size(); slot++) {
        if (accrued[slot] > 0 && agents[slot]) {
            agents[slot]->addStallCycles(accrued[slot]);
            accrued[slot] = 0;
        }
    }
}

} // namespace ddc
