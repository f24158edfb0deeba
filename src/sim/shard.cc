#include "sim/shard.hh"

#include <algorithm>
#include <iterator>

#include "base/logging.hh"

namespace ddc {

Shard::Shard(std::size_t agent_slots)
{
    agents.assign(agent_slots, nullptr);
    waits.assign(agent_slots, Runnable);
    paid.assign(agent_slots, 0);
}

void
Shard::addComponent(Tickable *component)
{
    ddc_assert(component != nullptr,
               "Shard::addComponent needs a component");
    components.push_back(component);
}

void
Shard::raiseWake(std::size_t slot)
{
    ddc_assert(slot < waits.size(), "agent slot out of range");
    ddc_assert(!inAgentPass, "agent slot ", slot,
               " woken during its shard's agent pass");
    if (waits[slot] != Stalled)
        return;
    waits[slot] = Woken;
    woken.push_back(slot);
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
    std::fill(waits.begin(), waits.end(), Runnable);
    woken.clear();
    parked = 0;
    runnable.clear();
    for (std::size_t slot = 0; slot < agents.size(); slot++) {
        if (agents[slot] && !agents[slot]->done())
            runnable.push_back(slot);
    }
}

void
Shard::admitWoken()
{
    // The cycles between the stall and this tick each owed one stall
    // cycle; this tick is the agent's own.
    std::sort(woken.begin(), woken.end());
    for (std::size_t slot : woken) {
        Cycle owed = cycles - 1 - paid[slot];
        if (owed > 0)
            agents[slot]->addStallCycles(owed);
        waits[slot] = Runnable;
    }
    parked -= woken.size();
    merged.clear();
    std::merge(runnable.begin(), runnable.end(), woken.begin(),
               woken.end(), std::back_inserter(merged));
    runnable.swap(merged);
    woken.clear();
}

void
Shard::tick()
{
    cycles++;
    for (Tickable *component : components)
        component->tick();
    if (!woken.empty())
        admitWoken();
    inAgentPass = true;
    std::size_t out = 0;
    for (std::size_t slot : runnable) {
        Agent *agent = agents[slot];
        agent->tick();
        if (agent->stalledOnCompletion()) {
            waits[slot] = Stalled;
            paid[slot] = cycles;
            parked++;
        } else if (!agent->done()) {
            runnable[out++] = slot;
        }
    }
    runnable.resize(out);
    inAgentPass = false;
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
    // A woken agent ticks this cycle; a stalled one can only be woken
    // by its cache's completion, so it is off the list.
    if (!woken.empty())
        return now;
    for (std::size_t slot : runnable) {
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
    ddc_assert(woken.empty(), "skipped cycles a woken agent would run");
    for (Tickable *component : components)
        component->skipCycles(count);
    cycles += count;
    for (std::size_t slot : runnable)
        agents[slot]->skipCycles(count);
}

void
Shard::flushStalls() const
{
    for (std::size_t slot = 0; slot < waits.size(); slot++) {
        if (waits[slot] == Runnable || agents[slot] == nullptr)
            continue;
        if (cycles > paid[slot])
            agents[slot]->addStallCycles(cycles - paid[slot]);
        paid[slot] = cycles;
    }
}

} // namespace ddc
