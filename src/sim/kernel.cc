#include "sim/kernel.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ddc {

std::string_view
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Finished: return "finished";
      case RunStatus::TimedOut: return "timed_out";
    }
    return "?";
}

namespace {

constinit EngineKnobs defaults{};

} // namespace

const EngineKnobs &
engineDefaults()
{
    return defaults;
}

void
setEngineDefaults(const EngineKnobs &knobs)
{
    defaults = knobs;
}

Kernel::Kernel(Clock &clock, bool skip_quiescent)
    : clock(clock), skipping(skip_quiescent)
{}

Shard &
Kernel::makeShard(std::size_t agent_slots)
{
    shards.push_back(std::make_unique<Shard>(agent_slots));
    return *shards.back();
}

void
Kernel::tickOnce()
{
    for (auto &shard : shards)
        shard->tick();
    clock.now++;
}

bool
Kernel::allDone() const
{
    for (const auto &shard : shards) {
        if (!shard->done())
            return false;
    }
    return true;
}

Cycle
Kernel::earliestNextEvent() const
{
    Cycle earliest = kNever;
    for (const auto &shard : shards) {
        Cycle next = shard->nextEventCycle(clock.now);
        if (next <= clock.now)
            return clock.now;
        earliest = std::min(earliest, next);
    }
    return earliest;
}

void
Kernel::skipQuiescent(Cycle count)
{
    if (quiesce) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.dur = count;
        event.name = "quiesce";
        event.phase = 'X';
        event.track = obs::kTrackSim;
        event.tid = 0;
        quiesce->push(event);
    }
    for (auto &shard : shards)
        shard->skipCycles(count);
    clock.now += count;
    skipped += count;
}

void
Kernel::flushStalls() const
{
    for (const auto &shard : shards)
        shard->flushStalls();
}

RunStatus
Kernel::run(Cycle max_cycles)
{
    Cycle end = clock.now + max_cycles;
    // Next-event time advance: when no bus can grant and no agent can
    // act this cycle, jump the clock to the earliest future event
    // (typically the end of a memory-latency transfer) instead of
    // ticking through the quiescent interval.  Every skipped cycle is
    // bulk-accounted exactly as a tick would have, so counters, the
    // execution log, and arbiter RNG streams are byte-identical with
    // skipping on or off.
    while (!allDone() && clock.now < end) {
        if (sampler && sampler->due(clock.now))
            sampler->sample(clock.now);
        if (skipping) {
            Cycle next = earliestNextEvent();
            if (next > clock.now) {
                // kNever (all components blocked on each other) fast-
                // forwards to the budget, reported as timed_out by the
                // caller.  The skip stops at the next sample point
                // when one is nearer, so every row lands exactly on
                // the sampling grid.
                Cycle to = std::min(next, end);
                if (sampler)
                    to = std::min(to, sampler->nextAt());
                skipQuiescent(to - clock.now);
                continue;
            }
        }
        tickOnce();
    }
    // Agents still stalled (timeout) carry unflushed skipped-stall
    // cycles; account them before anyone reads counters.
    flushStalls();
    return allDone() ? RunStatus::Finished : RunStatus::TimedOut;
}

} // namespace ddc
