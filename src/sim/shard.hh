/**
 * @file
 * One shard of a simulated machine: the buses and agents that tick
 * together as a unit.
 *
 * A shard is the kernel's grouping of per-cycle work (see DESIGN.md,
 * "The kernel").  On the flat machine the whole system is one shard;
 * on the hierarchical machine the global interconnect forms the
 * global shard, created (so ticked) first, and each cluster (cluster
 * bus + its L1 caches + its PEs) is one further shard, ticked in
 * cluster order.
 *
 * The shard owns the stall-skip machinery: an agent whose tick
 * reported stalledOnCompletion() leaves the runnable list and costs
 * nothing per cycle until its cache calls raiseWake() for its slot.
 * The stall cycles it would have counted are paid in one call at wake
 * (or flush), from the shard's count of ticked and skipped cycles.
 */

#ifndef DDC_SIM_SHARD_HH
#define DDC_SIM_SHARD_HH

#include <cstddef>
#include <vector>

#include "sim/agent.hh"
#include "sim/clock.hh"
#include "sim/fabric.hh"

namespace ddc {

/** The buses and agents that tick together as a unit. */
class Shard
{
  public:
    /** @param agent_slots Number of agent slots (fixed up front). */
    explicit Shard(std::size_t agent_slots);

    /**
     * Attach a component ticked (and skipped) by this shard before
     * its agents, in attach order — a snooping Bus or the directory
     * fabric; anything Tickable.
     */
    void addComponent(Tickable *component);

    /**
     * The access agent slot @p slot waits on completed (called by
     * Cache::finish, see Cache::setWakeSlot).  A stalled slot is
     * queued and rejoins the runnable list, in slot order, at the
     * next tick's agent pass; a wake for a runnable slot is ignored.
     * A wake during this shard's own agent pass panics: it could
     * move an agent's tick.
     */
    void raiseWake(std::size_t slot);

    /** Install (or replace) the agent in @p slot; then rebuild(). */
    void setAgent(std::size_t slot, Agent *agent);

    /**
     * Recompute the runnable list after (re)installs and reset the
     * stall/wake machinery (owed stalls are flushed first so no
     * cycles are dropped).
     */
    void rebuild();

    /**
     * Advance one cycle: components in attach order, then the
     * runnable agents in slot order, after admitting the slots woken
     * since the last pass.  Agents that finished or stalled on a miss
     * leave the list; compaction is stable so the tick (and
     * execution-log commit) order never changes.  Each cycle a
     * stalled agent sits out would only have counted one stall
     * cycle; the shard pays them in bulk at wake (or flushStalls()).
     */
    void tick();

    /** True when every installed agent has finished. */
    bool done() const { return runnable.empty() && parked == 0; }

    /**
     * Earliest cycle at which this shard can change state: @p now
     * while any agent is runnable or woken, else the earliest of its
     * components' next events (a future cycle during a quiescent
     * interval, kNever when every component is blocked).  Agents
     * never report time: a stalled one waits for its wake.
     * Side-effect free.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Fast-forward @p count quiescent cycles of the components (bulk
     * bookkeeping); every agent is stalled or finished, and the
     * stalled ones are paid for them at wake or flush.
     */
    void skipCycles(Cycle count);

    /**
     * Settle every component (Tickable::settle) and pay every stalled
     * agent the stall cycles owed so far; called at the end of a run
     * and before any counter read, so observed statistics always
     * match the tick-every-cycle baseline.
     */
    void flushStalls() const;

  private:
    /** Where a slot stands with respect to the runnable list. */
    enum Wait : char
    {
        Runnable, //!< on the list (or empty / finished)
        Stalled,  //!< off the list, waiting for raiseWake()
        Woken,    //!< off the list, queued in woken
    };

    /**
     * Pay the woken slots their stall cycles and merge them into the
     * runnable list in slot order.
     */
    void admitWoken();

    std::vector<Tickable *> components;
    /** Installed agents by slot (non-owning; null = empty slot). */
    std::vector<Agent *> agents;
    /** Slots whose agent ticks this cycle, ascending. */
    std::vector<std::size_t> runnable;
    /** Stalled slots woken since the last agent pass. */
    std::vector<std::size_t> woken;
    /** Scratch for admitWoken's merge (no allocation per wake). */
    std::vector<std::size_t> merged;
    /** Per-slot Wait state. */
    std::vector<Wait> waits;
    /** Slots off the runnable list (Stalled or Woken). */
    std::size_t parked = 0;
    /** Cycles this shard ticked or skipped so far. */
    Cycle cycles = 0;
    /**
     * Per stalled slot, the cycle count up to which its stall cycles
     * are paid: the tick it stalled in, or the last flush (mutable:
     * counter reads are const but must observe the flushed totals).
     */
    mutable std::vector<Cycle> paid;
    /** True while tick() visits agents (raiseWake must not run). */
    bool inAgentPass = false;
};

} // namespace ddc

#endif // DDC_SIM_SHARD_HH
