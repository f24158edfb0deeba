/**
 * @file
 * One shard of a simulated machine: the buses and agents that tick
 * together as a unit.
 *
 * A shard is the kernel's grouping of per-cycle work (see DESIGN.md,
 * "The kernel").  On the flat machine the whole system is one shard;
 * on the hierarchical machine the global interconnect forms the
 * serial shard and each cluster (cluster bus + its L1 caches + its
 * PEs) is one further shard, ticked in cluster order.
 *
 * The shard owns the stall-skip machinery extracted from the old
 * System::tick: an agent whose tick reported stalledOnCompletion() is
 * skipped (one accrued stall cycle per skipped tick, flushed in bulk)
 * until its cache raises the per-slot wake flag.
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
    /**
     * @param agent_slots Number of agent slots (fixed up front so
     *        wake-flag pointers handed to caches stay stable).
     */
    explicit Shard(std::size_t agent_slots);

    /**
     * Attach a component ticked (and skipped) by this shard before
     * its agents, in attach order — a snooping Bus or the directory
     * fabric; anything Tickable.
     */
    void addComponent(Tickable *component);

    /**
     * Wake flag of agent slot @p slot, for Cache::setWakeFlag (stable
     * for the shard's lifetime).
     */
    char *wakeFlag(std::size_t slot);

    /** Install (or replace) the agent in @p slot; then rebuild(). */
    void setAgent(std::size_t slot, Agent *agent);

    /**
     * Recompute the not-yet-done agent list after (re)installs and
     * reset the stall/wake machinery (accrued stalls are flushed
     * first so no owed cycles are dropped).
     */
    void rebuild();

    /**
     * Advance one cycle: buses in attach order, then the still-running
     * agents in slot order.  Agents that finished are dropped;
     * compaction is stable so the tick (and execution-log commit)
     * order never changes.  An agent stalled on a miss is skipped
     * without even the virtual call until its cache raises the wake
     * flag; each skipped tick would only have accrued one stall
     * cycle, added in bulk at wake (or by flushStalls()).
     */
    void tick();

    /** True when every installed agent has finished. */
    bool done() const { return active.empty(); }

    /**
     * Earliest cycle at which any of this shard's buses or active
     * agents can change state: @p now when some component is runnable
     * this cycle, a future cycle during a quiescent interval, kNever
     * when every component is blocked.  Side-effect free.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Fast-forward @p count quiescent cycles (bulk bookkeeping). */
    void skipCycles(Cycle count);

    /**
     * Push stall cycles accrued while skipping stalled agents' ticks
     * into the owning agents' counters; called at wake, at the end of
     * a run, and before any counter read, so observed statistics
     * always match the tick-every-cycle baseline.
     */
    void flushStalls() const;

  private:
    std::vector<Tickable *> components;
    /** Installed agents by slot (non-owning; null = empty slot). */
    std::vector<Agent *> agents;
    /** Slots of installed agents that have not finished, in order. */
    std::vector<std::size_t> active;
    /** Per-slot stalled-on-miss flag (see tick()). */
    std::vector<char> stalled;
    /** Per-slot wake flag, raised by Cache::finish() on completion. */
    std::vector<char> wake;
    /**
     * Stall cycles accrued per slot while its ticks were skipped
     * (mutable: counter reads are const but must observe the flushed
     * totals).
     */
    mutable std::vector<Cycle> accrued;
};

} // namespace ddc

#endif // DDC_SIM_SHARD_HH
