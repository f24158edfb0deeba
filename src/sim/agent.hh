/**
 * @file
 * Agent interface and the per-PE cache-bank selector.
 *
 * An Agent is whatever drives one PE's reference stream: a Processor
 * executing a Program, or a TraceAgent replaying a Trace stream.  The
 * System ticks every agent once per cycle after the bus phase.
 *
 * CacheSet implements the multiple-bus extension of Section 7 /
 * Figure 7-1: "The private caches and the shared memory are divided
 * into ... memory banks using the least significant address bit[s]".
 * Each PE owns one cache bank per bus and routes each access by
 * address interleaving.
 */

#ifndef DDC_SIM_AGENT_HH
#define DDC_SIM_AGENT_HH

#include <vector>

#include "base/logging.hh"
#include "sim/cache.hh"
#include "sim/clock.hh"

namespace ddc {

/** Anything that issues one PE's reference stream. */
class Agent
{
  public:
    virtual ~Agent() = default;

    /** Advance one cycle. */
    virtual void tick() = 0;

    /** True when the agent has no more work. */
    virtual bool done() const = 0;

    /**
     * Earliest cycle at which this agent can next change machine state
     * (part of the next-event contract, see DESIGN.md).
     *
     * Must be side-effect free.  Return @p now when the agent would do
     * real work if ticked this cycle; a future cycle when it is in a
     * self-timed wait; kNever when it is blocked on another component
     * (e.g. a cache miss awaiting a bus grant) and can only be woken
     * by that component's progress.  The conservative default — always
     * runnable — disables skipping around agents that do not opt in.
     */
    virtual Cycle nextEventCycle(Cycle now) const { return now; }

    /**
     * Account for @p count cycles skipped while this agent was
     * quiescent.  Only called when nextEventCycle() reported no event
     * in the skipped interval; must update exactly the state and
     * statistics that @p count consecutive tick() calls would have
     * (stall counters etc.), so skipping stays byte-identical.
     */
    virtual void skipCycles(Cycle count) { (void)count; }

    /**
     * True when every tick until the agent's outstanding cache access
     * completes would only account one stall cycle.  The System
     * consults this once after each real tick and then stops ticking
     * the agent until its cache raises the completion wake flag,
     * adding the skipped cycles in bulk via addStallCycles() —
     * strictly an optimization contract: ticking through the stall
     * anyway must be behaviorally identical.  The conservative
     * default (never stalled) keeps agents that do not opt in on the
     * every-cycle schedule.
     */
    virtual bool stalledOnCompletion() const { return false; }

    /**
     * Account @p count stall cycles the System skipped while
     * stalledOnCompletion() held (exactly the bookkeeping those
     * ticks would have done).
     */
    virtual void addStallCycles(Cycle count) { (void)count; }
};

/** Routes one PE's accesses across its per-bus cache banks. */
class CacheSet
{
  public:
    /** @param banks One cache per bus, in bus order (non-owning). */
    explicit CacheSet(std::vector<Cache *> banks)
        : banks(std::move(banks))
    {
        ddc_assert(!this->banks.empty(), "CacheSet needs at least one bank");
    }

    /** Issue an access on the bank owning ref.addr. */
    Cache::AccessResult
    access(const MemRef &ref)
    {
        ddc_assert(pendingBank == nullptr, "access while one is pending");
        Cache &bank = bankFor(ref.addr);
        auto result = bank.cpuAccess(ref);
        if (!result.complete)
            pendingBank = &bank;
        return result;
    }

    /** True when the outstanding access has completed. */
    bool
    hasCompletion() const
    {
        return pendingBank != nullptr && pendingBank->hasCompletion();
    }

    /** Consume the completed access's result. */
    Cache::AccessResult
    takeCompletion()
    {
        ddc_assert(pendingBank != nullptr, "no pending access");
        auto result = pendingBank->takeCompletion();
        pendingBank = nullptr;
        return result;
    }

    /** True while an access is outstanding. */
    bool busy() const { return pendingBank != nullptr; }

    /** The bank that owns @p addr (block-granular interleaving). */
    Cache &
    bankFor(Addr addr)
    {
        // Single-bus configurations (the default) skip the modulo
        // routing; this sits on the per-reference fast path.
        if (banks.size() == 1)
            return *banks.front();
        auto block = static_cast<Addr>(banks.front()->blockWords());
        return *banks[static_cast<std::size_t>((addr / block) %
                                               banks.size())];
    }

  private:
    std::vector<Cache *> banks;
    Cache *pendingBank = nullptr;
};

} // namespace ddc

#endif // DDC_SIM_AGENT_HH
