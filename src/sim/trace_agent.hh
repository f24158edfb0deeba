/**
 * @file
 * Trace-driven agent: replays one PE's MemRef stream in order.
 */

#ifndef DDC_SIM_TRACE_AGENT_HH
#define DDC_SIM_TRACE_AGENT_HH

#include "sim/agent.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

namespace ddc {

/** Replays a reference stream; one reference in flight at a time. */
class TraceAgent : public Agent
{
  public:
    /**
     * @param caches The PE's cache banks.
     * @param stream References to issue, in order (shared, not
     *        copied; null issues none).
     * @param stats Counter set receiving pe.* statistics.
     */
    TraceAgent(CacheSet caches, SharedStream stream,
               stats::CounterSet &stats);

    void tick() override;
    bool done() const override;

    /**
     * Runnable whenever it could issue the next reference or consume
     * a completion; event-free only while stalled on an outstanding
     * miss (the bus wakes it by completing the access).
     */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        return waiting && !caches.hasCompletion() ? kNever : now;
    }

    void skipCycles(Cycle count) override;

    /** Ticking while a miss is outstanding only counts a stall. */
    bool
    stalledOnCompletion() const override
    {
        return waiting && !caches.hasCompletion();
    }

    void addStallCycles(Cycle count) override;

    /** References fully completed so far. */
    std::size_t refsCompleted() const { return completed; }

  private:
    CacheSet caches;
    /** Keeps the stream alive; next/end walk its storage. */
    SharedStream stream;
    const MemRef *next = nullptr;
    const MemRef *end = nullptr;
    stats::CounterSet &stats;
    /** Handle interned once at construction (per-stall add). */
    stats::CounterId statStallCycles;
    std::size_t completed = 0;
    bool waiting = false;
};

} // namespace ddc

#endif // DDC_SIM_TRACE_AGENT_HH
