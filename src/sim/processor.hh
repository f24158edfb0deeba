/**
 * @file
 * A processing element executing a Program through its cache.
 *
 * One instruction per cycle; memory instructions stall the PE until
 * the cache completes them (Section 2, assumption 5 unifies the PE,
 * cache, and bus cycles).
 */

#ifndef DDC_SIM_PROCESSOR_HH
#define DDC_SIM_PROCESSOR_HH

#include "sim/agent.hh"
#include "sim/isa.hh"
#include "stats/counter.hh"

namespace ddc {

/** A PE interpreting the mini-ISA of sim/isa.hh. */
class Processor : public Agent
{
  public:
    /**
     * @param pe This PE's id.
     * @param caches The PE's cache banks.
     * @param program Code to run.
     * @param stats Counter set receiving pe.* statistics.
     */
    Processor(PeId pe, CacheSet caches, Program program,
              stats::CounterSet &stats);

    void tick() override;
    bool done() const override { return halted; }

    /**
     * Stalled on an outstanding cache miss whose completion has not
     * yet arrived: each tick until the bus delivers it only counts a
     * stall.  A PE executing instructions is never stalled (spin loops
     * are real work: they retire instructions and touch the cache).
     */
    bool
    stalledOnCompletion() const override
    {
        return waiting && !caches.hasCompletion();
    }

    void addStallCycles(Cycle count) override;

    /** Current register value. */
    Word reg(int index) const;

    /** Set a register (e.g. to pass arguments before running). */
    void setReg(int index, Word value);

    /** Instructions retired. */
    std::uint64_t instructionsRetired() const { return retired; }

    /**
     * Cycles spent stalled on memory.  Like pe.stall_cycles, exact
     * after run() or a counters() read: the shard pays a stalled PE
     * its cycles in bulk at wake or flush.
     */
    std::uint64_t stallCycles() const { return stalls; }

  private:
    /** Execute the instruction at pc (pc already validated). */
    void execute(const Instruction &instruction);

    /** Issue a memory access; stall when it does not complete. */
    void issueMemory(const Instruction &instruction, const MemRef &ref);

    PeId pe;
    CacheSet caches;
    Program program;
    stats::CounterSet &stats;
    /** Handles interned once at construction (per-cycle adds). */
    stats::CounterId statStallCycles, statInstructions;

    Word regs[kNumRegs] = {};
    std::size_t pc = 0;
    bool halted = false;
    bool waiting = false;
    /** Destination register of the stalled load-class instruction. */
    int waitingDst = -1;
    std::uint64_t retired = 0;
    std::uint64_t stalls = 0;
};

} // namespace ddc

#endif // DDC_SIM_PROCESSOR_HH
