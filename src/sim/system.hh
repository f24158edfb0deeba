/**
 * @file
 * Full-machine wiring: N PEs, N (x buses) private caches, arbitrated
 * shared bus(es), interleaved memory banks, and a shared clock.
 *
 * With num_buses == 1 this is the paper's baseline machine; with
 * num_buses == k it is the Figure 7-1 multiple-shared-bus extension
 * (addresses interleaved across buses by their low-order bits, one
 * memory bank and one cache bank per bus per PE).
 */

#ifndef DDC_SIM_SYSTEM_HH
#define DDC_SIM_SYSTEM_HH

#include <memory>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "core/factory.hh"
#include "sim/agent.hh"
#include "sim/arbiter.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/clock.hh"
#include "sim/exec_log.hh"
#include "sim/isa.hh"
#include "sim/kernel.hh"
#include "sim/memory.hh"
#include "sim/processor.hh"
#include "sim/shard.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

namespace ddc {

/** Configuration of one simulated machine. */
struct SystemConfig
{
    int num_pes = 4;
    /** Lines per cache bank; capacity in words = lines * block_words. */
    std::size_t cache_lines = 1024;
    /** Words per cache block (the paper's assumption 7: 1). */
    std::size_t block_words = 1;
    /** Set associativity (the paper's assumption 7: 1, direct-mapped). */
    std::size_t ways = 1;
    /**
     * Extra bus-occupancy cycles per memory-touching transaction
     * (0 = the paper's unified bus/cache/PE cycle, assumption 5).
     */
    std::size_t memory_latency = 0;
    ProtocolKind protocol = ProtocolKind::Rb;
    /** RWB's writes-to-local threshold k (RWB only). */
    int rwb_writes_to_local = 2;
    /** Number of interleaved shared buses (Section 7). */
    int num_buses = 1;
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
    /** Seed for the Random arbitration policy. */
    std::uint64_t arbiter_seed = 1;
    /** Record the serial execution log for consistency checking. */
    bool record_log = false;
    /**
     * Fast-forward run() across quiescent cycles (next-event time
     * advance).  Results are byte-identical either way; off is the
     * A/B-debugging baseline.  ANDed with the process-wide
     * setQuiescentSkipEnabled() switch (the --no-skip flag).
     */
    bool skip_quiescent = true;
    /**
     * Resolve bus broadcasts and supplier scans through each bus's
     * sharer index (O(holders) per transaction) instead of visiting
     * every attached cache (O(PEs)).  Results are byte-identical
     * either way; off is the A/B baseline.  ANDed with the
     * process-wide setSnoopFilterEnabled() switch (the
     * --no-snoop-filter flag).
     */
    bool snoop_filter = true;
    /**
     * Collect latency histograms (miss service, bus wait, retries,
     * lock acquisition, inter-write distance) for this System.  ORed
     * with the process-wide --histograms flag, so a bench can enable
     * them per-point without racing parallel workers on the process
     * switch.  All inputs are cycle counts: the recorded
     * distributions never perturb (and are never perturbed by)
     * simulation results.
     */
    bool histograms = false;
    /**
     * Snapshot selected counters every N cycles into a per-run time
     * series (0 = fall back to the process-wide --sample-every
     * interval, itself 0 = off).
     */
    Cycle sample_every = 0;
};

// The process-wide quiescent-skip switch and RunStatus live with the
// kernel (sim/kernel.hh) and are re-exported through this header for
// the many existing includers.

/** A complete simulated shared-bus multiprocessor. */
class System
{
  public:
    /** Default cycle budget for run(). */
    static constexpr Cycle kDefaultMaxCycles = 100'000'000;

    explicit System(const SystemConfig &config);

    /**
     * Replace every agent with trace replay of @p trace.  The agents
     * share the trace's streams (no copy); @p trace may be changed or
     * destroyed afterwards without affecting the loaded run.
     */
    void loadTrace(const Trace &trace);

    /** Install @p program on PE @p pe (creates a Processor agent). */
    void setProgram(PeId pe, Program program);

    /** The Processor on @p pe (fatal unless setProgram was used). */
    Processor &processor(PeId pe);

    /**
     * Advance one cycle: bus phase, then PE phase (drives the shared
     * kernel's tickOnce).
     */
    void tick();

    /**
     * Run until every agent is done (or @p max_cycles elapse).
     *
     * Hitting the budget is never silent: it logs a warning and is
     * reported by runStatus() / timedOut().
     * @return Number of cycles executed.
     */
    Cycle run(Cycle max_cycles = kDefaultMaxCycles);

    /** Outcome of the most recent run() (Finished before any run). */
    RunStatus runStatus() const { return run_status; }

    /** True when the most recent run() hit its cycle budget. */
    bool timedOut() const { return run_status == RunStatus::TimedOut; }

    /**
     * Cycles run() fast-forwarded instead of ticking (0 with skipping
     * disabled); included in the cycle counts run() returns.
     */
    Cycle skippedCycles() const { return kernel.skippedCycles(); }

    /** True when every agent has finished. */
    bool allDone() const;

    /** Current cycle. */
    Cycle now() const { return clock.now; }

    int numPes() const { return config.num_pes; }
    int numBuses() const { return config.num_buses; }
    const SystemConfig &configuration() const { return config; }
    const Protocol &protocol() const { return *proto; }

    /** Coherence state PE @p pe's cache holds for @p addr. */
    LineState lineState(PeId pe, Addr addr) const;

    /** Value PE @p pe's cache holds for @p addr (0 if absent). */
    Word cacheValue(PeId pe, Addr addr) const;

    /** Memory's current value of @p addr. */
    Word memoryValue(Addr addr) const;

    /**
     * The latest value of @p addr in the machine: the dirty owner's
     * cached copy when one exists (Local/Dirty), otherwise memory.
     */
    Word coherentValue(Addr addr) const;

    /**
     * Overwrite a memory word directly (fault injection / test hook;
     * bypasses the bus, coherence, and statistics).
     */
    void pokeMemory(Addr addr, Word value);

    /** The serial execution log (empty unless record_log). */
    const ExecutionLog &log() const { return execLog; }

    /** Merged counters from caches, buses, memory, and PEs. */
    stats::CounterSet counters() const;

    /** Counters of bus @p bus only (bus.* and memory.* of its bank). */
    const stats::CounterSet &busCounters(int bus) const;

    /** Shared cache/PE counter set. */
    const stats::CounterSet &
    cacheCounters() const
    {
        flushStalls();
        return cacheStats;
    }

    /** Total bus transactions across all buses. */
    std::uint64_t totalBusTransactions() const;

    /**
     * Broadcast visits plus supplier polls across all buses (see
     * Bus::snoopVisits); an A/B pair of runs with the snoop filter
     * on and off quantifies the avoided virtual calls.
     */
    std::uint64_t snoopVisits() const;

    /**
     * Times any bus degraded from sharer-indexed to full snooping
     * (see Bus::snoopFilterFallbacks); 0 on a healthy filtered run.
     */
    std::uint64_t snoopFilterFallbacks() const;

    /**
     * References that needed the bus at issue time (the miss_ratio
     * numerator): the sum of every cache.read_miss.* /
     * cache.write_miss.* / cache.ts.* / cache.readlock.* /
     * cache.writeunlock.* counter, read through handles cached at
     * construction instead of five prefix scans.
     */
    std::uint64_t missRefs() const;

    /**
     * This System's observability state (null when every obs feature
     * is off — the common case).  The trace file, when this System
     * claimed one, is written when the System is destroyed.
     */
    obs::Recorder *observability() const { return recorder.get(); }

  private:
    const Cache &cacheBank(PeId pe, Addr addr) const;
    CacheSet cacheSetFor(PeId pe);

    /** Flush accrued stall cycles before any counter read. */
    void flushStalls() const { kernel.flushStalls(); }

    SystemConfig config;
    Clock clock;
    /**
     * The shared run-loop driver.  The flat machine is inherently one
     * shard — every PE's CacheSet spans every bus — so the kernel
     * holds a single parallel shard and always runs one lane; the
     * loop, skip, and stall machinery is the same code the
     * hierarchical machine shards across threads.
     */
    Kernel kernel;
    /** The machine's single shard (owned by the kernel). */
    Shard *shard = nullptr;
    RunStatus run_status = RunStatus::Finished;
    ExecutionLog execLog;
    std::unique_ptr<Protocol> proto;

    stats::CounterSet cacheStats;
    std::vector<std::unique_ptr<stats::CounterSet>> busStats;
    std::vector<std::unique_ptr<Memory>> memories;
    std::vector<std::unique_ptr<Bus>> buses;
    /** caches[pe * num_buses + bus]. */
    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::unique_ptr<Agent>> agents;

    /** Handles of the miss-class cache counters (see missRefs()). */
    std::vector<stats::CounterId> missStats;

    /** Observability state (null when everything is off). */
    std::unique_ptr<obs::Recorder> recorder;
};

} // namespace ddc

#endif // DDC_SIM_SYSTEM_HH
