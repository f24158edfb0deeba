/**
 * @file
 * What every simulated machine shares: the clock, the kernel that
 * ticks it, one protocol instance, the execution log, the cache/PE
 * counter set, the PE agents and the observability recorder.
 *
 * System (the flat bus machine) and hier::HierSystem (clusters on a
 * global interconnect) derive from Multiprocessor.  Each adds only its
 * own wiring (its buses, caches and shards, and which caches and
 * shard slot each PE gets, registered once with seat()) and its own
 * views: counters, line, memory and coherent values, visit counts.
 * Loading, running and timeout reporting are the base's, so both
 * machines behave alike by construction.  The counters and visit
 * counts are virtual, so a caller can scrape either machine alike
 * (exp::executeTraceRun does); nothing virtual runs per simulated
 * cycle or reference.
 */

#ifndef DDC_SIM_MULTIPROCESSOR_HH
#define DDC_SIM_MULTIPROCESSOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "core/factory.hh"
#include "obs/recorder.hh"
#include "sim/agent.hh"
#include "sim/cache.hh"
#include "sim/clock.hh"
#include "sim/exec_log.hh"
#include "sim/isa.hh"
#include "sim/kernel.hh"
#include "sim/processor.hh"
#include "sim/shard.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

namespace ddc {

/** The machine core System and HierSystem share (see file comment). */
class Multiprocessor
{
  public:
    /** Default cycle budget for run(). */
    static constexpr Cycle kDefaultMaxCycles = 100'000'000;

    virtual ~Multiprocessor() = default;

    Multiprocessor(const Multiprocessor &) = delete;
    Multiprocessor &operator=(const Multiprocessor &) = delete;

    /**
     * Replace every agent with trace replay of @p trace.  The agents
     * share the trace's streams (no copy); @p trace may be changed or
     * destroyed afterwards without affecting the loaded run.  A
     * machine that records its log reserves room for every reference
     * of the trace, so the log never grows by reallocation.
     */
    void loadTrace(const Trace &trace);

    /** Install @p program on PE @p pe (creates a Processor agent). */
    void setProgram(PeId pe, Program program);

    /** The Processor on @p pe (fatal unless setProgram was used). */
    Processor &processor(PeId pe);

    /** Advance one cycle: every shard in creation order. */
    void tick() { kernel.tickOnce(); }

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
    bool allDone() const { return kernel.allDone(); }

    /** Current cycle. */
    Cycle now() const { return clock.now; }

    /** Total number of PEs. */
    int numPes() const { return static_cast<int>(seats.size()); }

    const Protocol &protocol() const { return *proto; }

    /** The serial execution log (empty unless record_log). */
    const ExecutionLog &log() const { return execLog; }

    /**
     * References that needed the bus at issue time (the miss_ratio
     * numerator): the sum of every cache.read_miss.* /
     * cache.write_miss.* / cache.ts.* / cache.readlock.* /
     * cache.writeunlock.* counter, read through handles cached at
     * construction instead of five prefix scans.
     */
    std::uint64_t missRefs() const;

    /**
     * This machine's observability state (null when every obs feature
     * is off — the common case).  The trace file, when this machine
     * claimed one, is written when the machine is destroyed.
     */
    obs::Recorder *observability() const { return recorder.get(); }

    /** Merged counters from every component. */
    virtual stats::CounterSet counters() const = 0;

    /**
     * Broadcast visits plus supplier polls across every bus (see
     * Bus::snoopVisits); an A/B pair of runs with the snoop filter
     * on and off quantifies the avoided virtual calls.
     */
    virtual std::uint64_t snoopVisits() const = 0;

  protected:
    /**
     * @param name The machine's name in the budget warning.
     * @param engine The machine config's knobs: the kernel's skip and
     *        the recorder's histograms and sampling (the derived
     *        machine passes snoop_filter and skip_quiescent to its
     *        buses).
     * @param record_log The derived machine hands its caches the
     *        execution log (its config's record_log).
     */
    Multiprocessor(const char *name, int num_pes, ProtocolKind protocol,
                   int rwb_writes_to_local, const EngineKnobs &engine,
                   bool record_log);

    /**
     * PE @p pe issues to @p banks (one per bus, in bus order) and its
     * agent ticks in slot @p slot of @p shard.  Every PE is seated
     * once, at construction, before any agent is installed.
     */
    void seat(PeId pe, std::vector<Cache *> banks, Shard &shard,
              std::size_t slot);

    /** Flush accrued stall cycles before any counter read. */
    void flushStalls() const { kernel.flushStalls(); }

    Clock clock;
    /** The shared run-loop driver; the machine creates its shards. */
    Kernel kernel;
    std::unique_ptr<Protocol> proto;
    ExecutionLog execLog;
    /** Every L1's cache.* and every PE's pe.* counters. */
    stats::CounterSet cacheStats;
    /**
     * Observability state (null when everything is off).  It outlives
     * the agents and the derived machine's components (none touches
     * it when destroyed) and writes its trace file last.
     */
    std::unique_ptr<obs::Recorder> recorder;

  private:
    /** Where one PE's agent issues and ticks (see seat()). */
    struct Seat
    {
        std::vector<Cache *> banks;
        Shard *shard = nullptr;
        std::size_t slot = 0;
    };

    /** Install @p agent on PE @p pe's seat (the caller rebuilds). */
    void install(PeId pe, std::unique_ptr<Agent> agent);

    const char *name;
    bool recordsLog;
    RunStatus run_status = RunStatus::Finished;
    std::vector<Seat> seats;
    std::vector<std::unique_ptr<Agent>> agents;
    /** Handles of the miss-class cache counters (see missRefs()). */
    std::vector<stats::CounterId> missStats;
};

} // namespace ddc

#endif // DDC_SIM_MULTIPROCESSOR_HH
