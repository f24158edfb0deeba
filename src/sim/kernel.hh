/**
 * @file
 * The simulation kernel: the one run-loop driver both machines share.
 *
 * The kernel owns tick ordering, quiescent-cycle skipping (next-event
 * time advance via each shard's nextEventCycle), stall-skip flushing,
 * and budget/timeout accounting.  The Multiprocessor base owns one,
 * and System and HierSystem wire their components into its shards.
 * Each cycle ticks every shard in creation order, on the calling
 * thread.  The hierarchical machine creates its global shard first
 * (so ticks it first: every cross-cluster action commits before any
 * cluster runs), then one shard per cluster; see DESIGN.md, "The
 * kernel".
 */

#ifndef DDC_SIM_KERNEL_HH
#define DDC_SIM_KERNEL_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/recorder.hh"
#include "sim/clock.hh"
#include "sim/shard.hh"

namespace ddc {

/** How a bounded run ended. */
enum class RunStatus
{
    /** Every agent finished within the cycle budget. */
    Finished,
    /** The cycle budget elapsed first (deadlock or runaway scenario). */
    TimedOut,
};

/** Stable name of @p status ("finished" / "timed_out"). */
std::string_view toString(RunStatus status);

/**
 * The engine knobs a machine is built with: its fast paths and
 * observers.  None changes what a run does: counters, the execution
 * log and cycles are identical under any setting, and the JSON
 * differs only by the fields observation adds (DESIGN.md; pinned by
 * tests/invariance_test.cc).  Each machine config holds one
 * (SystemConfig::engine, hier::HierConfig::engine), and the machine
 * reads only that.
 */
struct EngineKnobs
{
    /**
     * Fast-forward run() across quiescent cycles (next-event time
     * advance); off is the cycle-by-cycle A/B baseline.
     */
    bool skip_quiescent = true;
    /**
     * Resolve bus broadcasts and supplier scans through each bus's
     * sharer index (O(holders) per transaction) instead of visiting
     * every attached client (O(PEs)); off is the A/B baseline.
     */
    bool snoop_filter = true;
    /**
     * Collect latency histograms (miss service, bus wait, retries,
     * lock acquisition, inter-write distance, directory service).
     */
    bool histograms = false;
    /** Snapshot counters every N cycles into a time series (0 = off). */
    Cycle sample_every = 0;

    friend bool operator==(const EngineKnobs &,
                           const EngineKnobs &) = default;
};

/**
 * The knobs every machine config starts from: a config's `engine`
 * member is initialized with a copy, so a field set in code wins.
 * parseSessionArgs sets them from --no-skip, --no-snoop-filter,
 * --histograms and --sample-every before any machine is built, which
 * covers machines built anywhere afterwards (custom experiment
 * points, runLockExperiment, google-benchmark loops).  Set them only
 * while no machine is being built: flag parsing, or a test between
 * runs.
 */
const EngineKnobs &engineDefaults();
void setEngineDefaults(const EngineKnobs &knobs);

/** The shared run-loop driver (see file comment). */
class Kernel
{
  public:
    /**
     * @param skip_quiescent Fast-forward run() across quiescent
     *        cycles (EngineKnobs::skip_quiescent).
     */
    Kernel(Clock &clock, bool skip_quiescent);

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Create the next shard, ticked after those created before it. */
    Shard &makeShard(std::size_t agent_slots);

    /** Quiesce-category trace buffer (may be null; off by default). */
    void setQuiesceSink(obs::TraceBuffer *sink) { quiesce = sink; }

    /** Counter sampler polled each loop iteration (may be null). */
    void setSampler(obs::CounterSampler *sampler) { this->sampler = sampler; }

    /**
     * Run until every shard is done or @p max_cycles elapse, then
     * flush accrued stalls so counters are readable.  The caller owns
     * warning/reporting on timeout.
     */
    RunStatus run(Cycle max_cycles);

    /** Advance exactly one cycle: shards in creation order, clock. */
    void tickOnce();

    /** True when every shard's agents have finished. */
    bool allDone() const;

    /**
     * Cycles run() fast-forwarded instead of ticking (0 with skipping
     * disabled); included in the clock advance.
     */
    Cycle skippedCycles() const { return skipped; }

    /** Flush every shard's accrued stall cycles (counter reads). */
    void flushStalls() const;

  private:
    /** Earliest next event across every shard (see Shard). */
    Cycle earliestNextEvent() const;

    /** Fast-forward @p count quiescent cycles on every shard. */
    void skipQuiescent(Cycle count);

    Clock &clock;
    bool skipping;
    std::vector<std::unique_ptr<Shard>> shards;
    Cycle skipped = 0;

    obs::TraceBuffer *quiesce = nullptr;
    obs::CounterSampler *sampler = nullptr;
};

} // namespace ddc

#endif // DDC_SIM_KERNEL_HH
