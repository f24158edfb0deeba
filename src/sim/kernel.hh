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
 * Process-wide quiescent-skip switch, default on.  The --no-skip flag
 * clears it so every machine built afterwards — including ones buried
 * inside custom experiment points — runs cycle by cycle, without
 * threading a flag through each construction site.
 */
void setQuiescentSkipEnabled(bool enabled);
bool quiescentSkipEnabled();

/** Kernel tuning knobs (resolved by the owning machine's config). */
struct KernelConfig
{
    /**
     * Fast-forward run() across quiescent cycles (next-event time
     * advance).  Results are byte-identical either way; off is the
     * A/B-debugging baseline.  ANDed with the process-wide
     * setQuiescentSkipEnabled() switch (the --no-skip flag).
     */
    bool skip_quiescent = true;
};

/** The shared run-loop driver (see file comment). */
class Kernel
{
  public:
    Kernel(Clock &clock, const KernelConfig &config);

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
    KernelConfig config;
    std::vector<std::unique_ptr<Shard>> shards;
    Cycle skipped = 0;

    obs::TraceBuffer *quiesce = nullptr;
    obs::CounterSampler *sampler = nullptr;
};

} // namespace ddc

#endif // DDC_SIM_KERNEL_HH
