/**
 * @file
 * Ready-made synchronization experiments (Section 6's hot-spot study).
 */

#ifndef DDC_SYNC_WORKLOAD_HH
#define DDC_SYNC_WORKLOAD_HH

#include <cstdint>

#include "core/factory.hh"
#include "obs/metrics.hh"
#include "sim/system.hh"
#include "sync/programs.hh"

namespace ddc {
namespace sync {

/** Configuration of a lock-contention experiment. */
struct LockExperimentConfig
{
    int num_pes = 4;
    LockKind lock = LockKind::TestAndTestAndSet;
    ProtocolKind protocol = ProtocolKind::Rb;
    int acquisitions_per_pe = 8;
    int cs_increments = 4;
    int local_work = 0;
    std::size_t cache_lines = 256;
    /**
     * Extra bus-occupancy cycles per memory-touching transaction
     * (SystemConfig::memory_latency; 0 = the paper's unified cycle).
     * Raising it makes the workload idle-heavy: PEs spend most cycles
     * stalled behind multi-cycle transfers, the regime the quiescent-
     * skip engine collapses.
     */
    std::size_t memory_latency = 0;
    bool record_log = false;
    /**
     * Collect latency histograms for this run (lock acquisition,
     * handoff, miss service, ...); surfaced in
     * LockExperimentResult::metrics.  Only ever turns them on: the
     * System's engine knobs otherwise come from engineDefaults()
     * (--histograms).
     */
    bool histograms = false;
};

/** Measured outcome of a lock-contention experiment. */
struct LockExperimentResult
{
    Cycle cycles = 0;
    /** Of cycles, how many run() fast-forwarded (quiescent skip). */
    Cycle skipped_cycles = 0;
    std::uint64_t bus_transactions = 0;
    std::uint64_t rmw_attempts = 0;
    std::uint64_t rmw_failures = 0;
    /** Final value of the shared counter (mutual-exclusion witness). */
    Word counter_value = 0;
    /** Expected counter value with correct mutual exclusion. */
    Word expected_counter = 0;
    /** Bus transactions per successful acquisition. */
    double bus_per_acquisition = 0.0;
    bool completed = false;
    /** True when the run collected latency histograms. */
    bool has_metrics = false;
    /** Latency histograms (valid when has_metrics). */
    obs::RunMetrics metrics;
};

/** Word address of the lock used by runLockExperiment. */
Addr lockAddr();

/** Word address of the shared counter used by runLockExperiment. */
Addr counterAddr();

/**
 * Run an M-PE critical-section contention experiment and return the
 * measured traffic.  @p out_system optionally receives the finished
 * System for further inspection (e.g. consistency checks).
 */
LockExperimentResult runLockExperiment(const LockExperimentConfig &config,
                                       std::unique_ptr<System> *out_system =
                                           nullptr);

/**
 * Run an N-PE barrier for @p iterations episodes; returns the cycle
 * count, or 0 when the barrier failed to complete (deadlock).
 */
Cycle runBarrierExperiment(int num_pes, int iterations,
                           ProtocolKind protocol);

} // namespace sync
} // namespace ddc

#endif // DDC_SYNC_WORKLOAD_HH
