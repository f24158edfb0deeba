/**
 * @file
 * One-call facade over the full simulator stack.
 *
 * Most consumers (examples, benches, sweeps) want: build a machine,
 * run a trace, get the headline numbers.  These helpers package that,
 * optionally with the serial-consistency check enabled.
 */

#ifndef DDC_CORE_SIMULATOR_HH
#define DDC_CORE_SIMULATOR_HH

#include <string>

#include "sim/system.hh"
#include "stats/counter.hh"
#include "trace/trace.hh"

namespace ddc {

/** Headline results of one trace-driven run. */
struct RunSummary
{
    bool completed = false;
    /** Finished vs. timed out (== completed, as an explicit status). */
    RunStatus status = RunStatus::Finished;
    Cycle cycles = 0;
    /**
     * Of cycles, how many the run loop fast-forwarded across
     * quiescent intervals instead of ticking (see EngineKnobs::
     * skip_quiescent; 0 with skipping disabled).
     */
    Cycle skipped_cycles = 0;
    std::uint64_t total_refs = 0;
    std::uint64_t bus_transactions = 0;
    /** Bus transactions per memory reference. */
    double bus_per_ref = 0.0;
    /** Fraction of references needing the bus at issue time. */
    double miss_ratio = 0.0;
    /** Consistency verdict (true unless checking found a violation). */
    bool consistent = true;
    /** Full merged counter set. */
    stats::CounterSet counters;
};

/**
 * Run @p trace on a machine built from @p config.
 *
 * @param check_consistency Record the serial execution log and replay
 *        it through the consistency checker (slower; sets
 *        RunSummary::consistent).
 * @param max_cycles Cycle budget; exceeding it sets
 *        RunSummary::status to RunStatus::TimedOut.
 */
RunSummary runTrace(SystemConfig config, const Trace &trace,
                    bool check_consistency = false,
                    Cycle max_cycles = System::kDefaultMaxCycles);

/** One-line human summary of a RunSummary. */
std::string describe(const RunSummary &summary);

} // namespace ddc

#endif // DDC_CORE_SIMULATOR_HH
