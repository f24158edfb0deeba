#include "core/simulator.hh"

#include <sstream>

#include "verify/consistency.hh"

namespace ddc {

RunSummary
runTrace(SystemConfig config, const Trace &trace, bool check_consistency,
         Cycle max_cycles)
{
    if (check_consistency)
        config.record_log = true;
    if (config.num_pes < trace.numPes())
        config.num_pes = trace.numPes();

    System system(config);
    system.loadTrace(trace);

    RunSummary summary;
    summary.cycles = system.run(max_cycles);
    summary.skipped_cycles = system.skippedCycles();
    summary.status = system.runStatus();
    summary.completed = system.allDone();
    summary.total_refs = trace.totalRefs();
    summary.bus_transactions = system.totalBusTransactions();
    summary.counters = system.counters();

    if (summary.total_refs > 0) {
        summary.bus_per_ref =
            static_cast<double>(summary.bus_transactions) /
            static_cast<double>(summary.total_refs);
        // Every cache.* counter lives in the system's cache counter
        // set, so the handle-based sum equals the five prefix scans
        // the merged set used to pay for.
        summary.miss_ratio = static_cast<double>(system.missRefs()) /
                             static_cast<double>(summary.total_refs);
    }

    if (check_consistency) {
        auto report = checkSerialConsistency(system.log());
        summary.consistent = report.consistent;
    }
    return summary;
}

std::string
describe(const RunSummary &summary)
{
    std::ostringstream os;
    os << (summary.completed ? "completed" : "TIMED OUT") << " in "
       << summary.cycles << " cycles; " << summary.total_refs
       << " refs; " << summary.bus_transactions << " bus transactions ("
       << summary.bus_per_ref << " per ref); miss ratio "
       << summary.miss_ratio;
    if (!summary.consistent)
        os << "; INCONSISTENT";
    return os.str();
}

} // namespace ddc
