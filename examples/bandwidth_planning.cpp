/**
 * @file
 * Bandwidth planning (Section 7): how many PEs can one shared bus
 * carry?  Combines the paper's analytic model SBB >= m*x/h with
 * measured saturation sweeps, and shows how address-interleaved
 * multiple buses push the knee out (Figure 7-1).
 *
 *   ./bandwidth_planning
 */

#include <iostream>

#include "exp/runner.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

using namespace ddc;

namespace {

struct Measurement
{
    double utilization;
    double per_pe_throughput;
};

Measurement
measure(int num_pes, int num_buses)
{
    auto trace = makeCmStarTrace(cmStarApplicationA(), num_pes, 3000, 11);
    SystemConfig config;
    config.num_pes = num_pes;
    config.cache_lines = 1024;
    config.protocol = ProtocolKind::Rb;
    config.num_buses = num_buses;
    auto run = exp::executeTraceRun({.config = config, .trace = trace});

    Measurement result;
    result.utilization = static_cast<double>(run.bus_transactions) /
                         static_cast<double>(run.cycles) / num_buses;
    result.per_pe_throughput = static_cast<double>(run.total_refs) /
                               static_cast<double>(run.cycles) /
                               num_pes;
    return result;
}

} // namespace

int
main()
{
    std::cout << "=== Shared-bus bandwidth planning (Section 7) ===\n\n";

    // The analytic rule of thumb.
    std::cout << "Analytic: SBB >= m * x / h.  The paper's example:\n"
              << "  miss ratio 1/h = 10%, m = 128 PEs, x = 1 MACS\n"
              << "  => SBB >= " << 128 * 0.10
              << " MACS of bus bandwidth.\n\n";

    // Measured saturation, 1 vs 2 vs 4 buses.
    stats::Table table("Measured (RB scheme, Cm*-mix workload): "
                       "avg bus utilization / per-PE refs per cycle");
    table.setHeader({"PEs", "1 bus", "", "2 buses", "", "4 buses", ""});
    table.addRow({"", "util", "refs/cyc/PE", "util", "refs/cyc/PE",
                  "util", "refs/cyc/PE"});
    table.addSeparator();
    for (int m : {2, 4, 8, 16, 32, 64}) {
        std::vector<std::string> row{std::to_string(m)};
        for (int buses : {1, 2, 4}) {
            auto point = measure(m, buses);
            row.push_back(stats::Table::num(point.utilization, 2));
            row.push_back(stats::Table::num(point.per_pe_throughput, 3));
        }
        table.addRow(row);
    }
    std::cout << table.render() << "\n";

    std::cout
        << "Reading the table: per-PE throughput is flat until the bus\n"
        << "saturates (utilization near 1), then halves with every\n"
        << "doubling of PEs.  Doubling the buses roughly doubles the\n"
        << "PE count at the knee -- the Figure 7-1 argument that '32 to\n"
        << "256 processors could be economically built' with a few\n"
        << "buses and these cache schemes.\n";
    return 0;
}
