/**
 * @file
 * Array initialization (Section 5's motivating example for RWB):
 * each PE initializes a large shared array region, far bigger than
 * its cache.  RB pays two bus writes per element (write-through, then
 * write-back on eviction); RWB pays exactly one (First-write lines
 * are clean).
 *
 *   ./array_init
 */

#include <iostream>

#include "exp/runner.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

using namespace ddc;

int
main()
{
    std::cout << "=== Array initialization: RB vs RWB ===\n\n";

    const int num_pes = 4;
    const std::size_t cache_lines = 256;

    stats::Table table;
    table.setHeader({"elements/PE", "scheme", "bus writes", "write-backs",
                     "bus writes/element", "cycles"});

    for (std::uint64_t elements : {128u, 512u, 2048u}) {
        auto trace = makeArrayInitTrace(num_pes, elements);
        for (auto kind : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
            SystemConfig config;
            config.num_pes = num_pes;
            config.cache_lines = cache_lines;
            config.protocol = kind;
            auto run =
                exp::executeTraceRun({.config = config, .trace = trace});

            double per_element =
                static_cast<double>(run.counters.get("bus.write")) /
                static_cast<double>(num_pes * elements);
            table.addRow({std::to_string(elements),
                          std::string(toString(kind)),
                          std::to_string(run.counters.get("bus.write")),
                          std::to_string(
                              run.counters.get("cache.writeback")),
                          stats::Table::num(per_element, 2),
                          std::to_string(run.cycles)});
        }
        table.addSeparator();
    }
    std::cout << table.render() << "\n";
    std::cout
        << "With a " << cache_lines << "-line cache, RB converges to 2\n"
        << "bus writes per element as the array grows (every element is\n"
        << "eventually evicted from Local and written back), while RWB\n"
        << "stays at exactly 1: 'In RWB, there will be only one bus\n"
        << "write per item.' (Section 5)\n";
    return 0;
}
