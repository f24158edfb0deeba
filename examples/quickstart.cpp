/**
 * @file
 * Quickstart: build a 4-PE shared-bus machine with the RB scheme,
 * watch the dynamic classification of one shared variable, run a
 * random workload with the consistency checker on, and print the
 * statistics.
 *
 *   ./quickstart
 */

#include <iostream>

#include "exp/runner.hh"
#include "sim/scenario.hh"
#include "trace/synthetic.hh"

using namespace ddc;

int
main()
{
    std::cout << "=== ddcache quickstart ===\n\n";

    // --- 1. Watch one variable change configuration dynamically. ----
    std::cout << "1. Dynamic classification of a shared variable X\n"
              << "   (RB scheme, 3 PEs; the row shows each cache's\n"
              << "   state(value) for X and the memory value)\n\n";

    Scenario scenario(ProtocolKind::Rb, 3);
    const Addr X = 42;

    scenario.read(0, X);
    scenario.read(1, X);
    std::cout << "   PE0 and PE1 read X        -> " << scenario.row(X)
              << "   (shared configuration)\n";

    scenario.write(2, X, 7);
    std::cout << "   PE2 writes X = 7          -> " << scenario.row(X)
              << "   (local to PE2)\n";

    scenario.write(2, X, 8);
    std::cout << "   PE2 writes X = 8 again    -> " << scenario.row(X)
              << "   (no bus traffic!)\n";

    Word seen = scenario.read(0, X);
    std::cout << "   PE0 reads X (gets " << seen << ")     -> "
              << scenario.row(X)
              << "   (owner supplied, back to shared)\n\n";

    // --- 2. Run a whole workload with consistency checking. ---------
    std::cout << "2. Random 4-PE workload, serial-consistency checked\n\n";

    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 256;
    config.protocol = ProtocolKind::Rb;

    auto trace = makeUniformRandomTrace(/*num_pes=*/4, /*refs_per_pe=*/5000,
                                        /*footprint=*/64,
                                        /*write_fraction=*/0.3,
                                        /*ts_fraction=*/0.05, /*seed=*/1);
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});

    std::cout << "   " << result.cycles << " cycles; "
              << result.metric("bus_per_ref")
              << " bus operations per reference\n"
              << "   every read observed the latest write: "
              << (result.consistent ? "yes" : "NO - BUG") << "\n\n";

    // --- 3. Compare the schemes on the same workload. ----------------
    std::cout << "3. Same workload under every scheme "
              << "(bus transactions per reference)\n\n";
    for (auto kind : allProtocolKinds()) {
        config.protocol = kind;
        auto run = exp::executeTraceRun({.config = config, .trace = trace});
        std::cout << "   " << toString(kind) << ": "
                  << run.metric("bus_per_ref") << "\n";
    }
    std::cout << "\nDone. See examples/spinlock_contention.cpp, "
              << "examples/array_init.cpp,\nexamples/producer_consumer.cpp "
              << "and examples/bandwidth_planning.cpp for the\n"
              << "domain scenarios from the paper.\n";
    return 0;
}
