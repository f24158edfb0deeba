/**
 * @file
 * Figure 6-2 reproduction: synchronization with Test-and-Test-and-Set
 * under the RB scheme — unsuccessful attempts spin in the caches and
 * generate no bus traffic.
 */

#include "bench_common.hh"

#include <iostream>
#include <sstream>

#include "sim/scenario.hh"
#include "stats/table.hh"

namespace {

using namespace ddc;

constexpr Addr S = 0;

/** Run the Figure 6-2 scenario and render its table. */
exp::RunResult
measure()
{
    using stats::Table;
    std::ostringstream os;

    os <<
        "Figure 6-2: synchronization with Test-and-Test-and-Set,\n"
        "RB scheme (three PEs, lock word S)\n\n";

    Scenario scenario(ProtocolKind::Rb, 3);
    Table table;
    table.setHeader({"P1 Cache", "P2 Cache", "Pm Cache", "S",
                     "Observation"});

    auto emit = [&](const std::string &what) {
        std::vector<std::string> row;
        for (PeId pe = 0; pe < 3; pe++) {
            LineState line = scenario.state(pe, S);
            std::string cell{toString(line)};
            cell += "(";
            cell += line.present() ? std::to_string(scenario.value(pe, S))
                                   : "-";
            cell += ")";
            row.push_back(cell);
        }
        row.push_back(std::to_string(scenario.memoryValue(S)));
        row.push_back(what);
        table.addRow(row);
    };

    for (PeId pe = 0; pe < 3; pe++)
        scenario.read(pe, S);
    emit("Initial state");

    // P2: test (cache hit, sees 0), then TS.
    scenario.read(1, S);
    scenario.testAndSet(1, S);
    emit("P2 locks S");

    // Others' first test refills every cache...
    scenario.read(0, S);
    scenario.read(2, S);
    // ...then the spins are pure cache hits.
    auto before = scenario.busTransactions();
    for (int spin = 0; spin < 32; spin++) {
        scenario.read(0, S);
        scenario.read(2, S);
    }
    auto spin_traffic = scenario.busTransactions() - before;
    emit("Others try to get S (No Bus Traffic) (Load from Caches)");

    scenario.write(1, S, 0);
    emit("P2 releases S");

    scenario.read(0, S);
    emit("A Bus Read to S");

    scenario.testAndSet(0, S);
    emit("P1 gets the S");

    scenario.read(1, S);
    scenario.read(2, S);
    emit("Others try to get S");

    os << table.render() << "\n";
    os << "64 spin reads while the lock was held generated "
       << spin_traffic << " bus transactions.\n"
       << "The TTS spin runs entirely inside the private caches;\n"
       << "only the release/re-acquire sequence touches the bus.\n\n";

    exp::RunResult result;
    result.rendered = os.str();
    result.bus_transactions = scenario.busTransactions();
    result.setMetric("spin_traffic",
                     static_cast<double>(spin_traffic));
    return result;
}

void
printReproduction(exp::Session &session)
{
    exp::Experiment spec("fig_6_2_tts_rb",
                         "Figure 6-2: Test-and-Test-and-Set on RB, "
                         "per-cache state table and spin bus traffic");
    spec.addCustom({{"lock", "TTS"}, {"scheme", "RB"}}, measure);
    const auto &results = session.run(spec);
    std::cout << results[0].rendered;
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
