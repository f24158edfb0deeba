/**
 * @file
 * Ablation A6: bus arbitration policy (the paper's assumption 2 just
 * posits "a bus arbitrator"; this quantifies how much the choice
 * matters).  Round-robin, fixed-priority, and random arbitration are
 * compared on (a) lock fairness under contention — fixed priority
 * starves high-index PEs — and (b) throughput on a mixed workload —
 * where the policy barely matters because the protocols keep the bus
 * demand far below the hot-spot regime.
 */

#include "bench_common.hh"

#include <algorithm>
#include <iostream>

#include "stats/table.hh"
#include "sync/analysis.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const ArbiterKind kArbiters[] = {ArbiterKind::RoundRobin,
                                 ArbiterKind::FixedPriority,
                                 ArbiterKind::Random};

/** (a) One fairness point: TS contention run under @p kind. */
exp::RunResult
measureFairness(ArbiterKind kind)
{
    SystemConfig config;
    config.num_pes = 8;
    config.cache_lines = 256;
    config.protocol = ProtocolKind::Rb;
    config.arbiter = kind;
    config.record_log = true;

    System system(config);
    for (PeId pe = 0; pe < 8; pe++) {
        sync::LockProgramParams params;
        params.kind = sync::LockKind::TestAndSet;
        params.lock_addr = sync::lockAddr();
        params.counter_addr = sync::counterAddr();
        params.acquisitions = 8;
        params.cs_increments = 8;
        system.setProgram(pe, sync::makeLockProgram(params));
    }
    Cycle cycles = system.run();

    auto analysis = sync::analyzeLock(system.log(), sync::lockAddr(), 8);

    // Per-PE finish skew: cycle of each PE's last committed access.
    std::vector<Cycle> last_cycle(8, 0);
    for (const auto &entry : system.log().all()) {
        if (entry.pe >= 0 && entry.pe < 8)
            last_cycle[static_cast<std::size_t>(entry.pe)] = entry.cycle;
    }

    exp::RunResult result;
    result.cycles = cycles;
    result.bus_transactions = system.totalBusTransactions();
    result.setMetric("fairness_index", analysis.fairnessIndex());
    result.setMetric("first_pe_done",
                     static_cast<double>(*std::min_element(
                         last_cycle.begin(), last_cycle.end())));
    result.setMetric("last_pe_done",
                     static_cast<double>(*std::max_element(
                         last_cycle.begin(), last_cycle.end())));
    return result;
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A6: bus arbitration policy\n\n"
        "(a) Lock fairness: 8 PEs, TS spin lock on RB, 8 acquisitions\n"
        "wanted per PE; Jain fairness index of the per-PE acquisition\n"
        "counts over the first completed run.\n\n";

    exp::ParamGrid grid;
    {
        std::vector<std::string> names;
        for (auto kind : kArbiters)
            names.push_back(std::string(toString(kind)));
        grid.axis("arbiter", names);
    }

    exp::Experiment fairness_spec("ablation_arbitration_fairness",
                                  "A6a: TS lock fairness by bus "
                                  "arbitration policy");
    for (std::size_t flat = 0; flat < grid.size(); flat++) {
        auto kind = kArbiters[flat];
        fairness_spec.addCustom(grid.paramsAt(flat), [kind]() {
            return measureFairness(kind);
        });
    }
    const auto &fairness_results = session.run(fairness_spec);

    Table fairness;
    fairness.setHeader({"arbiter", "cycles", "fairness index",
                        "first PE done", "last PE done"});
    for (std::size_t i = 0; i < fairness_results.size(); i++) {
        const auto &result = fairness_results[i];
        fairness.addRow({std::string(toString(kArbiters[i])),
                         std::to_string(result.cycles),
                         Table::num(result.metric("fairness_index"), 3),
                         std::to_string(static_cast<Cycle>(
                             result.metric("first_pe_done"))),
                         std::to_string(static_cast<Cycle>(
                             result.metric("last_pe_done")))});
    }
    std::cout << fairness.render() << "\n";

    std::cout << "(b) Throughput on the Cm*-mix workload (16 PEs, RB):\n\n";

    exp::Experiment throughput_spec("ablation_arbitration_throughput",
                                    "A6b: Cm*-mix throughput by bus "
                                    "arbitration policy");
    throughput_spec.addGrid(grid, [](std::size_t flat) {
        exp::TraceRun run;
        run.config.num_pes = 16;
        run.config.cache_lines = 1024;
        run.config.protocol = ProtocolKind::Rb;
        run.config.arbiter = kArbiters[flat];
        run.trace = makeCmStarTrace(cmStarApplicationA(), 16, 4000, 3);
        return run;
    });
    const auto &throughput_results = session.run(throughput_spec);

    Table throughput;
    throughput.setHeader({"arbiter", "cycles", "bus utilization"});
    for (std::size_t i = 0; i < throughput_results.size(); i++) {
        const auto &result = throughput_results[i];
        throughput.addRow(
            {std::string(toString(kArbiters[i])),
             std::to_string(result.cycles),
             Table::num(static_cast<double>(result.bus_transactions) /
                            static_cast<double>(result.cycles), 3)});
    }
    std::cout << throughput.render() << "\n";
    std::cout <<
        "Expected shape: all runs complete (every acquisition count is\n"
        "8 - the programs run to completion, so 'starvation' appears as\n"
        "runtime skew, not lost acquisitions); fairness of the\n"
        "*interleaving* differs, and fixed priority lets low-index PEs\n"
        "finish far earlier.  Mixed-workload throughput is nearly\n"
        "arbiter-independent.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
