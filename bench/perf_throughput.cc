/**
 * @file
 * Simulator throughput microbench: host wall-clock performance of the
 * simulator itself (simulated cycles/s and refs/s), not a paper
 * reproduction.  Two grids:
 *
 *  - trace replay: every protocol x PE count on the Cm* application
 *    mix (the paper's representative reference pattern);
 *  - snoop-filter PE scaling: the Cm* mix at P = 4..64 with the
 *    sharer-indexed snoop filter on vs off, with snoop-visit counts
 *    alongside the throughput (the filter makes broadcast and the
 *    supplier scan O(holders) instead of O(P), so the speedup grows
 *    with P; run with --no-snoop-filter to force every point to the
 *    full-scan baseline);
 *  - lock contention: TS vs TTS spin workloads (the hot-path
 *    stressor -- every spin exercises the bus arbitration and RMW
 *    machinery);
 *  - idle-heavy scenarios: the lock workloads under a memory-latency
 *    sweep, where PEs spend most cycles stalled behind multi-cycle
 *    transfers -- the regime the quiescent-skip engine collapses.
 *    Rows report the skipped-cycle fraction next to the throughput
 *    (run with --no-skip to measure the cycle-by-cycle baseline).
 *
 * Unlike the reproduction benches this binary's output is host-
 * dependent by design: it forces --timing on, so its JSON rows carry
 * an "engine" object (wall_time_ms, sim_cycles_per_sec, ...).
 * Methodology (EXPERIMENTS.md): measure on a Release build with
 * --jobs 1 so points never compete for cores.
 */

#include "bench_common.hh"

#include <iostream>
#include <iterator>

#include "core/simulator.hh"
#include "stats/table.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const int kPeCounts[] = {4, 16};
/** PE axis of the snoop-filter scaling family. */
const int kScalePeCounts[] = {4, 8, 16, 32, 64};
/** Timing reps per scaling point (the table keeps the best). */
constexpr std::size_t kScaleReps = 3;
const sync::LockKind kLocks[] = {sync::LockKind::TestAndSet,
                                 sync::LockKind::TestAndTestAndSet};
/** Memory-latency sweep of the idle-heavy scenario family. */
const std::size_t kIdleLatencies[] = {0, 16, 64};
constexpr std::size_t kRefsPerPe = 20000;

/** Mcycles/s (or Mrefs/s) with two decimals, "-" when unmeasured. */
std::string
perMega(double per_sec)
{
    if (per_sec <= 0.0)
        return "-";
    return stats::Table::num(per_sec / 1e6, 2);
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Perf: simulator throughput (host wall-clock; higher is\n"
        "better).  Numbers are machine-dependent -- compare only\n"
        "against the same host and build type.\n\n";

    auto kinds = allProtocolKinds();

    exp::ParamGrid trace_grid;
    {
        std::vector<std::string> protocols;
        for (auto kind : kinds)
            protocols.push_back(std::string(toString(kind)));
        trace_grid.axis("protocol", protocols);
        trace_grid.axis("pes", {"4", "16"});
    }

    exp::Experiment trace_spec(
        "perf_trace_throughput",
        "Simulator throughput on the Cm* application mix, by scheme "
        "and PE count");
    trace_spec.addGrid(trace_grid, [trace_grid, kinds](std::size_t flat) {
        auto indices = trace_grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.num_pes = kPeCounts[indices[1]];
        run.config.cache_lines = 256;
        run.config.protocol = kinds[indices[0]];
        run.trace = makeCmStarTrace(cmStarApplicationA(),
                                    kPeCounts[indices[1]], kRefsPerPe, 5);
        return run;
    });
    const auto &trace_results = session.run(trace_spec);

    Table trace_table("Trace replay: Cm* mix, 20000 refs/PE");
    trace_table.setHeader({"protocol", "PEs", "cycles", "wall ms",
                           "Mcycles/s", "Mrefs/s"});
    std::size_t flat = 0;
    for (auto kind : kinds) {
        for (int m : kPeCounts) {
            const auto &result = trace_results[flat++];
            const auto &engine = result.engine;
            double refs_per_sec =
                engine.wall_time_ms > 0.0
                    ? static_cast<double>(result.total_refs) /
                          (engine.wall_time_ms / 1000.0)
                    : 0.0;
            trace_table.addRow({std::string(toString(kind)),
                                std::to_string(m),
                                std::to_string(result.cycles),
                                Table::num(engine.wall_time_ms, 2),
                                perMega(engine.sim_cycles_per_sec),
                                perMega(refs_per_sec)});
        }
    }
    std::cout << trace_table.render() << "\n";

    exp::ParamGrid scale_grid;
    scale_grid.axis("pes", {"4", "8", "16", "32", "64"});
    scale_grid.axis("snoop_filter", {"on", "off"});
    // Every point runs kScaleReps times and the table keeps the best
    // rep per arm: single wall-clock samples on a shared host swing
    // by 10%+, and min-time is the standard noise-robust estimator.
    scale_grid.axis("rep", {"0", "1", "2"});

    // Traces are generated up front: point lambdas run inside the
    // timed region, and trace synthesis would dilute the on/off
    // wall-clock ratio this family exists to measure.
    std::vector<Trace> scale_traces;
    for (int m : kScalePeCounts) {
        scale_traces.push_back(
            makeCmStarTrace(cmStarApplicationA(), m, kRefsPerPe, 5));
    }

    exp::Experiment scale_spec(
        "perf_snoop_filter_scaling",
        "Simulator throughput vs PE count on the Cm* application mix "
        "(RWB), sharer-indexed snoop filter on vs off");
    scale_spec.addGrid(scale_grid,
                       [scale_grid, &scale_traces](std::size_t flat) {
        auto indices = scale_grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.num_pes = kScalePeCounts[indices[0]];
        run.config.cache_lines = 1024;
        run.config.protocol = ProtocolKind::Rwb;
        // Only ever off: --no-snoop-filter turns the "on" arm off too.
        if (indices[1] != 0)
            run.config.engine.snoop_filter = false;
        run.trace = scale_traces[indices[0]];
        return run;
    });
    const auto &scale_results = session.run(scale_spec);

    // Best rep (highest sim rate) of the arm starting at flat index
    // @p first; reps are the innermost axis, so they are contiguous.
    auto bestRep = [&scale_results](std::size_t first) -> const auto & {
        const auto *best = &scale_results[first];
        for (std::size_t r = 1; r < kScaleReps; r++) {
            const auto &rep = scale_results[first + r];
            if (rep.engine.sim_cycles_per_sec >
                best->engine.sim_cycles_per_sec)
                best = &rep;
        }
        return *best;
    };

    Table scale_table("Snoop-filter PE scaling: Cm* mix, RWB, "
                      "20000 refs/PE, best of 3 reps");
    scale_table.setHeader({"PEs", "cycles", "visits(on)", "visits(off)",
                           "Mcyc/s(on)", "Mcyc/s(off)", "speedup"});
    for (std::size_t i = 0; i < std::size(kScalePeCounts); i++) {
        const auto &on = bestRep(2 * kScaleReps * i);
        const auto &off = bestRep(2 * kScaleReps * i + kScaleReps);
        // Both arms simulate the same cycles, so the sim-rate ratio
        // is the sim-loop time ratio, undiluted by point setup.
        double speedup = off.engine.sim_cycles_per_sec > 0.0
                             ? on.engine.sim_cycles_per_sec /
                                   off.engine.sim_cycles_per_sec
                             : 0.0;
        scale_table.addRow({std::to_string(kScalePeCounts[i]),
                            std::to_string(on.cycles),
                            std::to_string(on.engine.snoop_visits),
                            std::to_string(off.engine.snoop_visits),
                            perMega(on.engine.sim_cycles_per_sec),
                            perMega(off.engine.sim_cycles_per_sec),
                            Table::num(speedup, 2)});
    }
    std::cout << scale_table.render() << "\n";

    exp::ParamGrid lock_grid;
    lock_grid.axis("lock", {"TS", "TTS"});
    lock_grid.axis("pes", {"4", "16"});

    exp::Experiment lock_spec(
        "perf_lock_throughput",
        "Simulator throughput on the TS vs TTS contention workload "
        "(RB, 8 acquisitions/PE, 8-increment critical sections)");
    for (std::size_t point = 0; point < lock_grid.size(); point++) {
        auto indices = lock_grid.indicesAt(point);
        auto lock = kLocks[indices[0]];
        int m = kPeCounts[indices[1]];
        lock_spec.addCustom(lock_grid.paramsAt(point), [m, lock]() {
            sync::LockExperimentConfig config;
            config.num_pes = m;
            config.lock = lock;
            config.protocol = ProtocolKind::Rb;
            config.acquisitions_per_pe = 8;
            config.cs_increments = 8;
            auto lock_result = sync::runLockExperiment(config);
            exp::RunResult result;
            result.cycles = lock_result.cycles;
            result.bus_transactions = lock_result.bus_transactions;
            return result;
        });
    }
    const auto &lock_results = session.run(lock_spec);

    Table lock_table("Lock contention: RB, 8 acquisitions/PE");
    lock_table.setHeader({"lock", "PEs", "cycles", "wall ms",
                          "Mcycles/s"});
    flat = 0;
    for (auto lock : kLocks) {
        for (int m : kPeCounts) {
            const auto &result = lock_results[flat++];
            lock_table.addRow({std::string(sync::toString(lock)),
                               std::to_string(m),
                               std::to_string(result.cycles),
                               Table::num(result.engine.wall_time_ms, 2),
                               perMega(result.engine.sim_cycles_per_sec)});
        }
    }
    std::cout << lock_table.render() << "\n";

    exp::ParamGrid idle_grid;
    idle_grid.axis("lock", {"TS", "TTS"});
    idle_grid.axis("latency", {"0", "16", "64"});

    exp::Experiment idle_spec(
        "perf_idle_throughput",
        "Simulator throughput on idle-heavy scenarios: the lock "
        "workloads under a memory-latency sweep (RB, 16 PEs, 32 "
        "acquisitions/PE); skip_fraction is the share of cycles the "
        "quiescent-skip engine fast-forwarded");
    for (std::size_t point = 0; point < idle_grid.size(); point++) {
        auto indices = idle_grid.indicesAt(point);
        auto lock = kLocks[indices[0]];
        std::size_t latency = kIdleLatencies[indices[1]];
        idle_spec.addCustom(idle_grid.paramsAt(point), [lock, latency]() {
            sync::LockExperimentConfig config;
            config.num_pes = 16;
            config.lock = lock;
            config.protocol = ProtocolKind::Rb;
            config.acquisitions_per_pe = 32;
            config.cs_increments = 8;
            config.memory_latency = latency;
            auto lock_result = sync::runLockExperiment(config);
            exp::RunResult result;
            result.cycles = lock_result.cycles;
            result.engine.skipped_cycles = lock_result.skipped_cycles;
            result.bus_transactions = lock_result.bus_transactions;
            return result;
        });
    }
    const auto &idle_results = session.run(idle_spec);

    Table idle_table("Idle-heavy: lock x memory latency, RB, 16 PEs");
    idle_table.setHeader({"lock", "latency", "cycles", "skip %",
                          "wall ms", "Mcycles/s"});
    flat = 0;
    for (auto lock : kLocks) {
        for (std::size_t latency : kIdleLatencies) {
            const auto &result = idle_results[flat++];
            double skip_pct =
                result.cycles > 0
                    ? 100.0 *
                          static_cast<double>(result.engine.skipped_cycles) /
                          static_cast<double>(result.cycles)
                    : 0.0;
            idle_table.addRow({std::string(sync::toString(lock)),
                               std::to_string(latency),
                               std::to_string(result.cycles),
                               Table::num(skip_pct, 1),
                               Table::num(result.engine.wall_time_ms, 2),
                               perMega(result.engine.sim_cycles_per_sec)});
        }
    }
    std::cout << idle_table.render() << "\n";
}

/** Simulated cycles per wall-clock second on the contention workload. */
void
BM_LockThroughput(benchmark::State &state)
{
    sync::LockExperimentConfig config;
    config.num_pes = static_cast<int>(state.range(0));
    config.lock = state.range(1) == 0 ? sync::LockKind::TestAndSet
                                      : sync::LockKind::TestAndTestAndSet;
    config.protocol = ProtocolKind::Rb;
    config.acquisitions_per_pe = 8;
    config.cs_increments = 8;
    double cycles = 0.0;
    for (auto _ : state) {
        auto result = sync::runLockExperiment(config);
        cycles += static_cast<double>(result.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(cycles, benchmark::Counter::kIsRate);
    state.SetLabel(std::string(sync::toString(config.lock)));
}
BENCHMARK(BM_LockThroughput)
    ->Args({16, 0})->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

/** Simulated cycles per wall-clock second on the Cm* trace replay. */
void
BM_TraceThroughput(benchmark::State &state)
{
    auto kinds = allProtocolKinds();
    auto kind = kinds[static_cast<std::size_t>(state.range(0))];
    auto trace = makeCmStarTrace(cmStarApplicationA(), 4, kRefsPerPe, 5);
    double cycles = 0.0;
    for (auto _ : state) {
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 256;
        config.protocol = kind;
        auto summary = runTrace(config, trace);
        cycles += static_cast<double>(summary.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(cycles, benchmark::Counter::kIsRate);
    state.SetLabel(std::string(toString(kind)));
}
BENCHMARK(BM_TraceThroughput)->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Not DDC_BENCH_MAIN: this bench measures the simulator itself, so it
// forces --timing on -- its JSON is host-dependent on purpose.
int
main(int argc, char **argv)
{
    auto options = ddc::exp::parseSessionArgs(argc, argv);
    options.timing = true;
    ddc::exp::Session session(options);
    printReproduction(session);
    std::cout.flush();
    if (!session.writeJson()) {
        std::cerr << argv[0] << ": cannot write " << options.json_path
                  << "\n";
        return 1;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
