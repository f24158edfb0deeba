#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "base/logging.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace exp {

namespace {

/**
 * Load @p run's trace on @p machine, run it and scrape what both
 * machines report alike.  The caller adds bus_transactions and the
 * standard metrics (see setBusTransactions) and its own extras.
 */
RunResult
runAndScrape(Multiprocessor &machine, const TraceRun &run)
{
    machine.loadTrace(run.trace);
    RunResult result;
    auto start = std::chrono::steady_clock::now();
    result.cycles = machine.run(run.max_cycles);
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    result.engine.sim_time_ms = elapsed.count();
    result.status = machine.runStatus();
    result.total_refs = run.trace.totalRefs();
    if (run.check_consistency)
        result.consistent = checkSerialConsistency(machine.log()).consistent;
    result.counters = machine.counters();
    result.engine.skipped_cycles = machine.skippedCycles();
    result.engine.snoop_visits = machine.snoopVisits();
    result.engine.snoop_filter_fallbacks = machine.snoopFilterFallbacks();
    if (auto *observability = machine.observability()) {
        if (auto *metrics = observability->metrics())
            result.histograms = histogramsJson(*metrics);
        auto *sampler = observability->sampler();
        if (sampler && !sampler->series().empty())
            result.samples = samplesJson(sampler->series());
    }
    return result;
}

/**
 * Set @p result's bus_transactions (the traffic that serializes the
 * whole machine) and the two metrics every trace run carries.
 */
void
setBusTransactions(RunResult &result, const Multiprocessor &machine,
                   std::uint64_t bus_transactions)
{
    result.bus_transactions = bus_transactions;
    double refs = static_cast<double>(result.total_refs);
    result.setMetric("bus_per_ref",
                     refs > 0 ? static_cast<double>(bus_transactions) / refs
                              : 0.0);
    result.setMetric("miss_ratio",
                     refs > 0 ? static_cast<double>(machine.missRefs()) /
                                    refs
                              : 0.0);
}

} // namespace

RunResult
executeTraceRun(const TraceRun &run,
                std::unique_ptr<Multiprocessor> *out_machine)
{
    RunResult result;
    std::unique_ptr<Multiprocessor> built;
    if (run.hier) {
        hier::HierConfig config = *run.hier;
        if (run.check_consistency)
            config.record_log = true;
        auto machine = std::make_unique<hier::HierSystem>(config);
        result = runAndScrape(*machine, run);
        setBusTransactions(result, *machine,
                           machine->globalBusTransactions());
        result.setMetric("cluster_bus_ops",
                         static_cast<double>(
                             machine->clusterBusTransactions()));
        result.engine.global_visits = machine->globalVisits();
        if (const auto *fabric = machine->directoryFabric()) {
            // Hot-home skew: peak over mean per-home message count
            // (1.0 = perfectly balanced).
            double mean = fabric->meanHomeMessages();
            if (mean > 0.0) {
                result.setMetric("hot_home_skew",
                                 static_cast<double>(
                                     fabric->maxHomeMessages()) /
                                     mean);
            }
            result.engine.directory_blocks = fabric->directoryBlocks();
            result.engine.directory_max_load_factor =
                fabric->maxLoadFactor();
            result.engine.route_phase_ms = fabric->routePhaseMs();
            result.engine.serve_phase_ms = fabric->servePhaseMs();
        }
        built = std::move(machine);
    } else {
        SystemConfig config = run.config;
        if (run.check_consistency)
            config.record_log = true;
        config.num_pes = std::max(config.num_pes, run.trace.numPes());
        auto machine = std::make_unique<System>(config);
        result = runAndScrape(*machine, run);
        setBusTransactions(result, *machine,
                           machine->totalBusTransactions());
        if (machine->numBuses() > 1) {
            for (int b = 0; b < machine->numBuses(); b++) {
                result.counters.add(
                    "bus" + std::to_string(b) + ".busy_cycles",
                    machine->busCounters(b).get("bus.busy_cycles"));
            }
        }
        built = std::move(machine);
    }
    if (out_machine != nullptr)
        *out_machine = std::move(built);
    return result;
}

std::vector<RunResult>
runExperiment(const Experiment &experiment, const RunnerOptions &options)
{
    const auto &points = experiment.points();
    std::vector<RunResult> results(points.size());

    auto execute = [&results, &points](std::size_t i) {
        const auto &point = points[i];
        auto start = std::chrono::steady_clock::now();
        RunResult result =
            point.make ? executeTraceRun(point.make()) : point.custom();
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        EngineReport &engine = result.engine;
        engine.wall_time_ms = elapsed.count();
        // Rate the simulation loop itself when the point reports a
        // breakdown; point setup (trace materialization, machine
        // construction) would otherwise dilute throughput ratios.
        double denom_ms = engine.sim_time_ms > 0.0 ? engine.sim_time_ms
                                                   : elapsed.count();
        if (denom_ms > 0.0) {
            engine.sim_cycles_per_sec =
                static_cast<double>(result.cycles) / (denom_ms / 1000.0);
        }
        result.index = i;
        result.params = point.params;
        results[i] = std::move(result);
    };

    ddc_assert(options.jobs >= 1, "need at least one worker");
    std::size_t jobs =
        std::min(static_cast<std::size_t>(options.jobs),
                 std::max<std::size_t>(points.size(), 1));

    if (jobs <= 1) {
        for (std::size_t i = 0; i < points.size(); i++)
            execute(i);
        return results;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; w++) {
        workers.emplace_back([&next, &points, &execute]() {
            for (std::size_t i; (i = next.fetch_add(1)) < points.size();)
                execute(i);
        });
    }
    for (auto &worker : workers)
        worker.join();
    return results;
}

} // namespace exp
} // namespace ddc
