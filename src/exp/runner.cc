#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "base/logging.hh"
#include "core/simulator.hh"

namespace ddc {
namespace exp {

RunResult
executeTraceRun(const TraceRun &run)
{
    auto summary = runTrace(run.config, run.trace, run.check_consistency,
                            run.max_cycles);

    RunResult result;
    result.status = summary.status;
    result.cycles = summary.cycles;
    result.engine.skipped_cycles = summary.skipped_cycles;
    result.engine.snoop_visits = summary.snoop_visits;
    result.engine.snoop_filter_fallbacks = summary.snoop_filter_fallbacks;
    result.engine.sim_time_ms = summary.sim_time_ms;
    result.total_refs = summary.total_refs;
    result.bus_transactions = summary.bus_transactions;
    result.consistent = summary.consistent;
    result.counters = summary.counters;
    if (summary.has_histograms)
        result.histograms = histogramsJson(summary.histograms);
    if (!summary.samples.empty())
        result.samples = samplesJson(summary.samples);
    result.setMetric("bus_per_ref", summary.bus_per_ref);
    result.setMetric("miss_ratio", summary.miss_ratio);
    if (summary.per_bus_busy_cycles.size() > 1) {
        for (std::size_t b = 0; b < summary.per_bus_busy_cycles.size();
             b++) {
            result.counters.add("bus" + std::to_string(b) +
                                    ".busy_cycles",
                                summary.per_bus_busy_cycles[b]);
        }
    }
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
