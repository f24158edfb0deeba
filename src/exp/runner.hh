/**
 * @file
 * Work-queue thread pool executing experiment points in parallel.
 *
 * Each worker thread owns the private System instances it builds
 * (nothing is shared between concurrent runs — per-instance RNGs,
 * clocks, and counter sets), so N independent sweep points run on N
 * cores.  Results are keyed by grid index: the returned vector is
 * identical for jobs = 1 and jobs = N, making parallel output
 * byte-for-byte reproducible.
 */

#ifndef DDC_EXP_RUNNER_HH
#define DDC_EXP_RUNNER_HH

#include <memory>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result.hh"

namespace ddc {
namespace exp {

/** How to execute an experiment. */
struct RunnerOptions
{
    /** Worker threads (1 = run inline on the calling thread). */
    int jobs = 1;
};

/**
 * Execute one trace run and scrape it into a RunResult.
 *
 * Thread-safe: builds a private machine, the flat System or (when
 * run.hier is set) the HierSystem.  Sets the standard derived metrics
 * (bus_per_ref, miss_ratio) over bus_transactions: every flat bus, or
 * the hierarchical global level.  Multi-bus flat machines add per-bus
 * "busK.busy_cycles" counters.  Hierarchical runs add the
 * cluster_bus_ops metric, engine.global_visits and, on the directory
 * fabric, the hot_home_skew metric and the engine's directory table
 * size and route/serve times.  @p out_machine optionally receives the
 * finished machine for further inspection (its log, trace sink or
 * fabric).
 */
RunResult executeTraceRun(const TraceRun &run,
                          std::unique_ptr<Multiprocessor> *out_machine =
                              nullptr);

/**
 * Run every point of @p experiment.
 * @return Results ordered by point index, independent of jobs.
 */
std::vector<RunResult> runExperiment(const Experiment &experiment,
                                     const RunnerOptions &options = {});

} // namespace exp
} // namespace ddc

#endif // DDC_EXP_RUNNER_HH
