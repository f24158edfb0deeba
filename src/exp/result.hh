/**
 * @file
 * Structured per-run results for the experiment engine.
 *
 * A RunResult is everything one sweep point produced: the run status
 * (finished vs. timed out — a deadlocked point is reported, never
 * silently passed off as a datapoint), headline numbers, derived
 * metrics, the full counter set, and an optional pre-rendered text
 * block for scenario-style figures.  Results serialize to JSON and
 * back so parallel sweeps can be archived and compared byte-for-byte.
 */

#ifndef DDC_EXP_RESULT_HH
#define DDC_EXP_RESULT_HH

#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "exp/json.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/system.hh"
#include "stats/counter.hh"
#include "stats/histogram.hh"

namespace ddc {
namespace exp {

/** Ordered (name, value) labels identifying one grid point. */
using ParamList = std::vector<std::pair<std::string, std::string>>;

/** Everything one experiment point produced. */
struct RunResult
{
    /** Grid index; results are always ordered by it. */
    std::size_t index = 0;
    /** The parameter labels of this point. */
    ParamList params;
    /** Finished, or hit the cycle limit (surfaced, never swallowed). */
    RunStatus status = RunStatus::Finished;
    Cycle cycles = 0;
    std::uint64_t total_refs = 0;
    std::uint64_t bus_transactions = 0;
    /** Serial-consistency verdict (true unless checking failed). */
    bool consistent = true;
    /**
     * Host wall-clock time this point took to execute (measured by
     * the runner).  Machine-dependent by nature, so it is serialized
     * only when toJson(true) is requested (--timing): the default
     * JSON stays byte-identical across hosts, runs, and job counts.
     */
    double wall_time_ms = 0.0;
    /**
     * Of wall_time_ms, the milliseconds spent inside the simulation
     * loop proper (System::run) — excluding trace materialization,
     * machine construction, and trace loading.  0 for custom points,
     * which have no trace-run breakdown.  Serialized only with
     * toJson(true), like wall_time_ms.
     */
    double sim_time_ms = 0.0;
    /**
     * Simulated cycles per second of simulation-loop time
     * (sim_time_ms when available, else wall_time_ms), so engine
     * throughput comparisons are not diluted by per-point setup.
     */
    double sim_cycles_per_sec = 0.0;
    /**
     * Of cycles, how many the run loop fast-forwarded across
     * quiescent intervals (next-event time advance).  Deterministic,
     * but serialized only with toJson(true) alongside the timing
     * fields: it describes how the engine spent its host time, and
     * gating it keeps the default JSON byte-identical to runs with
     * skipping disabled (whose skipped count is 0 by construction).
     */
    Cycle skipped_cycles = 0;
    /**
     * Bus broadcast visits + supplier polls the run performed (see
     * Bus::snoopVisits).  Deterministic, but a function of the snoop
     * filter setting, so — like skipped_cycles — it is serialized
     * only with toJson(true): the default JSON stays byte-identical
     * filter-on vs filter-off.
     */
    std::uint64_t snoop_visits = 0;
    /**
     * Times any bus of the run degraded from sharer-indexed to full
     * snooping (see Bus::snoopFilterFallbacks).  0 on a healthy
     * filtered run; serialized only with toJson(true), like
     * snoop_visits, so the default JSON stays byte-identical
     * filter-on vs filter-off.
     */
    std::uint64_t snoop_filter_fallbacks = 0;
    /**
     * Blocks with directory state at the end of a directory-mode run
     * (DirectoryFabric::directoryBlocks); 0 on snooping runs.
     * Deterministic, but — like snoop_visits — a function of the
     * interconnect flavour, so it is serialized only with
     * toJson(true): the default JSON stays byte-identical snoop vs
     * directory at matched configurations.
     */
    std::uint64_t directory_blocks = 0;
    /**
     * Highest load factor any directory/home-memory flat map reached
     * during a directory-mode run (DirectoryFabric::maxLoadFactor);
     * 0 on snooping runs.  Table-health diagnostic; timing-gated like
     * directory_blocks.
     */
    double directory_max_load_factor = 0.0;
    /** Ordered derived metrics (bus_per_ref, miss_ratio, ...). */
    std::vector<std::pair<std::string, double>> metrics;
    /** Full merged counter set of the run. */
    stats::CounterSet counters;
    /**
     * Latency-distribution summary (histogramsJson) when the run was
     * collected with --histograms; Null otherwise and then omitted
     * from the serialized object, so runs without the flag keep the
     * pre-histogram byte-identical JSON.
     */
    Json histograms;
    /** Counter time series (samplesJson); Null unless --sample-every. */
    Json samples;
    /**
     * Presentation text produced by custom points (scenario figures);
     * printed verbatim by the bench, not serialized to JSON.
     */
    std::string rendered;

    /** Set (or overwrite) derived metric @p name. */
    void setMetric(const std::string &name, double value);

    /** Value of metric @p name (0.0 when absent). */
    double metric(const std::string &name) const;

    /** True when metric @p name was set. */
    bool hasMetric(const std::string &name) const;

    /**
     * Serialize to a JSON object (everything except `rendered`).
     * @param include_timing Also emit wall_time_ms /
     *        sim_cycles_per_sec (non-deterministic host measurements).
     */
    Json toJson(bool include_timing = false) const;

    /** Rebuild a result from Json emitted by toJson(). */
    static RunResult fromJson(const Json &json);
};

/**
 * Serialize one histogram as {count, mean, min, max, p50, p90, p99,
 * bucket_width, buckets: [[lo, count], ...]} (non-empty buckets only;
 * the overflow bucket's lo is num_buckets * bucket_width).
 */
Json histogramJson(const stats::Histogram &histogram);

/** Serialize a RunMetrics bundle, one histogramJson per entry. */
Json histogramsJson(const obs::RunMetrics &metrics);

/**
 * Serialize a sample series as {interval, columns: [...],
 * rows: [[cycle, v0, v1, ...], ...]} (cumulative counter values).
 */
Json samplesJson(const obs::SampleSeries &series);

} // namespace exp
} // namespace ddc

#endif // DDC_EXP_RESULT_HH
