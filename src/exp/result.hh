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

/**
 * How the engine ran one point, as opposed to what the simulated
 * machine did.  The rule: a value that depends on the host, or on a
 * knob that must not change results (quiescent skip, the snoop
 * filter, the global interconnect flavour, tracing, profiling), goes
 * here and nowhere else.  RunResult::toJson(true) (--timing) emits it
 * as one "engine" object; every other RunResult field is
 * deterministic and knob-invariant, so the default JSON stays
 * byte-identical across hosts, job counts and knob settings, and a
 * comparison strips exactly one key.
 */
struct EngineReport
{
    /** Host wall-clock time of the whole point (set by the runner). */
    double wall_time_ms = 0.0;
    /**
     * Of wall_time_ms, the simulation loop alone (System::run): no
     * trace materialization, machine construction or trace loading.
     * 0 for custom points, which have no trace-run breakdown.
     */
    double sim_time_ms = 0.0;
    /** Simulated cycles per second of sim_time_ms (else wall_time_ms). */
    double sim_cycles_per_sec = 0.0;
    /** Cycles the quiescent-skip engine fast-forwarded. */
    Cycle skipped_cycles = 0;
    /**
     * Bus broadcast visits + supplier polls (Bus::snoopVisits) on
     * every level; a directory global level counts its messages.
     */
    std::uint64_t snoop_visits = 0;
    /**
     * Of snoop_visits, the hierarchical machine's global level alone
     * (HierSystem::globalVisits); 0 on the flat machine.
     */
    std::uint64_t global_visits = 0;
    /** Buses that degraded to full snooping (Bus::snoopFilterFallbacks). */
    std::uint64_t snoop_filter_fallbacks = 0;
    /**
     * Bus cycles the hierarchical machine's cluster buses booked in
     * bulk while parked on repeated NACKs (HierSystem::parkedCycles);
     * 0 on the flat machine, under --no-skip and when observed.
     */
    std::uint64_t parked_cycles = 0;
    /** Blocks with directory state at the end; 0 on snooping runs. */
    std::uint64_t directory_blocks = 0;
    /** Highest directory/home-memory flat-map load factor reached. */
    double directory_max_load_factor = 0.0;
    /** Directory fabric route / serve wall ms (--profile; else 0). */
    double route_phase_ms = 0.0;
    double serve_phase_ms = 0.0;

    /**
     * Serialize every field, plus skip_fraction (skipped_cycles over
     * @p cycles, the run's simulated cycles).
     */
    Json toJson(Cycle cycles) const;

    /** Rebuild a report from Json emitted by toJson(). */
    static EngineReport fromJson(const Json &json);
};

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
    /** Host- and knob-dependent values; serialized only with timing. */
    EngineReport engine;
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
     * @param include_timing Also emit the "engine" object.
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
