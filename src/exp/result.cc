#include "exp/result.hh"

namespace ddc {
namespace exp {

void
RunResult::setMetric(const std::string &name, double value)
{
    for (auto &[metric_name, metric_value] : metrics) {
        if (metric_name == name) {
            metric_value = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

double
RunResult::metric(const std::string &name) const
{
    for (const auto &[metric_name, metric_value] : metrics) {
        if (metric_name == name)
            return metric_value;
    }
    return 0.0;
}

bool
RunResult::hasMetric(const std::string &name) const
{
    for (const auto &[metric_name, metric_value] : metrics) {
        if (metric_name == name)
            return true;
    }
    return false;
}

Json
EngineReport::toJson(Cycle cycles) const
{
    Json json = Json::object();
    json["wall_time_ms"] = Json(wall_time_ms);
    json["sim_time_ms"] = Json(sim_time_ms);
    json["sim_cycles_per_sec"] = Json(sim_cycles_per_sec);
    json["skipped_cycles"] =
        Json(static_cast<std::uint64_t>(skipped_cycles));
    json["skip_fraction"] =
        Json(cycles > 0 ? static_cast<double>(skipped_cycles) /
                              static_cast<double>(cycles)
                        : 0.0);
    json["snoop_visits"] = Json(snoop_visits);
    json["global_visits"] = Json(global_visits);
    json["parked_cycles"] = Json(parked_cycles);
    json["directory_blocks"] = Json(directory_blocks);
    json["directory_max_load_factor"] = Json(directory_max_load_factor);
    json["route_phase_ms"] = Json(route_phase_ms);
    json["serve_phase_ms"] = Json(serve_phase_ms);
    return json;
}

Json
RunResult::toJson(bool include_timing) const
{
    Json json = Json::object();
    json["index"] = Json(static_cast<std::int64_t>(index));

    Json params_json = Json::object();
    for (const auto &[name, value] : params)
        params_json[name] = Json(value);
    json["params"] = std::move(params_json);

    json["status"] = Json(toString(status));
    json["cycles"] = Json(static_cast<std::uint64_t>(cycles));
    json["total_refs"] = Json(total_refs);
    json["bus_transactions"] = Json(bus_transactions);
    json["consistent"] = Json(consistent);
    if (include_timing)
        json["engine"] = engine.toJson(cycles);

    Json metrics_json = Json::object();
    for (const auto &[name, value] : metrics)
        metrics_json[name] = Json(value);
    json["metrics"] = std::move(metrics_json);

    Json counters_json = Json::object();
    for (const auto &name : counters.names())
        counters_json[name] = Json(counters.get(name));
    json["counters"] = std::move(counters_json);

    if (!histograms.isNull())
        json["histograms"] = histograms;
    if (!samples.isNull())
        json["samples"] = samples;

    return json;
}

Json
histogramJson(const stats::Histogram &histogram)
{
    Json json = Json::object();
    json["count"] = Json(histogram.count());
    json["mean"] = Json(histogram.mean());
    json["min"] = Json(histogram.min());
    json["max"] = Json(histogram.max());
    json["p50"] = Json(histogram.percentile(0.50));
    json["p90"] = Json(histogram.percentile(0.90));
    json["p99"] = Json(histogram.percentile(0.99));
    json["bucket_width"] = Json(histogram.bucketWidth());
    Json buckets = Json::array();
    for (std::size_t i = 0; i < histogram.numBuckets(); i++) {
        if (histogram.bucketCount(i) == 0)
            continue;
        Json bucket = Json::array();
        bucket.push(Json(static_cast<std::uint64_t>(i) *
                         histogram.bucketWidth()));
        bucket.push(Json(histogram.bucketCount(i)));
        buckets.push(std::move(bucket));
    }
    json["buckets"] = std::move(buckets);
    return json;
}

Json
histogramsJson(const obs::RunMetrics &metrics)
{
    Json json = Json::object();
    json["miss_service"] = histogramJson(metrics.miss_service);
    json["bus_wait"] = histogramJson(metrics.bus_wait);
    json["miss_retries"] = histogramJson(metrics.miss_retries);
    json["lock_acquire"] = histogramJson(metrics.lock_acquire);
    json["lock_handoff"] = histogramJson(metrics.lock_handoff);
    json["write_gap"] = histogramJson(metrics.write_gap);
    json["home_service"] = histogramJson(metrics.home_service);
    json["acks_per_inval"] = histogramJson(metrics.acks_per_inval);
    json["dir_occupancy"] = histogramJson(metrics.dir_occupancy);
    return json;
}

Json
samplesJson(const obs::SampleSeries &series)
{
    Json json = Json::object();
    json["interval"] =
        Json(static_cast<std::uint64_t>(series.interval));
    Json columns = Json::array();
    for (const auto &name : series.columns)
        columns.push(Json(name));
    json["columns"] = std::move(columns);
    Json rows = Json::array();
    for (const auto &row : series.rows) {
        Json row_json = Json::array();
        row_json.push(Json(static_cast<std::uint64_t>(row.cycle)));
        for (std::uint64_t value : row.values)
            row_json.push(Json(value));
        rows.push(std::move(row_json));
    }
    json["rows"] = std::move(rows);
    return json;
}

} // namespace exp
} // namespace ddc
