#include "exp/session.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "base/logging.hh"
#include "obs/recorder.hh"
#include "obs/trace.hh"
#include "sim/system.hh"

namespace ddc {
namespace exp {

namespace {

/**
 * One engine flag: its spelling, whether it consumes a value, and how
 * it lands on SessionOptions (and any process-wide switch).  Adding a
 * flag is one entry here plus its SessionOptions field; the parse
 * loop, value handling, and error reporting are shared.
 */
struct FlagSpec
{
    const char *name;
    bool takes_value;
    /** Applies the flag; returns "" on success, else an error. */
    std::string (*apply)(SessionOptions &options, const char *value);
};

constexpr const char *kOk = "";

/**
 * @p value parsed whole as a decimal integer in [1, @p max], or 0
 * when it is anything else ("3x", "", "-2", out of range).
 */
long
positiveInteger(const char *value, long max)
{
    char *end = nullptr;
    errno = 0;
    long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE || parsed < 1 ||
        parsed > max)
        return 0;
    return parsed;
}

const FlagSpec kFlags[] = {
    {"--timing", false,
     [](SessionOptions &options, const char *) -> std::string {
         options.timing = true;
         return kOk;
     }},
    {"--no-skip", false,
     [](SessionOptions &options, const char *) -> std::string {
         options.no_skip = true;
         setQuiescentSkipEnabled(false);
         return kOk;
     }},
    {"--no-snoop-filter", false,
     [](SessionOptions &options, const char *) -> std::string {
         options.no_snoop_filter = true;
         setSnoopFilterEnabled(false);
         return kOk;
     }},
    {"--jobs", true,
     [](SessionOptions &options, const char *value) -> std::string {
         options.jobs = static_cast<int>(positiveInteger(value, INT_MAX));
         if (options.jobs < 1) {
             return "needs a positive integer, got " +
                    std::string(value);
         }
         return kOk;
     }},
    {"--json", true,
     [](SessionOptions &options, const char *value) -> std::string {
         options.json_path = value;
         return kOk;
     }},
    {"--trace-out", true,
     [](SessionOptions &options, const char *value) -> std::string {
         options.trace_out = value;
         return kOk;
     }},
    {"--trace-categories", true,
     [](SessionOptions &options, const char *value) -> std::string {
         std::string error;
         if (obs::parseCategories(value, &error) == 0)
             return "unknown category '" + error + "'";
         options.trace_categories = value;
         return kOk;
     }},
    {"--histograms", false,
     [](SessionOptions &options, const char *) -> std::string {
         options.histograms = true;
         obs::setHistogramsEnabled(true);
         return kOk;
     }},
    {"--sample-every", true,
     [](SessionOptions &options, const char *value) -> std::string {
         long interval = positiveInteger(value, LONG_MAX);
         if (interval < 1) {
             return "needs a positive cycle count, got " +
                    std::string(value);
         }
         options.sample_every = static_cast<Cycle>(interval);
         obs::setSampleInterval(options.sample_every);
         return kOk;
     }},
    {"--profile", false,
     [](SessionOptions &options, const char *) -> std::string {
         options.profile = true;
         obs::setPhaseProfilingEnabled(true);
         return kOk;
     }},
};

} // namespace

SessionOptions
parseSessionArgs(int &argc, char **argv)
{
    SessionOptions options;
    int out = 1;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const FlagSpec *spec = nullptr;
        for (const auto &flag : kFlags) {
            if (arg == flag.name) {
                spec = &flag;
                break;
            }
        }
        if (!spec) {
            argv[out++] = argv[i];
            continue;
        }
        const char *value = nullptr;
        if (spec->takes_value) {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": " << arg << " needs a value\n";
                std::exit(1);
            }
            value = argv[++i];
        }
        std::string error = spec->apply(options, value);
        if (!error.empty()) {
            std::cerr << argv[0] << ": " << arg << " " << error << "\n";
            std::exit(1);
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (!options.trace_out.empty()) {
        obs::setTraceOutput(options.trace_out,
                            obs::parseCategories(
                                options.trace_categories));
    }
    return options;
}

Session::Session(SessionOptions options) : opts(std::move(options)) {}

const std::vector<RunResult> &
Session::run(const Experiment &experiment)
{
    RunnerOptions runner;
    runner.jobs = opts.jobs;
    collected.push_back({experiment.name(), experiment.description(),
                         runExperiment(experiment, runner)});
    return collected.back().results;
}

Json
Session::toJson() const
{
    Json json = Json::object();
    json["schema"] = Json(std::int64_t{7});
    Json experiments = Json::array();
    for (const auto &entry : collected) {
        Json experiment = Json::object();
        experiment["name"] = Json(entry.name);
        experiment["description"] = Json(entry.description);
        Json runs = Json::array();
        for (const auto &result : entry.results)
            runs.push(result.toJson(opts.timing));
        experiment["runs"] = std::move(runs);
        experiments.push(std::move(experiment));
    }
    json["experiments"] = std::move(experiments);
    return json;
}

bool
Session::writeJson() const
{
    if (opts.json_path.empty())
        return true;
    std::ofstream out(opts.json_path);
    if (!out)
        return false;
    toJson().dump(out);
    out << "\n";
    return out.good();
}

} // namespace exp
} // namespace ddc
