/**
 * @file
 * ddcsim — command-line front end to the ddcache simulator.
 *
 * Runs a memory-reference trace (from a file or a built-in synthetic
 * workload) on a configured machine and reports the results:
 *
 *   ddcsim --workload producer_consumer --protocol RWB --pes 8 --check
 *   ddcsim --trace refs.ddct --protocol RB --lines 1024 --stats
 *   ddcsim --workload cmstar_a --save-trace refs.ddct
 *   ddcsim --workload cmstar_a --json results.json
 *
 * Flat-machine runs go through the experiment engine (src/exp), so
 * the engine flags --jobs N and --json PATH work here exactly as in
 * the bench binaries.  Run with --help for the full option list.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/types.hh"
#include "core/simulator.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
#include "verify/consistency.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

void
usage(std::ostream &os)
{
    os <<
        "usage: ddcsim [options] (--trace FILE | --workload NAME)\n"
        "\n"
        "machine options:\n"
        "  --protocol P     RB | RWB | WriteOnce | WriteThrough | CmStar\n"
        "                   (default RB; RB or RWB with --clusters)\n"
        "  --pes N          number of processing elements (default 4)\n"
        "  --lines N        cache lines per PE (default 1024)\n"
        "  --block W        words per cache block (default 1)\n"
        "  --ways N         set associativity (default 1)\n"
        "  --latency L      extra bus cycles per memory transaction\n"
        "                   (default 0, the paper's unified cycle)\n"
        "  --buses K        interleaved shared buses (default 1)\n"
        "                   (--block, --ways, --latency and --buses\n"
        "                   apply to the flat machine only)\n"
        "  --clusters C     run the two-level hierarchical machine\n"
        "                   (recursive RB) with C clusters of\n"
        "                   --pes PEs each\n"
        "  --global G       global interconnect of the hierarchical\n"
        "                   machine: snoop (default, one snooping\n"
        "                   bus) | directory (address-interleaved\n"
        "                   home nodes; scales past 64 clusters)\n"
        "  --homes H        home nodes of the directory fabric\n"
        "                   (default 1; needs --global directory)\n"
        "  --rwb-k K        RWB writes-to-local threshold (default 2)\n"
        "  --arbiter A      RoundRobin | FixedPriority | Random\n"
        "\n"
        "workload options:\n"
        "  --trace FILE     replay a ddctrace file\n"
        "  --workload NAME  random | array_init | producer_consumer |\n"
        "                   migratory | hot_spot | false_sharing |\n"
        "                   walk | cmstar_a | cmstar_b\n"
        "  --refs N         references per PE for synthetic workloads\n"
        "                   (default 10000)\n"
        "  --seed S         RNG seed (default 1)\n"
        "  --save-trace F   write the generated trace to F and exit\n"
        "\n"
        "output options:\n"
        "  --check          verify serial consistency (records the log)\n"
        "  --stats          dump all counters\n"
        "  --jobs N         experiment-engine worker threads (flat runs)\n"
        "  --json PATH      write structured results as JSON\n"
        "  --timing         include wall_time_ms / sim_time_ms /\n"
        "                   sim_cycles_per_sec / skipped_cycles /\n"
        "                   skip_fraction / snoop_visits in the JSON\n"
        "                   (host-dependent values)\n"
        "  --no-skip        disable quiescent-cycle skipping (A/B\n"
        "                   baseline; results are byte-identical, the\n"
        "                   run is just slower)\n"
        "  --no-snoop-filter  disable the sharer-indexed snoop filter\n"
        "                   (A/B baseline; results are byte-identical,\n"
        "                   only snoop_visits moves)\n"
        "\n"
        "observability options:\n"
        "  --trace-out FILE  write a Chrome trace-event JSON of the run\n"
        "                   (load in Perfetto / chrome://tracing)\n"
        "  --trace-categories LIST\n"
        "                   comma-separated: bus,state,lock,miss,quiesce\n"
        "                   or \"all\" (default all; needs --trace-out)\n"
        "  --histograms     collect latency histograms (miss service,\n"
        "                   bus wait, lock acquisition, ...) and emit\n"
        "                   them in the --json output\n"
        "  --sample-every N  sample counters every N cycles into a\n"
        "                   per-run time series in the --json output\n"
        "  --help           this text\n";
}

struct Options
{
    SystemConfig config;
    int clusters = 0; // > 0 selects the hierarchical machine
    hier::GlobalKind global = hier::GlobalKind::Snoop;
    int homes = 1;
    std::string trace_file;
    std::string workload;
    std::string save_trace;
    std::size_t refs = 10000;
    std::uint64_t seed = 1;
    bool check = false;
    bool dump_stats = false;
};

bool
parseArgs(int argc, char **argv, Options &options)
{
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "ddcsim: " << argv[i] << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };
    // The value of a count flag, or 0 (after an error message) when
    // it is missing or not a positive integer.
    auto need_count = [&](int &i) -> long {
        const char *flag = argv[i];
        const char *value = need_value(i);
        if (value == nullptr)
            return 0;
        char *end = nullptr;
        long count = std::strtol(value, &end, 10);
        if (end == value || *end != '\0' || count < 1) {
            std::cerr << "ddcsim: " << flag
                      << " needs a positive count, got " << value << "\n";
            return 0;
        }
        return count;
    };

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "--help") {
            usage(std::cout);
            std::exit(0);
        } else if (arg == "--check") {
            options.check = true;
        } else if (arg == "--stats") {
            options.dump_stats = true;
        } else if (arg == "--protocol") {
            if (!(value = need_value(i)))
                return false;
            options.config.protocol = parseProtocolKind(value);
        } else if (arg == "--pes") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.config.num_pes = static_cast<int>(count);
        } else if (arg == "--lines") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.config.cache_lines = static_cast<std::size_t>(count);
        } else if (arg == "--block") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.config.block_words = static_cast<std::size_t>(count);
        } else if (arg == "--ways") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.config.ways = static_cast<std::size_t>(count);
        } else if (arg == "--latency") {
            if (!(value = need_value(i)))
                return false;
            options.config.memory_latency =
                static_cast<std::size_t>(std::atoll(value));
        } else if (arg == "--buses") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.config.num_buses = static_cast<int>(count);
        } else if (arg == "--clusters") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.clusters = static_cast<int>(count);
        } else if (arg == "--global") {
            if (!(value = need_value(i)))
                return false;
            std::string name = value;
            if (name == "snoop") {
                options.global = hier::GlobalKind::Snoop;
            } else if (name == "directory") {
                options.global = hier::GlobalKind::Directory;
            } else {
                std::cerr << "ddcsim: unknown global interconnect "
                          << name << "\n";
                return false;
            }
        } else if (arg == "--homes") {
            long count = need_count(i);
            if (count == 0)
                return false;
            options.homes = static_cast<int>(count);
        } else if (arg == "--rwb-k") {
            if (!(value = need_value(i)))
                return false;
            options.config.rwb_writes_to_local = std::atoi(value);
        } else if (arg == "--arbiter") {
            if (!(value = need_value(i)))
                return false;
            std::string name = value;
            if (name == "RoundRobin") {
                options.config.arbiter = ArbiterKind::RoundRobin;
            } else if (name == "FixedPriority") {
                options.config.arbiter = ArbiterKind::FixedPriority;
            } else if (name == "Random") {
                options.config.arbiter = ArbiterKind::Random;
            } else {
                std::cerr << "ddcsim: unknown arbiter " << name << "\n";
                return false;
            }
        } else if (arg == "--trace") {
            if (!(value = need_value(i)))
                return false;
            options.trace_file = value;
        } else if (arg == "--workload") {
            if (!(value = need_value(i)))
                return false;
            options.workload = value;
        } else if (arg == "--refs") {
            if (!(value = need_value(i)))
                return false;
            options.refs = static_cast<std::size_t>(std::atoll(value));
        } else if (arg == "--seed") {
            if (!(value = need_value(i)))
                return false;
            options.seed = static_cast<std::uint64_t>(std::atoll(value));
        } else if (arg == "--save-trace") {
            if (!(value = need_value(i)))
                return false;
            options.save_trace = value;
        } else {
            std::cerr << "ddcsim: unknown option " << arg << "\n";
            return false;
        }
    }
    if (options.trace_file.empty() == options.workload.empty()) {
        std::cerr << "ddcsim: give exactly one of --trace / --workload\n";
        return false;
    }
    bool directory = options.global == hier::GlobalKind::Directory;
    if (options.clusters == 0) {
        if (directory || options.homes != 1) {
            std::cerr << "ddcsim: --global and --homes need --clusters\n";
            return false;
        }
        return true;
    }
    if (options.homes != 1 && !directory) {
        std::cerr << "ddcsim: --homes needs --global directory\n";
        return false;
    }
    // Options the hierarchical machine would silently ignore.
    const SystemConfig &config = options.config;
    const SystemConfig flat;
    const char *flat_only = nullptr;
    if (config.block_words != flat.block_words)
        flat_only = "--block";
    else if (config.ways != flat.ways)
        flat_only = "--ways";
    else if (config.memory_latency != flat.memory_latency)
        flat_only = "--latency";
    else if (config.num_buses != flat.num_buses)
        flat_only = "--buses";
    if (flat_only) {
        std::cerr << "ddcsim: " << flat_only
                  << " applies to the flat machine only, not with "
                     "--clusters\n";
        return false;
    }
    ProtocolKind protocol = config.protocol;
    if (protocol != ProtocolKind::Rb && protocol != ProtocolKind::Rwb) {
        std::cerr << "ddcsim: the hierarchical machine runs RB or RWB, "
                     "not " << toString(protocol) << "\n";
        return false;
    }
    return true;
}

bool
buildWorkload(const Options &options, Trace &trace)
{
    int pes = options.clusters > 0
                  ? options.clusters * options.config.num_pes
                  : options.config.num_pes;
    std::size_t refs = options.refs;
    const std::string &name = options.workload;

    if (name == "random") {
        trace = makeUniformRandomTrace(pes, refs, 64, 0.3, 0.05,
                                       options.seed);
    } else if (name == "array_init") {
        trace = makeArrayInitTrace(pes, refs);
    } else if (name == "producer_consumer") {
        trace = makeProducerConsumerTrace(pes, 16,
                                          static_cast<int>(refs / 64) + 1,
                                          2);
    } else if (name == "migratory") {
        trace = makeMigratoryTrace(pes, 8,
                                   static_cast<int>(refs / 16) + 1);
    } else if (name == "hot_spot") {
        trace = makeHotSpotTrace(pes, static_cast<int>(refs / 9) + 1, 8);
    } else if (name == "false_sharing") {
        trace = makeFalseSharingTrace(pes, static_cast<int>(refs / 2) + 1);
    } else if (name == "walk") {
        // Read-only private streaming that fits L1 after the cold
        // pass: the hit-dominated pattern.
        trace = makeSequentialWalkTrace(pes, 128,
                                        static_cast<int>(refs / 128) + 1,
                                        0);
    } else if (name == "cmstar_a") {
        trace = makeCmStarTrace(cmStarApplicationA(), pes, refs,
                                options.seed);
    } else if (name == "cmstar_b") {
        trace = makeCmStarTrace(cmStarApplicationB(), pes, refs,
                                options.seed);
    } else {
        std::cerr << "ddcsim: unknown workload " << name << "\n";
        return false;
    }
    return true;
}

/** The classic one-line run summary, rebuilt from a RunResult. */
std::string
describeResult(const exp::RunResult &result)
{
    bool completed = result.status == RunStatus::Finished;
    std::ostringstream os;
    os << (completed ? "completed" : "TIMED OUT") << " in "
       << result.cycles << " cycles; " << result.total_refs << " refs; "
       << result.bus_transactions << " bus transactions ("
       << result.metric("bus_per_ref") << " per ref); miss ratio "
       << result.metric("miss_ratio");
    if (!result.consistent)
        os << "; INCONSISTENT";
    return os.str();
}

/**
 * Structured results for a hierarchical run.  Every field is
 * deterministic unless --profile adds the host phase split.
 */
bool
writeHierJson(const std::string &path, const hier::HierConfig &config,
              const hier::HierSystem &system)
{
    exp::Json json = exp::Json::object();
    json["machine"] = exp::Json(std::string("hierarchical"));
    json["protocol"] =
        exp::Json(std::string(toString(config.protocol)));
    json["clusters"] =
        exp::Json(static_cast<std::uint64_t>(config.num_clusters));
    json["pes_per_cluster"] = exp::Json(
        static_cast<std::uint64_t>(config.pes_per_cluster));
    json["global"] = exp::Json(std::string(toString(config.global)));
    json["status"] = exp::Json(std::string(
        system.allDone() ? "finished" : "timed_out"));
    json["cycles"] =
        exp::Json(static_cast<std::uint64_t>(system.now()));
    json["global_bus_ops"] =
        exp::Json(system.globalBusTransactions());
    json["cluster_bus_ops"] =
        exp::Json(system.clusterBusTransactions());
    if (const auto *fabric = system.directoryFabric()) {
        json["home_nodes"] =
            exp::Json(static_cast<std::uint64_t>(config.home_nodes));
        double mean = fabric->meanHomeMessages();
        if (mean > 0.0) {
            json["hot_home_skew"] = exp::Json(
                static_cast<double>(fabric->maxHomeMessages()) / mean);
        }
    }
    if (auto *observability = system.observability()) {
        if (const auto *metrics = observability->metrics())
            json["histograms"] = exp::histogramsJson(*metrics);
        if (auto *sampler = observability->sampler())
            json["samples"] = exp::samplesJson(sampler->series());
        // Host-dependent by design; rides the --profile flag only, so
        // the default JSON stays host-invariant.
        const auto *profile = observability->profile();
        if (profile && system.directoryFabric()) {
            json["route_phase_ms"] = exp::Json(profile->fabric_route_ms);
            json["serve_phase_ms"] = exp::Json(profile->fabric_serve_ms);
        }
    }
    std::ofstream out(path);
    if (!out)
        return false;
    json.dump(out);
    out << "\n";
    return out.good();
}

} // namespace

int
main(int argc, char **argv)
{
    auto session_options = exp::parseSessionArgs(argc, argv);
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage(std::cerr);
        return 1;
    }

    Trace trace;
    if (!options.trace_file.empty()) {
        std::ifstream input(options.trace_file);
        if (!input || !trace.load(input)) {
            std::cerr << "ddcsim: cannot read trace " << options.trace_file
                      << "\n";
            return 1;
        }
    } else if (!buildWorkload(options, trace)) {
        return 1;
    }

    if (!options.save_trace.empty()) {
        std::ofstream output(options.save_trace);
        if (!output) {
            std::cerr << "ddcsim: cannot write " << options.save_trace
                      << "\n";
            return 1;
        }
        trace.save(output);
        std::cout << "wrote " << trace.totalRefs() << " refs ("
                  << trace.numPes() << " PEs) to " << options.save_trace
                  << "\n";
        return 0;
    }

    if (options.clusters > 0) {
        hier::HierConfig config;
        config.num_clusters = options.clusters;
        config.pes_per_cluster = options.config.num_pes;
        config.cache_lines = options.config.cache_lines;
        config.protocol = options.config.protocol;
        config.rwb_writes_to_local = options.config.rwb_writes_to_local;
        config.arbiter = options.config.arbiter;
        config.record_log = options.check;
        config.histograms = session_options.histograms;
        config.global = options.global;
        config.home_nodes = options.homes;

        hier::HierSystem system(config);
        system.loadTrace(trace);
        system.run();
        bool consistent = true;
        if (options.check)
            consistent = checkSerialConsistency(system.log()).consistent;

        std::cout << "hierarchical " << toString(config.protocol)
                  << ", " << options.clusters
                  << " clusters x " << config.pes_per_cluster << " PEs, "
                  << config.cache_lines << " L1 lines, global "
                  << toString(config.global);
        if (config.global == hier::GlobalKind::Directory)
            std::cout << " (" << config.home_nodes << " homes)";
        std::cout << "\n"
                  << (system.allDone() ? "completed" : "TIMED OUT")
                  << " in " << system.now() << " cycles; "
                  << system.globalBusTransactions()
                  << " global bus ops; " << system.clusterBusTransactions()
                  << " cluster bus ops\n";
        if (options.check) {
            std::cout << "serial consistency: "
                      << (consistent ? "OK" : "VIOLATED") << "\n";
        }
        if (options.dump_stats)
            std::cout << system.counters().report();
        if (!session_options.json_path.empty() &&
            !writeHierJson(session_options.json_path, config, system)) {
            std::cerr << "ddcsim: cannot write "
                      << session_options.json_path << "\n";
            return 1;
        }
        return (!system.allDone() || !consistent) ? 1 : 0;
    }

    exp::Session session(session_options);
    exp::Experiment spec("ddcsim", "one CLI-configured trace run");
    {
        SystemConfig config = options.config;
        bool check = options.check;
        exp::ParamList params{
            {"protocol", std::string(toString(config.protocol))},
            {"pes", std::to_string(config.num_pes)},
        };
        if (!options.workload.empty())
            params.emplace_back("workload", options.workload);
        spec.addRun(params, [config, trace, check]() {
            exp::TraceRun run;
            run.config = config;
            run.trace = trace;
            run.check_consistency = check;
            return run;
        });
    }
    const auto &result = session.run(spec)[0];

    std::cout << "protocol " << toString(options.config.protocol) << ", "
              << options.config.num_pes << " PEs, "
              << options.config.cache_lines << " lines x "
              << options.config.block_words << " words, "
              << options.config.num_buses << " bus(es)\n"
              << describeResult(result) << "\n";
    if (options.check) {
        std::cout << "serial consistency: "
                  << (result.consistent ? "OK" : "VIOLATED") << "\n";
    }
    if (options.dump_stats)
        std::cout << result.counters.report();
    if (!session.writeJson()) {
        std::cerr << "ddcsim: cannot write " << session_options.json_path
                  << "\n";
        return 1;
    }

    bool failed = result.status != RunStatus::Finished ||
                  (options.check && !result.consistent);
    return failed ? 1 : 0;
}
