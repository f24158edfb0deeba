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
 * Every run, flat or hierarchical, goes through the experiment engine
 * (src/exp), so the engine flags --jobs N, --json PATH and --timing
 * work here exactly as in the bench binaries.  Run with --help for
 * the full option list.
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "base/types.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
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
        "  --jobs N         experiment-engine worker threads\n"
        "  --json PATH      write structured results as JSON\n"
        "  --timing         add each run's \"engine\" object to the\n"
        "                   JSON: wall clock, sim rate, skipped\n"
        "                   and parked cycles, snoop visits, filter\n"
        "                   fallbacks, directory table size (host-\n"
        "                   or knob-dependent values)\n"
        "  --profile        time the directory fabric's route and\n"
        "                   serve phases into the \"engine\" object's\n"
        "                   route_phase_ms / serve_phase_ms (with\n"
        "                   --timing)\n"
        "  --no-skip        disable quiescent-cycle skipping and\n"
        "                   cluster-bus NACK-repeat parking (A/B\n"
        "                   baseline; results are byte-identical, the\n"
        "                   run is just slower)\n"
        "  --no-snoop-filter  disable the sharer-indexed snoop filter\n"
        "                   (A/B baseline; results are byte-identical,\n"
        "                   only the engine object's snoop_visits\n"
        "                   moves)\n"
        "\n"
        "observability options:\n"
        "  --trace-out FILE  write a Chrome trace-event JSON of the run\n"
        "                   (load in Perfetto / chrome://tracing)\n"
        "  --trace-categories LIST\n"
        "                   comma-separated: bus,state,lock,miss,\n"
        "                   quiesce,dir or \"all\" (default all; needs\n"
        "                   --trace-out)\n"
        "  --histograms     collect latency histograms (miss service,\n"
        "                   bus wait, lock acquisition, ...) and emit\n"
        "                   them in the --json output\n"
        "  --sample-every N  sample counters every N cycles into a\n"
        "                   per-run time series in the --json output\n"
        "  --help           this text\n"
        "\n"
        "--no-skip, --no-snoop-filter, --histograms and --sample-every\n"
        "set the defaults that every machine built afterwards starts\n"
        "from; a machine config field set in code wins.\n";
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
    // The value of a numeric flag, parsed whole as a decimal integer
    // in [lo, hi]; nullopt (after an error message saying it needs
    // @p what) when it is missing or anything else.
    auto need_integer =
        [&](int &i, std::uint64_t lo, std::uint64_t hi,
            const char *what) -> std::optional<std::uint64_t> {
        const char *flag = argv[i];
        const char *value = need_value(i);
        if (value == nullptr)
            return std::nullopt;
        char *end = nullptr;
        errno = 0;
        unsigned long long parsed = std::strtoull(value, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
            *end != '\0' || errno == ERANGE || parsed < lo || parsed > hi) {
            std::cerr << "ddcsim: " << flag << " needs " << what
                      << ", got " << value << "\n";
            return std::nullopt;
        }
        return parsed;
    };
    // The value of a count flag, or 0 (after an error message) when
    // it is missing or not a positive integer.
    auto need_count = [&](int &i) -> long {
        return static_cast<long>(
            need_integer(i, 1, INT_MAX, "a positive count").value_or(0));
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
            auto latency =
                need_integer(i, 0, UINT64_MAX, "a cycle count >= 0");
            if (!latency)
                return false;
            options.config.memory_latency =
                static_cast<std::size_t>(*latency);
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
            auto k = need_integer(i, 1, 255, "an integer in [1, 255]");
            if (!k)
                return false;
            options.config.rwb_writes_to_local = static_cast<int>(*k);
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
            auto refs = need_integer(i, 1, UINT64_MAX, "a positive count");
            if (!refs)
                return false;
            options.refs = static_cast<std::size_t>(*refs);
        } else if (arg == "--seed") {
            auto seed = need_integer(i, 0, UINT64_MAX, "an unsigned integer");
            if (!seed)
                return false;
            options.seed = *seed;
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

    exp::Session session(session_options);
    exp::Experiment spec("ddcsim", "one CLI-configured trace run");
    const SystemConfig &machine = options.config;
    exp::TraceRun run;
    run.config = machine;
    run.trace = trace;
    run.check_consistency = options.check;
    exp::ParamList params{
        {"protocol", std::string(toString(machine.protocol))}};
    if (options.clusters > 0) {
        hier::HierConfig &config = run.hier.emplace();
        config.num_clusters = options.clusters;
        config.pes_per_cluster = machine.num_pes;
        config.cache_lines = machine.cache_lines;
        config.protocol = machine.protocol;
        config.rwb_writes_to_local = machine.rwb_writes_to_local;
        config.arbiter = machine.arbiter;
        config.global = options.global;
        config.home_nodes = options.homes;
        params.emplace_back("clusters", std::to_string(options.clusters));
        params.emplace_back("pes_per_cluster",
                            std::to_string(machine.num_pes));
        params.emplace_back("global", std::string(toString(options.global)));
        if (options.global == hier::GlobalKind::Directory)
            params.emplace_back("home_nodes", std::to_string(options.homes));
    } else {
        params.emplace_back("pes", std::to_string(machine.num_pes));
    }
    if (!options.workload.empty())
        params.emplace_back("workload", options.workload);
    spec.addRun(params, [run]() { return run; });
    const auto &result = session.run(spec)[0];

    if (run.hier) {
        std::cout << "hierarchical " << toString(machine.protocol) << ", "
                  << options.clusters << " clusters x " << machine.num_pes
                  << " PEs, " << machine.cache_lines << " L1 lines, global "
                  << toString(options.global);
        if (options.global == hier::GlobalKind::Directory)
            std::cout << " (" << options.homes << " homes)";
        std::cout << "\n"
                  << (result.status == RunStatus::Finished ? "completed"
                                                           : "TIMED OUT")
                  << " in " << result.cycles << " cycles; "
                  << result.bus_transactions << " global bus ops; "
                  << static_cast<std::uint64_t>(
                         result.metric("cluster_bus_ops"))
                  << " cluster bus ops\n";
    } else {
        std::cout << "protocol " << toString(machine.protocol) << ", "
                  << machine.num_pes << " PEs, " << machine.cache_lines
                  << " lines x " << machine.block_words << " words, "
                  << machine.num_buses << " bus(es)\n"
                  << describeResult(result) << "\n";
    }
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
