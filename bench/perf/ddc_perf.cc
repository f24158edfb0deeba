/**
 * @file
 * Layer-attributed performance probe: one named workload, one rep,
 * one JSON line on stdout.
 *
 * Every workload runs the simulator's default machine knobs (one
 * worker lane, quiescent skip, snoop filter and lookahead on, no
 * observability), so the numbers measure what users get.  It times
 * each layer from outside, around its own calls into the public API:
 *
 *   trace.gen   the synthetic trace generator
 *   sim.build   the System / HierSystem constructor
 *   sim.load    loadTrace()
 *   kernel.run  run(), called in fixed slices of simulated cycles whose
 *               host times are reported one by one (slices_ms)
 *   verify.*    checkSerialConsistency / checkHierarchyInvariants
 *
 * and reads deterministic work counts from counters(), snoopVisits(),
 * globalVisits() and the DirectoryFabric accessors.  With --trace-out it
 * also turns on the simulator's existing phase profiling
 * (obs::setPhaseProfilingEnabled), records the spans above plus the
 * fabric's route/serve totals as children of kernel.run, and writes
 * them as a Chrome trace-event file (--trace-out).
 *
 * Usage:
 *   ddc_perf --workload NAME [--seed N] [--div D] [--check]
 *            [--trace-out PATH]
 *
 *   --div D           divide each workload's refs per PE by D
 *   --check           record the serial log and check the run (Section 4
 *                     consistency, plus the hierarchy invariants on the
 *                     trace's addresses for the two-level machines)
 *   --trace-out PATH  traced rep: profile and write the spans to PATH
 *
 * Exit status: 0 when the run finished and every check passed, 1 when
 * a check failed (the JSON line says why), 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/json.hh"
#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace {

using namespace ddc;
using HostClock = std::chrono::steady_clock;

/** Machine shape a workload runs on. */
enum class Shape
{
    Flat,
    HierSnoop,
    HierDirectory,
};

/** One named benchmark point (sizes are per PE, at --div 1). */
struct Workload
{
    std::string_view name;
    Shape shape;
    std::size_t refs_per_pe;
    /** Simulated cycles per timed slice of run(): ~10 ms of host time. */
    Cycle slice_cycles;
};

const Workload kWorkloads[] = {
    // The paper's machine and mix: flat RWB, 64 PEs, Cm* application A.
    {"flat_cmstar", Shape::Flat, 100'000, 5'000},
    // Private read-only streaming that fits L1 (16 x 4 PEs, snoop).
    {"hier_walk", Shape::HierSnoop, 100'000, 4'000},
    // Section 8 clustered sharing at 1024 PEs on the directory fabric.
    {"dir_clustered", Shape::HierDirectory, 2'000, 128},
    // One lock word: spin reads + TestAndSet, same 1024-PE machine.
    {"dir_hotspot", Shape::HierDirectory, 2'000, 256},
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    std::size_t div = 1;
    bool check = false;
    /** Non-empty: a traced rep writing its spans here. */
    std::string trace_out;
};

double
msBetween(HostClock::time_point from, HostClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

HostClock::duration
hostDuration(double ms)
{
    return std::chrono::duration_cast<HostClock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/** One timed interval; parent 0 means a root span. */
struct Span
{
    std::string name;
    HostClock::time_point start;
    HostClock::time_point end;
    int id;
    int parent;
};

/** In-memory span log, written out once as Chrome trace events. */
class SpanLog
{
  public:
    SpanLog() : origin(HostClock::now()) {}

    /** Record [start, end) under @p parent; returns the span id. */
    int
    add(std::string name, HostClock::time_point start,
        HostClock::time_point end, int parent = 0)
    {
        int id = static_cast<int>(spans.size()) + 1;
        spans.push_back({std::move(name), start, end, id, parent});
        return id;
    }

    /**
     * Write every span as an 'X' complete event on the Sim track,
     * sorted by start time (ties keep recording order, so a parent
     * precedes the children that start with it).
     */
    bool
    writeChrome(const std::string &path) const
    {
        std::vector<const Span *> order;
        for (const Span &span : spans)
            order.push_back(&span);
        std::stable_sort(order.begin(), order.end(),
                         [](const Span *a, const Span *b) {
                             return a->start < b->start;
                         });
        exp::Json events = exp::Json::array();
        exp::Json process = exp::Json::object();
        process["name"] = "process_name";
        process["ph"] = "M";
        process["pid"] = obs::kTrackSim;
        process["tid"] = 0;
        process["args"] = exp::Json::object();
        process["args"]["name"] = "ddc_perf";
        events.push(process);
        for (const Span *span : order) {
            exp::Json event = exp::Json::object();
            event["name"] = span->name;
            event["ph"] = "X";
            event["pid"] = obs::kTrackSim;
            event["tid"] = 0;
            event["ts"] = msBetween(origin, span->start) * 1e3;
            event["dur"] = msBetween(span->start, span->end) * 1e3;
            event["args"] = exp::Json::object();
            event["args"]["id"] = span->id;
            event["args"]["parent"] = span->parent;
            events.push(event);
        }
        exp::Json document = exp::Json::object();
        document["displayTimeUnit"] = "ms";
        document["traceEvents"] = events;
        std::ofstream out(path);
        document.dump(out);
        return static_cast<bool>(out);
    }

  private:
    HostClock::time_point origin;
    std::vector<Span> spans;
};

/** Trace of @p workload at @p refs_per_pe references per PE. */
Trace
makeTrace(const Workload &workload, std::size_t refs_per_pe,
          std::uint64_t seed)
{
    std::string_view name = workload.name;
    if (name == "flat_cmstar")
        return makeCmStarTrace(cmStarApplicationA(), 64, refs_per_pe, seed);
    if (name == "hier_walk") {
        // ddcsim's "walk" sizing: 128-word regions, refs/128 + 1 passes.
        return makeSequentialWalkTrace(
            64, 128, static_cast<int>(refs_per_pe / 128) + 1, 0);
    }
    if (name == "dir_clustered")
        return makeClusteredTrace(32, 32, refs_per_pe, 0.8, 0.3, seed);
    // dir_hotspot: ddcsim's "hot_spot" sizing, 8 spins per attempt.
    return makeHotSpotTrace(1024, static_cast<int>(refs_per_pe / 9) + 1, 8);
}

/** The machine under test: exactly one of flat / hier is set. */
struct Machine
{
    std::unique_ptr<System> flat;
    std::unique_ptr<hier::HierSystem> hier;
};

Machine
buildMachine(Shape shape, bool record_log)
{
    Machine machine;
    if (shape == Shape::Flat) {
        SystemConfig config;
        config.num_pes = 64;
        config.cache_lines = 1024;
        config.protocol = ProtocolKind::Rwb;
        config.record_log = record_log;
        machine.flat = std::make_unique<System>(config);
        return machine;
    }
    hier::HierConfig config;
    config.cache_lines = 1024;
    config.record_log = record_log;
    if (shape == Shape::HierSnoop) {
        config.num_clusters = 16;
        config.pes_per_cluster = 4;
    } else {
        config.num_clusters = 32;
        config.pes_per_cluster = 32;
        config.global = hier::GlobalKind::Directory;
        config.home_nodes = 8;
    }
    machine.hier = std::make_unique<hier::HierSystem>(config);
    return machine;
}

/** One full set-up: the trace plus the machine it is loaded into. */
struct Setup
{
    Trace trace;
    Machine machine;
    double gen_ms = 0.0;
    double build_ms = 0.0;
    double load_ms = 0.0;

    double totalMs() const { return gen_ms + build_ms + load_ms; }
};

Setup
setUp(const Options &options, SpanLog *spans)
{
    const Workload &workload = *options.workload;
    Setup setup;
    auto t0 = HostClock::now();
    setup.trace = makeTrace(workload,
                            std::max<std::size_t>(
                                workload.refs_per_pe / options.div, 1),
                            options.seed);
    auto t1 = HostClock::now();
    setup.machine = buildMachine(workload.shape, options.check);
    auto t2 = HostClock::now();
    if (setup.machine.flat)
        setup.machine.flat->loadTrace(setup.trace);
    else
        setup.machine.hier->loadTrace(setup.trace);
    auto t3 = HostClock::now();
    setup.gen_ms = msBetween(t0, t1);
    setup.build_ms = msBetween(t1, t2);
    setup.load_ms = msBetween(t2, t3);
    if (spans) {
        int root = spans->add("setup", t0, t3);
        spans->add("trace.gen", t0, t1, root);
        spans->add("sim.build", t1, t2, root);
        spans->add("sim.load", t2, t3, root);
    }
    return setup;
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** References that needed the bus at issue (System::missRefs). */
std::uint64_t
missRefs(const stats::CounterSet &counters)
{
    return counters.sumPrefix("cache.read_miss.") +
           counters.sumPrefix("cache.write_miss.") +
           counters.sumPrefix("cache.ts.") +
           counters.sumPrefix("cache.readlock.") +
           counters.sumPrefix("cache.writeunlock.");
}

/**
 * Deterministic per-layer counts of a finished run.  "bus" is the
 * snooping level PEs issue on (the flat buses, or the cluster buses);
 * "hier" and "dir" are the global level of the two-level machines.
 */
exp::Json
layerCounts(const Machine &machine, const stats::CounterSet &counters,
            double refs, double cycles)
{
    exp::Json layers = exp::Json::object();
    double bus_ops = 0.0, bus_busy = 0.0, bus_idle = 0.0;
    double local_visits = 0.0, global_ops = 0.0, global_visits = 0.0;
    if (machine.flat) {
        const System &system = *machine.flat;
        bus_ops = static_cast<double>(system.totalBusTransactions());
        for (int b = 0; b < system.numBuses(); b++) {
            bus_busy += static_cast<double>(
                system.busCounters(b).get("bus.busy_cycles"));
            bus_idle += static_cast<double>(
                system.busCounters(b).get("bus.idle_cycles"));
        }
        local_visits = static_cast<double>(system.snoopVisits());
    } else {
        const hier::HierSystem &system = *machine.hier;
        bus_ops = static_cast<double>(system.clusterBusTransactions());
        for (int c = 0; c < system.numClusters(); c++) {
            bus_busy += static_cast<double>(
                system.clusterCounters(c).get("bus.busy_cycles"));
            bus_idle += static_cast<double>(
                system.clusterCounters(c).get("bus.idle_cycles"));
        }
        global_ops = static_cast<double>(system.globalBusTransactions());
        global_visits = static_cast<double>(system.globalVisits());
        local_visits =
            static_cast<double>(system.snoopVisits()) - global_visits;
    }

    auto count = [&counters](std::string_view name) {
        return static_cast<double>(counters.get(name));
    };
    double misses = static_cast<double>(missRefs(counters));
    double rmw_success = count("bus.rmw_success");
    double rmw_fail = count("bus.rmw_fail");

    layers["trace.refs"] = refs;
    layers["pe.stall_per_ref"] = ratio(count("pe.stall_cycles"), refs);
    layers["cache.hit_ratio"] =
        ratio(count("cache.refs") - misses, count("cache.refs"));
    layers["cache.invalidated"] = count("cache.invalidated");
    layers["cache.snarf"] = count("cache.snarf");
    layers["cache.writeback"] = count("cache.writeback");
    layers["bus.ops"] = bus_ops;
    layers["bus.utilization"] = ratio(bus_busy, bus_busy + bus_idle);
    layers["bus.snoop_visits_per_op"] = ratio(local_visits, bus_ops);
    layers["bus.nack_ratio"] =
        ratio(count("bus.nack"), bus_ops + global_ops);
    layers["bus.rmw_success_ratio"] =
        ratio(rmw_success, rmw_success + rmw_fail);

    // Cluster-cache requests kept local vs sent to the global level
    // (hier.forward.<op>; the forward_* outcome counters lack the dot).
    double absorbed = count("hier.absorbed.read") +
                      count("hier.absorbed.write");
    double forwarded = static_cast<double>(
        counters.sumPrefix("hier.forward."));
    layers["hier.global_ops"] = global_ops;
    layers["hier.absorbed_ratio"] = ratio(absorbed, absorbed + forwarded);
    layers["hier.downward_broadcast"] = count("hier.downward_broadcast");
    layers["hier.global_visits_per_op"] = ratio(global_visits, global_ops);

    const dir::DirectoryFabric *fabric =
        machine.hier ? machine.hier->directoryFabric() : nullptr;
    layers["dir.msg.request"] = count("dir.msg.request");
    layers["dir.msg.inval"] = count("dir.msg.inval");
    layers["dir.msg.fwd"] = count("dir.msg.fwd");
    layers["dir.msg.update"] = count("dir.msg.update");
    layers["dir.hot_home_skew"] =
        fabric ? ratio(static_cast<double>(fabric->maxHomeMessages()),
                       fabric->meanHomeMessages())
               : 0.0;
    layers["dir.blocks"] =
        fabric ? static_cast<double>(fabric->directoryBlocks()) : 0.0;
    layers["dir.max_load_factor"] = fabric ? fabric->maxLoadFactor() : 0.0;

    double skipped = static_cast<double>(
        machine.flat ? machine.flat->skippedCycles()
                     : machine.hier->skippedCycles());
    layers["kernel.skip_frac"] = ratio(skipped, cycles);
    layers["kernel.lanes"] = machine.flat ? 1 : machine.hier->workerLanes();
    return layers;
}

/** Every distinct address the trace touches, ascending. */
std::vector<Addr>
traceAddrs(const Trace &trace)
{
    std::set<Addr> addrs;
    for (PeId pe = 0; pe < trace.numPes(); pe++) {
        for (const MemRef &ref : trace.stream(pe))
            addrs.insert(ref.addr);
    }
    return {addrs.begin(), addrs.end()};
}

/**
 * run() to completion in slices of @p slice_cycles, appending each
 * slice's host ms to @p slice_ms.  Slice i covers the same simulated
 * cycles in every rep, so the runner can compare reps slice by slice.
 * run() warns each time it stops at a slice's budget; std::cerr is
 * muted meanwhile, and a real timeout still shows in runStatus().
 * @return Cycles executed.
 */
Cycle
runSliced(Machine &machine, Cycle slice_cycles, std::vector<double> &slice_ms)
{
    std::streambuf *saved = std::cerr.rdbuf(nullptr);
    Cycle cycles = 0;
    RunStatus status;
    do {
        auto start = HostClock::now();
        cycles += machine.flat ? machine.flat->run(slice_cycles)
                               : machine.hier->run(slice_cycles);
        slice_ms.push_back(msBetween(start, HostClock::now()));
        status = machine.flat ? machine.flat->runStatus()
                              : machine.hier->runStatus();
    } while (status == RunStatus::TimedOut &&
             cycles < System::kDefaultMaxCycles);
    std::cerr.rdbuf(saved);
    return cycles;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
usage()
{
    std::cerr << "usage: ddc_perf --workload NAME [--seed N] [--div D] "
                 "[--check] [--trace-out PATH]\n"
                 "workloads:";
    for (const Workload &workload : kWorkloads)
        std::cerr << " " << workload.name;
    std::cerr << "\n";
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; i++) {
        std::string_view arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--check") {
            options.check = true;
        } else if (!has_value) {
            return false;
        } else if (arg == "--workload") {
            std::string_view name = argv[++i];
            for (const Workload &workload : kWorkloads) {
                if (workload.name == name)
                    options.workload = &workload;
            }
            if (!options.workload)
                return false;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--div") {
            long long div = std::atoll(argv[++i]);
            if (div < 1)
                return false;
            options.div = static_cast<std::size_t>(div);
        } else if (arg == "--trace-out") {
            options.trace_out = argv[++i];
        } else {
            return false;
        }
    }
    return options.workload != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }
    bool traced = !options.trace_out.empty();
    if (traced)
        obs::setPhaseProfilingEnabled(true);
    SpanLog spans;
    SpanLog *span_log = traced ? &spans : nullptr;

    Setup setup = setUp(options, span_log);
    Machine &machine = setup.machine;

    std::vector<double> slice_ms;
    auto run_start = HostClock::now();
    Cycle cycles =
        runSliced(machine, options.workload->slice_cycles, slice_ms);
    auto run_end = HostClock::now();
    double run_ms = msBetween(run_start, run_end);
    double rss_mb = peakRssMb();
    RunStatus status = machine.flat ? machine.flat->runStatus()
                                    : machine.hier->runStatus();

    obs::Recorder *recorder =
        machine.flat ? machine.flat->observability()
                     : machine.hier->observability();
    const dir::DirectoryFabric *fabric =
        machine.hier ? machine.hier->directoryFabric() : nullptr;
    double route_ms = fabric ? fabric->routePhaseMs() : 0.0;
    double serve_ms = fabric ? fabric->servePhaseMs() : 0.0;
    if (span_log) {
        int run = spans.add("kernel.run", run_start, run_end);
        if (fabric) {
            // The fabric accumulates route/serve totals, not intervals:
            // record them end to end from the start of kernel.run.
            auto route_end = run_start + hostDuration(route_ms);
            spans.add("dir.route", run_start, route_end, run);
            spans.add("dir.serve", route_end,
                      route_end + hostDuration(serve_ms), run);
        }
    }

    stats::CounterSet counters = machine.flat ? machine.flat->counters()
                                              : machine.hier->counters();
    double refs = static_cast<double>(setup.trace.totalRefs());
    std::uint64_t bus_ops =
        machine.flat ? machine.flat->totalBusTransactions()
                     : machine.hier->clusterBusTransactions() +
                           machine.hier->globalBusTransactions();

    // Failure reasons, first one wins.
    std::string reason;
    if (status != RunStatus::Finished)
        reason = "run " + std::string(toString(status));
    else if (counters.get("cache.refs") != setup.trace.totalRefs())
        reason = "executed " + std::to_string(counters.get("cache.refs")) +
                 " of " + std::to_string(setup.trace.totalRefs()) +
                 " trace references";

    double check_ms = 0.0;
    if (options.check && reason.empty()) {
        auto check_start = HostClock::now();
        const ExecutionLog &log = machine.flat ? machine.flat->log()
                                               : machine.hier->log();
        ConsistencyReport consistency = checkSerialConsistency(log);
        if (log.empty())
            reason = "empty execution log";
        else if (!consistency.consistent)
            reason = "serial consistency: " + consistency.first_error;
        if (reason.empty() && machine.hier) {
            hier::HierInvariantReport invariants =
                hier::checkHierarchyInvariants(*machine.hier,
                                               traceAddrs(setup.trace));
            if (!invariants.ok)
                reason = "hierarchy invariants: " + invariants.first_error;
        }
        auto check_end = HostClock::now();
        check_ms = msBetween(check_start, check_end);
        if (span_log)
            spans.add("verify.check", check_start, check_end);
    }

    if (span_log && !spans.writeChrome(options.trace_out)) {
        std::cerr << "ddc_perf: cannot write " << options.trace_out << "\n";
        return 1;
    }

    std::ostringstream fingerprint;
    fingerprint << cycles << ":" << bus_ops << ":" << std::hex
                << fnv1a(counters.report());

    exp::Json layers = layerCounts(machine, counters, refs,
                                    static_cast<double>(cycles));
    layers["trace.gen_ms"] = setup.gen_ms;
    layers["sim.build_ms"] = setup.build_ms;
    layers["sim.load_ms"] = setup.load_ms;
    layers["kernel.run_ms"] = run_ms;
    layers["kernel.ns_per_ref"] = ratio(run_ms * 1e6, refs);
    layers["kernel.barrier_ms"] = recorder && recorder->profile()
                                      ? recorder->profile()->kernel_barrier_ms
                                      : 0.0;
    layers["dir.route_ms"] = route_ms;
    layers["dir.serve_ms"] = serve_ms;
    double requests = static_cast<double>(counters.get("dir.msg.request"));
    layers["dir.route_ns_per_req"] = ratio(route_ms * 1e6, requests);
    layers["dir.serve_ns_per_req"] = ratio(serve_ms * 1e6, requests);
    layers["verify.check_ms"] = check_ms;

    exp::Json result = exp::Json::object();
    result["workload"] = options.workload->name;
    result["status"] = reason.empty() ? "ok" : "failed";
    result["reason"] = reason;
    result["fingerprint"] = fingerprint.str();
    result["setup_s"] = setup.totalMs() / 1e3;
    result["run_s"] = run_ms / 1e3;
    exp::Json slices = exp::Json::array();
    for (double ms : slice_ms)
        slices.push(ms);
    result["slices_ms"] = slices;
    result["sim_cycles"] = exp::Json(std::uint64_t{cycles});
    result["refs"] = refs;
    result["peak_rss_mb"] = rss_mb;
    result["layers"] = layers;
    std::cout << result.dump() << std::endl;
    return reason.empty() ? 0 : 1;
}
