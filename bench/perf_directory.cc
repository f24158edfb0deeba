/**
 * @file
 * Global-interconnect scaling bench: snooping bus vs directory fabric
 * on the hierarchical machine from 64 to 8192 PEs, not a paper
 * reproduction.
 *
 * One family: the Section 8 clustered workload replayed on machines
 * of 2, 8, 32, 128, and 256 clusters x 32 PEs, once with the snooping
 * global bus (--global snoop) and once with the directory fabric
 * (--global directory, homes scaling with the cluster count).  Both
 * arms of a point replay the identical trace; the 256-cluster
 * (8192-PE) point runs directory-only — its snooping arm would be
 * O(clusters) per broadcast and minutes of wall clock for a number
 * the 128-cluster row already demonstrates.  Three effects drive the
 * crossover the table shows:
 *
 *  - sim cycles: the snooping bus grants once per cycle machine-wide,
 *    the fabric once per home per cycle, so directory-mode runs
 *    finish in far fewer simulated cycles at scale;
 *  - global visits: a snoop broadcast costs O(clusters) per
 *    transaction (cluster caches are never sharer-indexed on the
 *    global bus), a directory transaction O(sharers);
 *  - host wall clock: both of the above are host work, so the wall
 *    clock follows.  The route/serve columns split the fabric's own
 *    tick cost (DirectoryFabric phase timing) out of the wall clock.
 *
 * At 2 clusters the directory runs with one home and is byte-
 * identical to the snooping bus by contract (cycles and txns equal in
 * the table); the win appears as the cluster count grows.
 *
 * Like perf_throughput this binary's output is host-dependent by
 * design: it forces --timing on.  Methodology (EXPERIMENTS.md):
 * measure on a Release build with --jobs 1.
 */

#include "bench_common.hh"

#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

constexpr int kPesPerCluster = 32;

/** One cluster-count point of the sweep. */
struct Point
{
    int clusters;
    /** Whether the snooping arm runs (off at the largest scale). */
    bool snoop_arm;
};

const Point kPoints[] = {
    {2, true}, {8, true}, {32, true}, {128, true}, {256, false},
};

/** Timing reps per point (the table keeps the best). */
constexpr std::size_t kReps = 2;
constexpr std::size_t kRefsPerPe = 200;
constexpr double kClusterLocalFraction = 0.8;
constexpr double kWriteFraction = 0.3;

/** Home nodes for a cluster count (1 at the equivalence point). */
int
homesFor(int clusters)
{
    return clusters >= 4 ? clusters / 4 : 1;
}

std::string
perMega(double per_sec)
{
    if (per_sec <= 0.0)
        return "-";
    return stats::Table::num(per_sec / 1e6, 2);
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Perf: global interconnect at scale -- snooping bus vs\n"
        "directory fabric on the hierarchical machine (32 PEs per\n"
        "cluster, Section 8 clustered workload, identical traces per\n"
        "point; the 8192-PE point is directory-only).  Wall-clock,\n"
        "route and serve columns are machine-dependent; cycle, visit\n"
        "and table columns are deterministic.\n\n";

    // Traces are generated up front: point lambdas run inside the
    // timed region.
    std::vector<Trace> traces;
    for (const Point &point : kPoints) {
        traces.push_back(makeClusteredTrace(
            point.clusters, kPesPerCluster, kRefsPerPe,
            kClusterLocalFraction, kWriteFraction, 7));
    }

    exp::Experiment spec(
        "perf_directory_scaling",
        "Snooping global bus vs directory home nodes, 64 to 8192 PEs "
        "(2..256 clusters x 32 PEs) on the clustered workload; "
        "directory arms use clusters/4 home nodes (1 at 2 clusters, "
        "where the two modes are byte-identical by contract); the "
        "256-cluster point runs the directory arm only");

    /** Flat result index where each (point, mode) arm's reps start. */
    std::vector<std::size_t> armFirst;
    std::size_t next = 0;
    for (std::size_t p = 0; p < std::size(kPoints); p++) {
        const Point &point = kPoints[p];
        const Trace &trace = traces[p];
        for (int mode = 0; mode < 2; mode++) {
            bool directory = mode == 1;
            if (!directory && !point.snoop_arm) {
                armFirst.push_back(static_cast<std::size_t>(-1));
                continue;
            }
            armFirst.push_back(next);
            for (std::size_t rep = 0; rep < kReps; rep++) {
                exp::ParamList params = {
                    {"clusters", std::to_string(point.clusters)},
                    {"global", directory ? "directory" : "snoop"},
                    {"rep", std::to_string(rep)},
                };
                exp::TraceRun run;
                hier::HierConfig &config = run.hier.emplace();
                config.num_clusters = point.clusters;
                config.pes_per_cluster = kPesPerCluster;
                config.cache_lines = 256;
                config.protocol = ProtocolKind::Rb;
                if (directory) {
                    config.global = hier::GlobalKind::Directory;
                    config.home_nodes = homesFor(point.clusters);
                }
                run.trace = trace;
                spec.addRun(params, [run]() { return run; });
                next++;
            }
        }
    }
    const auto &results = session.run(spec);

    // Best rep (highest sim rate) of the arm starting at flat index
    // @p first; reps are contiguous by construction.
    auto bestRep = [&results](std::size_t first) -> const auto & {
        const auto *best = &results[first];
        for (std::size_t r = 1; r < kReps; r++) {
            const auto &rep = results[first + r];
            if (rep.engine.sim_cycles_per_sec >
                best->engine.sim_cycles_per_sec)
                best = &rep;
        }
        return *best;
    };

    Table table("Global interconnect scaling: clustered workload, RB, "
                "32 PEs/cluster, 200 refs/PE, best of 2 reps");
    table.setHeader({"PEs", "global", "homes", "cycles", "global txns",
                     "global visits", "visits/txn", "wall ms",
                     "route ms", "serve ms", "dir blocks", "max LF",
                     "Mcycles/s"});
    for (std::size_t p = 0; p < std::size(kPoints); p++) {
        const Point &point = kPoints[p];
        for (int mode = 0; mode < 2; mode++) {
            std::size_t first = armFirst[p * 2 +
                                         static_cast<std::size_t>(mode)];
            if (first == static_cast<std::size_t>(-1))
                continue;
            const auto &best = bestRep(first);
            const auto &engine = best.engine;
            bool directory = mode == 1;
            double per_txn =
                best.bus_transactions > 0
                    ? static_cast<double>(engine.global_visits) /
                          static_cast<double>(best.bus_transactions)
                    : 0.0;
            table.addRow(
                {std::to_string(point.clusters * kPesPerCluster),
                 directory ? "directory" : "snoop",
                 directory ? std::to_string(homesFor(point.clusters))
                           : "-",
                 std::to_string(best.cycles),
                 std::to_string(best.bus_transactions),
                 std::to_string(engine.global_visits),
                 Table::num(per_txn, 1),
                 Table::num(engine.wall_time_ms, 2),
                 directory ? Table::num(engine.route_phase_ms, 2) : "-",
                 directory ? Table::num(engine.serve_phase_ms, 2) : "-",
                 directory ? std::to_string(engine.directory_blocks)
                           : "-",
                 directory
                     ? Table::num(engine.directory_max_load_factor, 2)
                     : "-",
                 perMega(engine.sim_cycles_per_sec)});
        }
    }
    std::cout << table.render() << "\n";
}

} // namespace

// Not DDC_BENCH_MAIN: this bench measures the simulator itself, so it
// forces --timing on -- its JSON is host-dependent on purpose.
int
main(int argc, char **argv)
{
    auto options = ddc::bench::parseBenchArgs(argc, argv);
    options.timing = true;
    // The route/serve phase-split columns come from the fabric's
    // profile; force it on like --timing -- this bench's output is
    // host-dependent on purpose.
    ddc::obs::setPhaseProfilingEnabled(true);
    return ddc::bench::runBench(argv[0], options, printReproduction);
}
