/**
 * @file
 * Extension E1: the hierarchical machine (Section 8's "how to extend
 * our scheme to hierarchical structures more amiable to large scale
 * parallel processing", implemented as recursive RB in src/hier).
 *
 * We run the same clustered-sharing workload on (a) the flat
 * single-bus machine and (b) the hierarchical machine, sweeping the
 * fraction of references that are cluster-local.  The metric that
 * decides scalability is the traffic on the *bottleneck* bus: the one
 * bus of the flat machine vs the global bus of the hierarchy.  The
 * more locality, the more the cluster caches absorb, pushing the
 * saturation knee out — the paper's motivation for hierarchy.
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const double kLocalities[] = {0.0, 0.5, 0.9, 0.99};

/** The flat single-bus machine on @p trace. */
exp::TraceRun
flatRun(const Trace &trace)
{
    exp::TraceRun run;
    run.config.num_pes = trace.numPes();
    run.config.cache_lines = 256;
    run.config.protocol = ProtocolKind::Rb;
    run.trace = trace;
    return run;
}

/** The hierarchical machine on @p trace. */
exp::TraceRun
hierRun(const Trace &trace, int clusters, int pes_per_cluster,
        ProtocolKind protocol = ProtocolKind::Rb)
{
    exp::TraceRun run;
    hier::HierConfig &config = run.hier.emplace();
    config.num_clusters = clusters;
    config.pes_per_cluster = pes_per_cluster;
    config.cache_lines = 256;
    config.protocol = protocol;
    run.trace = trace;
    return run;
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    const int clusters = 8;
    const int pes_per_cluster = 4;
    const std::size_t refs = 2000;

    std::cout <<
        "Extension E1: hierarchical machine (recursive RB), " << clusters
        << " clusters x " << pes_per_cluster << " PEs = "
        << clusters * pes_per_cluster << " PEs total\n"
        "Same workload on the flat single-bus machine vs the two-level\n"
        "hierarchy, sweeping the cluster-locality of shared data.\n\n";

    exp::ParamGrid grid;
    grid.axis("locality", {"0.00", "0.50", "0.90", "0.99"});
    grid.axis("machine", {"flat", "hier"});

    exp::Experiment sweep_spec("extension_hierarchy_locality",
                               "E1: flat vs hierarchical machine over "
                               "cluster-locality of shared data");
    for (std::size_t flat = 0; flat < grid.size(); flat++) {
        auto indices = grid.indicesAt(flat);
        double locality = kLocalities[indices[0]];
        bool hierarchical = indices[1] == 1;
        sweep_spec.addRun(grid.paramsAt(flat), [=]() {
            auto trace = makeClusteredTrace(clusters, pes_per_cluster,
                                            refs, locality, 0.3, 77);
            return hierarchical ? hierRun(trace, clusters,
                                          pes_per_cluster)
                                : flatRun(trace);
        });
    }
    const auto &sweep = session.run(sweep_spec);

    Table table;
    table.setHeader({"cluster-local", "flat cycles", "flat bus ops",
                     "hier cycles", "global bus ops", "cluster bus ops",
                     "global reduction"});
    for (std::size_t i = 0; i < 4; i++) {
        const auto &flat_run = sweep[i * 2];
        const auto &hier_run = sweep[i * 2 + 1];
        auto flat_ops = flat_run.bus_transactions;
        auto global_ops = hier_run.bus_transactions;
        table.addRow(
            {Table::num(kLocalities[i], 2),
             std::to_string(flat_run.cycles), std::to_string(flat_ops),
             std::to_string(hier_run.cycles),
             std::to_string(global_ops),
             std::to_string(static_cast<std::uint64_t>(
                 hier_run.metric("cluster_bus_ops"))),
             Table::num(static_cast<double>(flat_ops) /
                            static_cast<double>(global_ops),
                        1) +
                 "x"});
    }
    std::cout << table.render();

    // The L1 scheme inside the clusters: RB vs RWB.
    exp::ParamGrid l1_grid;
    l1_grid.axis("l1_scheme", {"RB", "RWB"});
    exp::Experiment l1_spec("extension_hierarchy_l1_scheme",
                            "E1: L1 scheme within clusters on the "
                            "0.9-local workload");
    const ProtocolKind l1_kinds[] = {ProtocolKind::Rb, ProtocolKind::Rwb};
    for (std::size_t flat = 0; flat < l1_grid.size(); flat++) {
        auto protocol = l1_kinds[flat];
        l1_spec.addRun(l1_grid.paramsAt(flat), [=]() {
            auto trace = makeClusteredTrace(clusters, pes_per_cluster,
                                            refs, 0.9, 0.3, 77);
            return hierRun(trace, clusters, pes_per_cluster, protocol);
        });
    }
    const auto &l1_results = session.run(l1_spec);

    Table schemes("\nL1 scheme within clusters (0.9 cluster-local "
                  "workload)");
    schemes.setHeader({"L1 scheme", "cycles", "global bus ops",
                       "cluster bus ops"});
    for (std::size_t i = 0; i < l1_results.size(); i++) {
        const auto &point = l1_results[i];
        schemes.addRow({std::string(toString(l1_kinds[i])),
                        std::to_string(point.cycles),
                        std::to_string(point.bus_transactions),
                        std::to_string(static_cast<std::uint64_t>(
                            point.metric("cluster_bus_ops")))});
    }
    std::cout << schemes.render();
    std::cout <<
        "\nReading: the flat machine funnels every transaction through\n"
        "one bus; the hierarchy serializes only cross-cluster events\n"
        "globally.  As cluster locality grows, the global-bus demand\n"
        "collapses (the 'global reduction' column) and the hierarchy\n"
        "finishes sooner despite its extra level - the scaling path\n"
        "Section 8 asks for.  Consistency is checked by the same serial\n"
        "checker as the flat machine (tests/hier_test.cc).\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
