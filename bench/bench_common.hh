/**
 * @file
 * Shared scaffolding for the reproduction benches.
 *
 * Every bench binary (a) runs its sweep points through the parallel
 * experiment engine (src/exp) and prints its paper table/figure
 * reproduction, (b) emits the structured results as JSON when --json
 * PATH is given, then (c) runs its google-benchmark timing sweeps.
 * The DDC_BENCH_MAIN macro wires that order up.
 *
 * Engine flags (parsed and stripped before google-benchmark sees
 * argv):
 *   --jobs N     run sweep points on N worker threads (default 1);
 *                output is byte-identical for every N
 *   --json PATH  write the collected results (conventionally
 *                results.json) after the reproduction
 *   --timing     add each run's "engine" object to the JSON: every
 *                host- or knob-dependent value (wall clock, sim
 *                rate, skipped cycles, snoop visits, ...); off by
 *                default, and the only key a comparison strips
 *   --no-skip    disable quiescent-cycle skipping (A/B baseline;
 *                tables and JSON are byte-identical with or without
 *                it, the run is just slower)
 *   --no-snoop-filter
 *                disable the snoop filter (A/B baseline,
 *                byte-identical like --no-skip)
 * plus the observability flags (--trace-out, --trace-categories,
 * --histograms, --sample-every, --profile); see exp/session.hh.
 * --no-skip, --no-snoop-filter, --histograms and --sample-every set
 * the engine defaults (EngineKnobs) that every machine built
 * afterwards starts from, custom points' machines included; a
 * config's engine field set in code wins.
 */

#ifndef DDC_BENCH_COMMON_HH
#define DDC_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <iostream>

#include "exp/session.hh"

/**
 * Print the reproduction through the experiment engine, emit JSON,
 * then run the registered benchmarks.  @p print_reproduction is a
 * callable taking (ddc::exp::Session &).
 */
#define DDC_BENCH_MAIN(print_reproduction)                                  \
    int                                                                     \
    main(int argc, char **argv)                                             \
    {                                                                       \
        auto options = ddc::exp::parseSessionArgs(argc, argv);              \
        ddc::exp::Session session(options);                                 \
        print_reproduction(session);                                        \
        std::cout.flush();                                                  \
        if (!session.writeJson()) {                                         \
            std::cerr << argv[0] << ": cannot write "                       \
                      << options.json_path << "\n";                         \
            return 1;                                                       \
        }                                                                   \
        benchmark::Initialize(&argc, argv);                                 \
        if (benchmark::ReportUnrecognizedArguments(argc, argv))             \
            return 1;                                                       \
        benchmark::RunSpecifiedBenchmarks();                                \
        benchmark::Shutdown();                                              \
        return 0;                                                           \
    }

#endif // DDC_BENCH_COMMON_HH
