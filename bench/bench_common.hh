/**
 * @file
 * Shared scaffolding for the reproduction benches.
 *
 * Every bench binary (a) runs its sweep points through the parallel
 * experiment engine (src/exp) and prints its paper table/figure
 * reproduction, then (b) emits the structured results as JSON when
 * --json PATH is given.  The DDC_BENCH_MAIN macro wires that order up.
 *
 * Engine flags (the only arguments a bench takes; anything else exits
 * 1, naming it, before the bench runs):
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

#include <cstdlib>
#include <iostream>

#include "exp/session.hh"

namespace ddc {
namespace bench {

/**
 * Parse the engine flags out of argv and exit 1, naming the first
 * argument left over, when anything else was given.
 */
inline exp::SessionOptions
parseBenchArgs(int argc, char **argv)
{
    auto options = exp::parseSessionArgs(argc, argv);
    if (argc > 1) {
        std::cerr << argv[0] << ": unknown argument '" << argv[1]
                  << "'\n";
        std::exit(1);
    }
    return options;
}

/**
 * Print the reproduction through a session built from @p options,
 * then write its JSON.  @p print_reproduction is a callable taking
 * (exp::Session &).
 * @return main's exit status.
 */
template <typename Print>
int
runBench(const char *argv0, const exp::SessionOptions &options,
         Print print_reproduction)
{
    exp::Session session(options);
    print_reproduction(session);
    std::cout.flush();
    if (!session.writeJson()) {
        std::cerr << argv0 << ": cannot write " << options.json_path
                  << "\n";
        return 1;
    }
    return 0;
}

} // namespace bench
} // namespace ddc

/** A bench's main: parse the engine flags, print, write the JSON. */
#define DDC_BENCH_MAIN(print_reproduction)                                  \
    int                                                                     \
    main(int argc, char **argv)                                             \
    {                                                                       \
        return ddc::bench::runBench(                                        \
            argv[0], ddc::bench::parseBenchArgs(argc, argv),                \
            print_reproduction);                                            \
    }

#endif // DDC_BENCH_COMMON_HH
