/**
 * @file
 * Experiment session: runs experiments and collects their results.
 *
 * A Session is the one object a bench binary or the CLI talks to: it
 * carries the runner options (--jobs), executes each Experiment, keeps
 * every result in submission order, and emits the collected set as
 * JSON (--json PATH, conventionally results.json) alongside whatever
 * ASCII tables the caller prints.  The JSON bytes are independent of
 * the job count unless --timing opts into per-run "engine" objects.
 */

#ifndef DDC_EXP_SESSION_HH
#define DDC_EXP_SESSION_HH

#include <deque>
#include <string>
#include <vector>

#include "base/types.hh"
#include "exp/experiment.hh"
#include "exp/json.hh"
#include "exp/runner.hh"

namespace ddc {
namespace exp {

/** Command-line options shared by every engine consumer. */
struct SessionOptions
{
    /** Worker threads for each experiment run. */
    int jobs = 1;
    /** Where to write the collected results ("" = don't). */
    std::string json_path;
    /**
     * Emit each run's "engine" object (EngineReport: wall clock, sim
     * rate, skip, snoop-visit and directory-table accounting) in the
     * JSON.  Off by default: it holds host measurements, so enabling
     * it gives up the byte-identical-across-job-counts guarantee.
     */
    bool timing = false;
    /**
     * Disable quiescent-cycle skipping for every System the process
     * builds (A/B baseline; results are byte-identical either way,
     * only slower).  parseSessionArgs applies it process-wide via
     * setQuiescentSkipEnabled() so custom experiment points that
     * construct their own Systems are covered too.
     */
    bool no_skip = false;
    /**
     * Disable sharer-indexed snoop filtering for every Bus the
     * process builds (A/B baseline; results are byte-identical either
     * way, only slower).  parseSessionArgs applies it process-wide
     * via setSnoopFilterEnabled() so custom experiment points that
     * construct their own Systems are covered too.
     */
    bool no_snoop_filter = false;
    /**
     * Chrome-trace output file ("" = tracing off).  The first System
     * the process constructs claims it (obs::setTraceOutput), so a
     * traced session should run a single point (--jobs 1) to keep the
     * trace attributable.
     */
    std::string trace_out;
    /** Comma-separated trace categories ("all", "bus,state,lock", ...). */
    std::string trace_categories = "all";
    /**
     * Collect latency histograms (miss service, bus wait, lock
     * acquisition, ...) in every System the process builds and emit
     * them per run in the JSON.  Cycle-based and deterministic: the
     * JSON stays byte-identical across job counts, it just grows the
     * new "histograms" objects.
     */
    bool histograms = false;
    /**
     * Sample counters every N cycles into a per-run time series
     * (0 = off).  Deterministic, like histograms.
     */
    Cycle sample_every = 0;
    /**
     * Directory-fabric phase profiling (host wall-clock split between
     * the fabric's route and serve phases).  A host measurement like
     * --timing: the profile feeds only "engine" objects and bench
     * columns, so the deterministic JSON stays byte-identical.
     */
    bool profile = false;
};

/**
 * Parse and remove the engine flags (`--jobs N`, `--json PATH`,
 * `--timing`, `--no-skip`, `--no-snoop-filter`, `--trace-out FILE`,
 * `--trace-categories LIST`, `--histograms`, `--sample-every N`,
 * `--profile`) from an argv vector.
 *
 * Unrecognized arguments are left in place (benches forward them to
 * google-benchmark).  Exits with an error message on malformed
 * values.  Process-wide switches (skip/snoop-filter disables, the
 * observability configuration) take effect before this returns, so
 * custom experiment points that construct their own Systems are
 * covered too.  The flag table lives in session.cc; adding a flag is
 * one table entry plus its SessionOptions field.
 */
SessionOptions parseSessionArgs(int &argc, char **argv);

/** Executes experiments and accumulates their results. */
class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /**
     * Run @p experiment with this session's job count.
     * @return The results, ordered by point index; the reference
     *         stays valid for the session's lifetime.
     */
    const std::vector<RunResult> &run(const Experiment &experiment);

    const SessionOptions &options() const { return opts; }

    /** All collected results as one JSON document. */
    Json toJson() const;

    /**
     * Write toJson() to options().json_path.
     * @return false on I/O failure (true when json_path is empty).
     */
    bool writeJson() const;

  private:
    struct Collected
    {
        std::string name;
        std::string description;
        std::vector<RunResult> results;
    };

    SessionOptions opts;
    /** Deque so run() references stay valid as experiments accrue. */
    std::deque<Collected> collected;
};

} // namespace exp
} // namespace ddc

#endif // DDC_EXP_SESSION_HH
