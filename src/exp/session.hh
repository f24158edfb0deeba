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
     * Chrome-trace output file ("" = tracing off).  The first System
     * the process constructs claims it (obs::setTraceOutput), so a
     * traced session should run a single point (--jobs 1) to keep the
     * trace attributable.
     */
    std::string trace_out;
    /** Comma-separated trace categories ("all", "bus,state,lock", ...). */
    std::string trace_categories = "all";
};

/**
 * Parse and remove the engine flags (`--jobs N`, `--json PATH`,
 * `--timing`, `--no-skip`, `--no-snoop-filter`, `--trace-out FILE`,
 * `--trace-categories LIST`, `--histograms`, `--sample-every N`,
 * `--profile`) from an argv vector.
 *
 * Unrecognized arguments are left in place for the caller (ddcsim
 * parses its own options from them; a bench rejects them).  Exits
 * with an error message on malformed values.  `--no-skip`,
 * `--no-snoop-filter`, `--histograms` and `--sample-every N` set the
 * engine defaults (engineDefaults()) that every machine config built
 * afterwards starts from, so custom experiment points that construct
 * their own machines are covered too; an EngineKnobs field a config
 * sets in code wins.  `--no-skip`
 * and `--no-snoop-filter` are A/B baselines and `--histograms` and
 * `--sample-every` only add JSON fields: deterministic results stay
 * byte-identical under all four.  The trace claim (`--trace-out`)
 * and `--profile` stay process-wide.  The flag table lives in
 * session.cc; adding a flag is one table entry plus the field it
 * sets.
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
