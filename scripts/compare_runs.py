#!/usr/bin/env python3
"""Check that result JSON documents agree on everything deterministic.

    compare_runs.py BASE OTHER [OTHER ...]

Each OTHER must equal BASE once the keys in DROP are removed at every
nesting level: the host-dependent timings, and the fast-path accounting
(skip counts, snoop visits, directory layout) that the A/B flags move
on purpose.  Prints one line per agreeing pair and exits 1 at the first
pair that differs.
"""

import json
import sys

DROP = {"wall_time_ms", "sim_time_ms", "sim_cycles_per_sec",
        "skipped_cycles", "skip_fraction", "snoop_visits",
        "snoop_filter_fallbacks", "directory_blocks",
        "directory_max_load_factor", "route_phase_ms",
        "serve_phase_ms", "home_latency_p50",
        "home_latency_p90", "home_latency_p99",
        "hot_home_skew"}


def strip(doc):
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k not in DROP}
    if isinstance(doc, list):
        return [strip(v) for v in doc]
    return doc


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base = strip(json.load(handle))
    for other_path in argv[2:]:
        with open(other_path) as handle:
            if strip(json.load(handle)) != base:
                print(f"{argv[1]} vs {other_path}: diverge after strip",
                      file=sys.stderr)
                return 1
        print(f"{argv[1]} vs {other_path}: identical after strip")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
