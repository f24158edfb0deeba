#!/usr/bin/env python3
"""Check that result JSON documents agree on everything deterministic.

    compare_runs.py BASE OTHER [OTHER ...]

Each OTHER must equal BASE once the keys in DROP are removed at every
nesting level.  Every host- or knob-dependent value (timings, skip
counts, snoop visits, directory table layout, fabric phase times)
lives in one "engine" object per run, so that is the only key dropped.
Prints one line per agreeing pair and exits 1 at the first pair that
differs.
"""

import json
import sys

DROP = {"engine"}


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
