#!/usr/bin/env python3
"""Compare two bench/perf/run.py results files.

usage: diff.py BASE.json NEW.json [--benchmark BENCHMARK.json]
       diff.py --self-test

For each (end-to-end metric, workload) the verdict uses that metric's
direction and bound from BENCHMARK.json:

  unresolved  either side's p25-p75 spread, as a share of its median,
              is wider than the bound -- unless every NEW rep reads
              better than every BASE rep, which counts as better
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better than BASE's by more than the bound
  unchanged   otherwise

It also reports any NEW run that failed, and -- when both files used
the same seed -- any workload whose run fingerprint (simulated cycles,
bus ops, counter hash) changed: a pure performance change must leave
the simulated results bit-identical.  Per-layer values that moved are
listed for attribution, without a verdict.

Exit status: 1 on any worse verdict, failed run or changed fingerprint;
0 otherwise (unresolved is reported, not failed).
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent.parent / \
    "BENCHMARK.json"


def spread(stats):
    median = stats["median"]
    return (stats["p75"] - stats["p25"]) / abs(median) if median else 0.0


def verdict(metric, base, new):
    """Classify one (metric, workload) pair; returns (verdict, change)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    change = ((new["median"] - base["median"]) / abs(base["median"])
              if base["median"] else 0.0)
    gain = sign * change
    if spread(base) > bound or spread(new) > bound:
        base_values = base.get("values", [])
        new_values = new.get("values", [])
        # Every NEW rep better than every BASE rep resolves the spread.
        if base_values and new_values and \
                min(sign * v for v in new_values) > \
                max(sign * v for v in base_values):
            return "better", change
        return "unresolved", change
    if gain < -bound or (bound == 0 and gain < 0):
        return "worse", change
    if gain > bound or (bound == 0 and gain > 0):
        return "better", change
    return "unchanged", change


def compare(spec, base, new):
    """All verdict rows plus failure / fingerprint notes.

    Returns (rows, notes, regressed) where rows are (workload, metric,
    verdict, change) tuples.
    """
    rows, notes, regressed = [], [], False
    same_seed = base.get("seed") == new.get("seed")
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            notes.append(f"{workload}: missing from NEW")
            regressed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base_entry["end_to_end"]:
                continue
            result, change = verdict(metric, base_entry["end_to_end"][name],
                                     new_entry["end_to_end"][name])
            rows.append((workload, name, result, change))
            regressed |= result == "worse"
        if new_entry.get("failures"):
            notes.append(f"{workload}: {len(new_entry['failures'])} failed "
                         f"run(s): {new_entry['failures'][0]}")
            regressed = True
        if same_seed and base_entry.get("fingerprint") != \
                new_entry.get("fingerprint"):
            notes.append(f"{workload}: fingerprint changed "
                         f"{base_entry.get('fingerprint')} -> "
                         f"{new_entry.get('fingerprint')}")
            regressed = True
    return rows, notes, regressed


def layer_moves(base, new):
    """(workload, layer, base, new) for every per-layer value that moved."""
    moves = []
    for workload, base_entry in base["workloads"].items():
        new_layers = new["workloads"].get(workload, {}).get("per_layer", {})
        for name, value in base_entry.get("per_layer", {}).items():
            if name in new_layers and new_layers[name] != value:
                moves.append((workload, name, value, new_layers[name]))
    return moves


def main_diff(args):
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    rows, notes, regressed = compare(spec, base, new)
    print(f"{'workload':<14} {'metric':<15} {'change':>9}  verdict")
    for workload, name, result, change in rows:
        print(f"{workload:<14} {name:<15} {change:>+9.2%}  {result}")
    for note in notes:
        print(f"NOTE {note}")
    moves = layer_moves(base, new)
    if moves:
        print(f"\n{'workload':<14} {'layer':<26} {'base':>14} {'new':>14}")
        for workload, name, old, value in moves:
            print(f"{workload:<14} {name:<26} {old:>14.6g} {value:>14.6g}")
    return 1 if regressed else 0


def self_test():
    """Classify synthetic results; returns 0 when every case matches."""
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.10},
        {"name": "rate", "better": "higher", "bound": 0.10},
        {"name": "cycles", "better": "lower", "bound": 0.0},
    ]}

    def stats(median, p25=None, p75=None, values=()):
        return {"median": median, "p25": median if p25 is None else p25,
                "p75": median if p75 is None else p75,
                "values": list(values)}

    def results(wall, rate, cycles, fingerprint="f", failures=()):
        return {"seed": 1, "workloads": {"w": {
            "end_to_end": {"wall_s": wall, "rate": rate, "cycles": cycles},
            "per_layer": {"kernel.run_ms": wall["median"] * 1e3},
            "fingerprint": fingerprint, "failures": list(failures)}}}

    base = results(stats(1.0), stats(100.0), stats(5000))
    wide = results(stats(1.0, 0.8, 1.3, values=(0.8, 1.0, 1.3)),
                   stats(100.0), stats(5000))
    # (label, BASE, NEW, expected verdicts, expect a regression)
    cases = [
        ("unchanged", base, results(stats(1.05), stats(95.0), stats(5000)),
         {"wall_s": "unchanged", "rate": "unchanged",
          "cycles": "unchanged"}, False),
        ("worse", base, results(stats(1.2), stats(80.0), stats(5001)),
         {"wall_s": "worse", "rate": "worse", "cycles": "worse"}, True),
        ("better", base, results(stats(0.8), stats(120.0), stats(4999)),
         {"wall_s": "better", "rate": "better", "cycles": "better"}, False),
        ("wide NEW", base, wide, {"wall_s": "unresolved"}, False),
        ("wide, overlapping", wide,
         results(stats(0.9, 0.7, 1.1, values=(0.7, 0.9, 1.1)),
                 stats(100.0), stats(5000)),
         {"wall_s": "unresolved"}, False),
        ("wide, disjoint", wide,
         results(stats(0.5, 0.4, 0.6, values=(0.4, 0.5, 0.6)),
                 stats(100.0), stats(5000)),
         {"wall_s": "better"}, False),
        ("failed run", base, results(stats(1.0), stats(100.0), stats(5000),
                                     failures=("timed out",)),
         {"wall_s": "unchanged"}, True),
        ("fingerprint", base, results(stats(1.0), stats(100.0), stats(5000),
                                      fingerprint="g"),
         {"cycles": "unchanged"}, True),
    ]
    failures = 0
    for label, old, new, expected, expect_regressed in cases:
        rows, _, regressed = compare(spec, old, new)
        got = {name: result for _, name, result, _ in rows}
        for name, want in expected.items():
            if got[name] != want:
                print(f"self-test {label}: {name} is {got[name]}, "
                      f"expected {want}")
                failures += 1
        if regressed != expect_regressed:
            print(f"self-test {label}: regressed={regressed}, "
                  f"expected {expect_regressed}")
            failures += 1
    if not layer_moves(base, cases[1][2]):
        print("self-test: per-layer move not reported")
        failures += 1
    print(f"diff.py self-test: {len(cases)} cases, {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.new):
        parser.error("BASE and NEW results files are required")
    return main_diff(args)


if __name__ == "__main__":
    sys.exit(main())
