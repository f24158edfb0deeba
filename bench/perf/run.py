#!/usr/bin/env python3
"""Build ddc_perf and run the layer-attributed benchmark.

Three modes, all run from any directory (paths resolve from this file):

  run.py [--reps N] [--seed S] [--trace 0|1] [--out PATH]
      Full benchmark.  N rounds (default 5), the workload order rotated
      each round; in a round every workload runs timed reps for about
      ROUND_S (5) seconds, whose floor_sample is its sample.
      Then one reduced-size checked run per workload; with --trace 1,
      one traced rep per workload whose spans give the per-layer split.
      Prints every end-to-end metric by name with its unit and writes
      one results JSON (default build-perf/results.json).  Exits 1 if
      any run failed.

  run.py --workload W [--seed S] [--seconds T] [--trace 0|1]
      One workload for T seconds (default: BENCHMARK.json's
      run_seconds): the checked run, then timed reps
      until the next one would overrun T.  The last stdout line is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics of BENCHMARK.json (the floor_sample of the timed reps)
      with --trace 0, its per-layer metrics
      (from alternating traced and untraced reps) with --trace 1.

  run.py --smoke --build-dir DIR
      ctest's perf_smoke: every workload at 1/50 size, checked and
      traced, against an already built ddc_perf.

Only flat_cmstar and dir_clustered use the seed; hier_walk and
dir_hotspot are seed-free.  Every ddc_perf process runs alone, on the
simulator's default single worker lane.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
VALIDATE_TRACE = ROOT / "scripts" / "validate_trace.py"
DEFAULT_BUILD = ROOT / "build-perf"

WORKLOADS = ["flat_cmstar", "hier_walk", "dir_clustered", "dir_hotspot"]
CHECK_DIV = 8
SMOKE_DIV = 50
# Seconds of timed reps per workload and round in the full mode.
ROUND_S = 5.0
# Per ddc_perf process; a whole --workload run must end within 180 s.
PROCESS_TIMEOUT_S = 150

# End-to-end metrics the runner knows how to compute, with units.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_refs_per_s": "refs/s",
    "peak_rss_mb": "MiB",
    "sim_cycles": "cycles",
    "failed_frac": "ratio",
}
# Span name -> per-layer metric holding its duration in ms.
SPAN_LAYERS = {
    "trace.gen": "trace.gen_ms",
    "sim.build": "sim.build_ms",
    "sim.load": "sim.load_ms",
    "kernel.run": "kernel.run_ms",
    "dir.route": "dir.route_ms",
    "dir.serve": "dir.serve_ms",
}
# Per-layer times whose sum is a rep's setup_s.
SETUP_PARTS = ("trace.gen_ms", "sim.build_ms", "sim.load_ms")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build ddc_perf; exit 2 if impossible."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no simulator sources at {ROOT / 'src'}")
        sys.exit(2)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                       "ddc_perf", "-j", jobs], stdout=sys.stderr,
                      check=False).returncode != 0:
        log("run.py: build failed")
        sys.exit(2)
    return build_dir / "ddc_perf"


def run_perf(perf, workload, seed, *extra, timeout=PROCESS_TIMEOUT_S):
    """One ddc_perf process; always returns a dict with status/reason."""
    command = [str(perf), "--workload", workload, "--seed", str(seed),
               *map(str, extra)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"status": "failed", "reason": f"timed out after {timeout} s",
                "elapsed_s": time.monotonic() - started}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        result = {"status": "failed",
                  "reason": f"exit {proc.returncode}, no result line: "
                            f"{proc.stderr.strip()[-200:]}"}
    if proc.returncode != 0 and result.get("status") == "ok":
        result.update(status="failed", reason=f"exit {proc.returncode}")
    result["elapsed_s"] = time.monotonic() - started
    return result


def span_layers(path):
    """Per-layer ms from a ddc_perf trace: durations plus kernel self time.

    A layer's self time is its span's duration minus its children's;
    cluster.self_ms is kernel.run's (the cluster side of the run: agents,
    L1s, cluster buses and cluster-cache ports).
    """
    with open(path) as handle:
        events = [e for e in json.load(handle)["traceEvents"]
                  if e["ph"] == "X"]
    child_us = {}
    for event in events:
        parent = event["args"]["parent"]
        child_us[parent] = child_us.get(parent, 0.0) + event["dur"]
    layers = {}
    for event in events:
        name = event["name"]
        if name in SPAN_LAYERS:
            layers[SPAN_LAYERS[name]] = event["dur"] / 1e3
        if name == "kernel.run":
            self_us = event["dur"] - child_us.get(event["args"]["id"], 0.0)
            layers["cluster.self_ms"] = self_us / 1e3
    return layers


def validate_trace(path):
    """Run the repo's Chrome-trace validator; returns a failure reason."""
    proc = subprocess.run([sys.executable, str(VALIDATE_TRACE), str(path)],
                          capture_output=True, text=True, check=False)
    return "" if proc.returncode == 0 else proc.stderr.strip()


def traced_rep(perf, workload, seed, trace_dir, *extra):
    """One traced rep: spans written, validated and folded into layers."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload}.json"
    result = run_perf(perf, workload, seed, *extra, "--trace-out", path)
    if result["status"] == "ok":
        reason = validate_trace(path)
        if reason:
            result.update(status="failed", reason=f"trace: {reason}")
        else:
            result["layers"].update(span_layers(path))
    return result


def mark_fingerprints(reps):
    """Fail every ok rep whose fingerprint differs from the majority's."""
    prints = [r["fingerprint"] for r in reps if r["status"] == "ok"]
    if not prints:
        return
    majority = max(set(prints), key=prints.count)
    for rep in reps:
        if rep["status"] == "ok" and rep["fingerprint"] != majority:
            rep.update(status="failed",
                       reason=f"fingerprint {rep['fingerprint']} differs "
                              f"from {majority}")


def summarize(values):
    """Median and quartiles (statistics.quantiles) of a sample."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        p25 = p75 = value
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values) if values else 0.0,
            "p25": p25, "p75": p75, "n": len(values), "values": values}


def floor_sample(reps):
    """The timed metrics of a set of reps, each part at its fastest rep.

    The host's speed changes in phases of 0.1-0.5 s, when neighbours
    load the shared cores.  So every part of a rep is timed alone (each
    set-up call, each ~10 ms slice of run(), which covers the same
    simulated cycles in every rep), and each part counts at its fastest
    rep: a slice is slowed only if every rep ran it in a slow phase.
    Counts and memory take the median.
    """
    ok = ok_reps(reps)
    setup_ms = sum(min(r["layers"][part] for r in ok) for part in SETUP_PARTS)
    run_ms = sum(map(min, zip(*(r["slices_ms"] for r in ok))))
    return {"wall_s": (setup_ms + run_ms) / 1e3,
            "setup_s": setup_ms / 1e3,
            "sim_refs_per_s": ok[0]["refs"] / (run_ms / 1e3),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "sim_cycles": statistics.median(r["sim_cycles"] for r in ok)}


def end_to_end(samples, attempted, failed):
    """Every end-to-end metric over one workload's samples.

    A sample is the floor_sample of a --workload run's reps, or in the
    full mode of one round's reps.
    """
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        if name == "failed_frac":
            stats = summarize([failed / attempted])
        else:
            stats = summarize([sample[name] for sample in samples])
        metrics[name] = {**stats, "unit": unit}
    return metrics


def ok_reps(reps):
    return [r for r in reps if r["status"] == "ok"]


def layer_medians(reps):
    """Median of every per-layer value over the ok reps."""
    ok = ok_reps(reps)
    if not ok:
        return {}
    return {name: statistics.median(r["layers"][name] for r in ok)
            for name in ok[0]["layers"]}


def report_failures(workload, runs):
    failures = [r for r in runs if r["status"] != "ok"]
    for run in failures:
        log(f"run.py: FAIL {workload}: {run['reason']}")
    return len(failures)


def measure(perf, workload, seed, seconds, trace_dir=None):
    """Timed reps for about `seconds`: (traced, untraced) rep lists.

    Stops before a rep of typical length would overrun `seconds`, after
    at least one untraced rep.  With `trace_dir`, traced reps alternate
    with the untraced ones (at least one of each).
    """
    traced, untraced, durations = [], [], []
    started = time.monotonic()
    while True:
        if trace_dir and len(traced) <= len(untraced):
            rep = traced_rep(perf, workload, seed, trace_dir)
            traced.append(rep)
        else:
            rep = run_perf(perf, workload, seed)
            untraced.append(rep)
        durations.append(rep["elapsed_s"])
        enough = untraced and (traced or not trace_dir)
        next_end = time.monotonic() - started + statistics.median(durations)
        if enough and next_end > seconds:
            return traced, untraced


def check_run(perf, workload, seed):
    return run_perf(perf, workload, seed, "--div", CHECK_DIV, "--check")


def workload_mode(args):
    """One workload for --seconds; prints one JSON result line."""
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    perf = build(args.build_dir)

    check = check_run(perf, args.workload, args.seed)
    traced, untraced = measure(perf, args.workload, args.seed,
                               args.seconds or spec["run_seconds"],
                               args.build_dir / "trace" if args.trace
                               else None)
    # The checked run is 1/8 size, so only full-size reps must agree.
    mark_fingerprints(traced + untraced)
    runs = [check] + traced + untraced
    failed = report_failures(args.workload, runs)
    if args.trace:
        values = layer_medians(traced)
        values["verify.check_ms"] = check.get("layers", {}).get(
            "verify.check_ms", 0.0)
        if ok_reps(traced) and ok_reps(untraced):
            values["obs.profile_overhead"] = (
                floor_sample(traced)["wall_s"] /
                floor_sample(untraced)["wall_s"])
    else:
        samples = [floor_sample(untraced)] if ok_reps(untraced) else []
        values = {name: stats["median"] for name, stats in
                  end_to_end(samples, len(runs), failed).items()}
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0.0),
                                "unit": metric["unit"]}
               for metric in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def host_info(build_dir):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(build_dir / "CMakeCache.txt") as handle:
            for line in handle:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "build_type": build_type}


def print_table(results):
    print(f"{'workload':<14} {'metric':<15} {'median':>14} {'p25':>14} "
          f"{'p75':>14}  unit (n)")
    for workload, entry in results["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:<14} {name:<15} {stats['median']:>14.6g} "
                  f"{stats['p25']:>14.6g} {stats['p75']:>14.6g}  "
                  f"{stats['unit']} ({stats['n']})")


def full_mode(args):
    """Every workload, N interleaved rounds, one results JSON.

    Each round gives every workload one sample: the floor_sample of
    its reps in ROUND_S seconds.
    """
    perf = build(args.build_dir)
    reps = {w: [] for w in WORKLOADS}
    samples = {w: [] for w in WORKLOADS}
    for round_index in range(args.reps):
        shift = round_index % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            _, untraced = measure(perf, workload, args.seed, ROUND_S)
            reps[workload] += untraced
            ok = ok_reps(untraced)
            if ok:
                samples[workload].append(floor_sample(ok))
            log(f"round {round_index + 1}/{args.reps} {workload}: "
                f"{len(ok)}/{len(untraced)} ok reps")

    results = {"host": host_info(args.build_dir), "seed": args.seed,
               "reps": args.reps, "round_seconds": ROUND_S,
               "workloads": {}}
    any_failed = False
    for workload in WORKLOADS:
        check = check_run(perf, workload, args.seed)
        traced = []
        if args.trace:
            traced = [traced_rep(perf, workload, args.seed,
                                 args.build_dir / "trace")]
        full_size = reps[workload] + traced
        mark_fingerprints(full_size)
        runs = [check] + full_size
        failed = report_failures(workload, runs)
        any_failed |= failed > 0
        metrics = end_to_end(samples[workload], len(runs), failed)
        layers = layer_medians(traced or reps[workload])
        layers["verify.check_ms"] = check.get("layers", {}).get(
            "verify.check_ms", 0.0)
        if ok_reps(traced) and metrics["wall_s"]["n"]:
            layers["obs.profile_overhead"] = (
                floor_sample(traced)["wall_s"] /
                metrics["wall_s"]["median"])
        ok = ok_reps(full_size)
        results["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": layers,
            "fingerprint": ok[0]["fingerprint"] if ok else None,
            "failures": [r["reason"] for r in runs if r["status"] != "ok"],
        }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print_table(results)
    print(f"wrote {args.out}")
    return 1 if any_failed else 0


def smoke_mode(args):
    """Each workload at 1/50 size: checked, traced, fingerprints equal."""
    perf = args.build_dir / "ddc_perf"
    failed = 0
    for workload in WORKLOADS:
        check = run_perf(perf, workload, args.seed, "--div", SMOKE_DIV,
                         "--check")
        traced = traced_rep(perf, workload, args.seed,
                            args.build_dir / "trace-smoke", "--div",
                            SMOKE_DIV)
        runs = [check, traced]
        mark_fingerprints(runs)
        failed += report_failures(workload, runs)
        if check["status"] == traced["status"] == "ok":
            log(f"smoke {workload}: ok {check['fingerprint']}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    args.build_dir = args.build_dir.resolve()
    if args.out is None:
        args.out = args.build_dir / "results.json"
    if args.smoke:
        return smoke_mode(args)
    if args.workload:
        return workload_mode(args)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
