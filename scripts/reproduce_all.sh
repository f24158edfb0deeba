#!/usr/bin/env bash
# Build everything, run the full test suite, and regenerate every
# paper table/figure + ablation, capturing the outputs the way
# EXPERIMENTS.md documents them.
#
# Sweep points run through the parallel experiment engine (src/exp)
# with --jobs $(nproc); the engine guarantees output is byte-identical
# to a serial run.  Each bench also emits structured results as
# <build>/bench/<name>.results.json, and the per-bench files are
# merged into BENCH_RESULTS.json at the repo root.
#
#   scripts/reproduce_all.sh [build-dir]

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
jobs="$(nproc 2>/dev/null || echo 1)"

cmake -B "$build_dir" -G Ninja -S "$repo_root"
cmake --build "$build_dir"

ctest --test-dir "$build_dir" --output-on-failure 2>&1 \
    | tee "$repo_root/test_output.txt"

: > "$repo_root/bench_output.txt"
json_files=()
for bench in "$build_dir"/bench/*; do
    [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    json="$build_dir/bench/$name.results.json"
    echo "===== $name =====" >> "$repo_root/bench_output.txt"
    # perf_throughput and perf_directory measure the simulator's own
    # wall-clock speed; pin them to one worker so points never compete
    # for cores (EXPERIMENTS.md methodology).
    bench_jobs="$jobs"
    case "$name" in
        perf_throughput|perf_directory) bench_jobs=1 ;;
    esac
    "$bench" --jobs "$bench_jobs" --json "$json" \
        >> "$repo_root/bench_output.txt" 2>&1
    json_files+=("$json")
done

# One small traced + histogrammed point through the CLI, then check
# the emitted Chrome trace is well-formed (sorted timestamps, balanced
# span pairs) so a Perfetto regression is caught here, not at load
# time.
"$build_dir/tools/ddcsim" --workload producer_consumer --protocol RWB \
    --pes 4 --refs 2000 --trace-out "$build_dir/sample_trace.json" \
    --histograms --json "$build_dir/sample_trace_results.json" \
    >> "$repo_root/bench_output.txt"
python3 "$repo_root/scripts/validate_trace.py" \
    "$build_dir/sample_trace.json"

# Merge the per-bench result files into one top-level document:
# {"schema": 5, "benches": {"<name>": <per-bench document>, ...}}
merged="$repo_root/BENCH_RESULTS.json"
{
    printf '{\n  "schema": 5,\n  "benches": {\n'
    first=1
    for json in "${json_files[@]}"; do
        name="$(basename "$json" .results.json)"
        [ "$first" -eq 1 ] || printf ',\n'
        first=0
        # Re-indent the per-bench document to nest under "benches".
        doc="$(sed '1!s/^/    /' "$json")"
        printf '    "%s": %s' "$name" "$doc"
    done
    printf '\n  }\n}\n'
} > "$merged"

echo "Done: test_output.txt, bench_output.txt, BENCH_RESULTS.json"
