#!/usr/bin/env python3
"""Validate a ddcsim --trace-out file as a well-formed Chrome trace.

Checks the structural invariants the TraceSink writer guarantees (and
Perfetto / chrome://tracing rely on):

  * the file parses as JSON with a "displayTimeUnit" and a non-empty
    "traceEvents" array;
  * every event carries name/ph/ts/pid/tid (metadata carries name/ph);
  * every event's pid is a known track (1 PEs, 2 Buses, 3 Locks,
    4 Sim, 5 Homes);
  * non-metadata timestamps are non-decreasing — Chrome requires it;
  * duration B/E pairs are balanced per (pid, tid) track, never
    closing a span that was not opened (this covers every category,
    including the dir spans on the Homes track);
  * 'X' complete events carry a duration;
  * 'i' instant events carry a scope;
  * 'C' counter events carry a numeric args dict.

Usage: validate_trace.py TRACE.json
"""

import json
import sys

# Track pids the writer emits (src/obs/trace.hh kTrack*).
KNOWN_PIDS = {
    1: "PEs",
    2: "Buses",
    3: "Locks",
    4: "Sim",
    5: "Homes",
}


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def validate(path):
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            fail(f"{path} is not valid JSON: {error}")

    if "displayTimeUnit" not in document:
        fail("missing displayTimeUnit")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    last_ts = None
    depth = {}
    counts = {"M": 0, "B": 0, "E": 0, "X": 0, "i": 0, "C": 0}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in counts:
            fail(f"event {index}: unknown phase {phase!r}")
        counts[phase] += 1
        if "name" not in event:
            fail(f"event {index}: missing name")
        for key in ("pid", "tid") if phase == "M" else ():
            if key not in event:
                fail(f"event {index}: metadata missing {key}")
        if "pid" in event and event["pid"] not in KNOWN_PIDS:
            fail(f"event {index}: unknown pid {event['pid']!r} "
                 f"(known: {sorted(KNOWN_PIDS)})")
        if phase == "M":
            continue
        for key in ("ts", "pid", "tid"):
            if key not in event:
                fail(f"event {index}: missing {key}")
        ts = event["ts"]
        if last_ts is not None and ts < last_ts:
            fail(f"event {index}: ts {ts} after {last_ts} "
                 "(must be non-decreasing)")
        last_ts = ts
        track = (event["pid"], event["tid"])
        if phase == "B":
            depth[track] = depth.get(track, 0) + 1
        elif phase == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                fail(f"event {index}: 'E' without matching 'B' "
                     f"on track {track}")
        elif phase == "X" and "dur" not in event:
            fail(f"event {index}: 'X' without dur")
        elif phase == "i" and "s" not in event:
            fail(f"event {index}: 'i' without scope")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"event {index}: 'C' without args dict")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    fail(f"event {index}: 'C' arg {key!r} is not "
                         "numeric")

    open_tracks = {t: d for t, d in depth.items() if d != 0}
    if open_tracks:
        fail(f"unbalanced B/E pairs on tracks {open_tracks}")
    if counts["B"] != counts["E"]:
        fail(f"{counts['B']} 'B' events vs {counts['E']} 'E' events")

    total = sum(counts.values())
    print(f"validate_trace: OK: {path}: {total} events "
          f"({counts['B']} spans, {counts['X']} completes, "
          f"{counts['i']} instants, {counts['C']} counters, "
          f"{counts['M']} metadata)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    validate(sys.argv[1])
