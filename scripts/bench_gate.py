#!/usr/bin/env python3
"""Bench-regression gate: fresh BENCH_*.json vs committed baselines.

Usage:
    python3 scripts/bench_gate.py BASELINE_DIR [FRESH_DIR] [--threshold PCT]

Each self-asserting bench already enforces its own hard acceptance
floor (e.g. E17's 1.7x speedup) and writes a metrics report at the
repository root. Those reports are committed, so the checked-in copy
is the baseline: CI copies it aside before re-running the benches,
then calls this script to compare the freshly produced reports against
it.

A *headline* metric regresses when it moves in the bad direction by
more than THRESHOLD (default 20%) of the baseline value AND by more
than the metric's absolute slack. The slack keeps small-denominator
metrics honest: a tracing overhead drifting from 0.1% to 0.3% is a
200% relative change but means nothing on a shared CI box, while a
speedup falling from 2.0x to 1.5x is a real regression even though
both sides still clear the bench's own floor.

Missing baseline files or metrics are tolerated with a warning — a
brand-new bench has no baseline until its first report is committed.
Exit status: 0 clean, 1 on any regression, 2 on usage errors.
"""

import json
import sys
from pathlib import Path

THRESHOLD = 0.20

# report name -> [(path, direction, absolute_slack)]
#
# Path grammar: dot-separated keys into `metrics`; a `workloads[]`
# segment fans out over the workload list, pairing baseline and fresh
# entries by their `name` field; `workloads[foo]` selects one entry by
# name. Direction `higher` means bigger is better.
HEADLINES = {
    "e4_symbolic": [
        ("workloads[].allocs_per_element", "lower", 0.25),
        ("workloads[].lazy_allocs_per_element", "lower", 0.25),
    ],
    "e10_cache": [("workloads[].read_reduction", "higher", 0.5)],
    "e11_trace": [("workloads[].overhead_pct", "lower", 2.0)],
    "e12_replay": [("workloads[].capture_bytes", "lower", 256)],
    "e13_supervise": [
        ("workloads[].overhead_pct", "lower", 2.0),
        ("recovery.mttr_us", "lower", 1000),
    ],
    "e14_prefetch": [("workloads[].turn_reduction", "higher", 0.5)],
    "e15_spans": [("workloads[].overhead_pct", "lower", 2.0)],
    "e16_meta": [("workloads[ring_query].best_us", "lower", 10000)],
    "e17_pipeline": [
        ("speedup", "higher", 0.1),
        ("allocs_per_value", "lower", 2),
        ("wire_turns", "lower", 2),
    ],
}


def resolve(metrics, path):
    """Yields (label, value) pairs for `path` under `metrics`."""
    head, _, rest = path.partition(".")
    if head == "workloads[]":
        for w in metrics.get("workloads", []):
            for label, v in resolve(w, rest):
                yield f"workloads[{w.get('name', '?')}].{label}", v
    elif head.startswith("workloads[") and head.endswith("]"):
        want = head[len("workloads[") : -1]
        for w in metrics.get("workloads", []):
            if w.get("name") == want:
                for label, v in resolve(w, rest):
                    yield f"{head}.{label}", v
    elif rest:
        if head in metrics and isinstance(metrics[head], dict):
            for label, v in resolve(metrics[head], rest):
                yield f"{head}.{label}", v
    elif head in metrics:
        yield head, metrics[head]


def compare(name, base, fresh, threshold):
    """Returns a list of regression strings for one report pair."""
    problems = []
    for path, direction, slack in HEADLINES.get(name, []):
        base_vals = dict(resolve(base["metrics"], path))
        fresh_vals = dict(resolve(fresh["metrics"], path))
        for label, b in base_vals.items():
            if label not in fresh_vals:
                print(f"  warn: {name}: {label} vanished from the fresh report")
                continue
            f = fresh_vals[label]
            if not isinstance(b, (int, float)) or not isinstance(f, (int, float)):
                continue
            bad = (b - f) if direction == "higher" else (f - b)
            if bad > abs(b) * threshold and bad > slack:
                arrow = f"{b:g} -> {f:g}"
                problems.append(
                    f"{name}: {label} regressed {arrow} "
                    f"(>{threshold:.0%} and >{slack:g} absolute, {direction} is better)"
                )
            else:
                print(f"  ok: {name}: {label}: {b:g} -> {f:g}")
    return problems


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    threshold = THRESHOLD
    for a in argv:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1]) / 100.0
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_dir = Path(args[0])
    fresh_dir = Path(args[1]) if len(args) > 1 else Path(".")
    if not baseline_dir.is_dir():
        print(f"baseline directory {baseline_dir} does not exist", file=sys.stderr)
        return 2

    problems, seen = [], 0
    for fresh_path in sorted(fresh_dir.glob("BENCH_*.json")):
        base_path = baseline_dir / fresh_path.name
        if not base_path.exists():
            print(f"warn: no committed baseline for {fresh_path.name}; skipping")
            continue
        fresh = json.loads(fresh_path.read_text())
        base = json.loads(base_path.read_text())
        name = fresh.get("name", fresh_path.stem)
        if base.get("name") != name:
            print(f"warn: {fresh_path.name}: baseline is {base.get('name')}, fresh is {name}")
            continue
        seen += 1
        print(f"{fresh_path.name} ({name}):")
        problems += compare(name, base, fresh, threshold)

    if not seen:
        print("warn: no report had a baseline; nothing gated")
        return 0
    if problems:
        print(f"\n{len(problems)} regression(s):", file=sys.stderr)
        for p in problems:
            print(f"  FAIL: {p}", file=sys.stderr)
        return 1
    print(f"\nall headline metrics within {threshold:.0%} of baseline across {seen} report(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
