"""Exact-count check.

    python3 perfbench/check_counts.py [--workload NAME ...] [--record]

Runs every workload traced twice at the seed recorded in baseline_counts.json,
each in its own process and one after the other, and fails when any exact
count (spans.EXACT, per pass and per item) differs between the two runs.  It then compares the
counts with baseline_counts.json, recorded at the commit that defined the
benchmark: point counts are properties of the polytopes and must match;
other differences (fewer branch-and-bound nodes, say) are printed as
before -> after, which is how a change reports a count it moved.
``--record`` rewrites the baseline file, at the same seed, instead of
comparing with it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from spans import EXACT  # noqa: E402

BASELINE = HERE / "baseline_counts.json"
WORKLOADS = ("certify-facets", "hull-ordering4", "diverse-pairs")
# counts fixed by the polytopes themselves, whatever the algorithm
INVARIANT = ("polytope.points",)


def traced_counts(workload: str, seed: int) -> dict:
    """Exact counts of one traced pass: totals, and per item."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed with exit code {proc.returncode}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    items: dict[str, dict[str, int]] = {}
    with open(HERE / "out" / f"{workload}-seed{seed}.spans.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            if span["pass"] == 0 and span["counts"]:
                acc = items.setdefault(span["item"] or "(pass)", {})
                for key, v in span["counts"].items():
                    acc[key] = acc.get(key, 0) + v
    return {"totals": {k: metrics[k]["value"] for k in EXACT}, "items": items}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all")
    ap.add_argument("--record", action="store_true", help="rewrite baseline_counts.json")
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS
    base = json.loads(BASELINE.read_text())
    seed = base["seed"]
    if args.record and args.workload:
        ap.error("--record measures every workload")
    ok = True
    runs = {}
    for wl in workloads:
        first, second = traced_counts(wl, seed), traced_counts(wl, seed)
        same = first == second
        print(f"{wl}: two runs {'agree on every exact count' if same else 'DIFFER in their exact counts'}")
        ok = ok and same
        runs[wl] = first
    if args.record:
        BASELINE.write_text(json.dumps({"seed": seed, "workloads": runs}, indent=1, sort_keys=True) + "\n")
        print(f"recorded {BASELINE.name}")
        return 0 if ok else 1
    for wl in workloads:
        old, new = base["workloads"][wl], runs[wl]
        for key in EXACT:
            a, b = old["totals"][key], new["totals"][key]
            if a != b:
                bad = key in INVARIANT
                ok = ok and not bad
                print(f"{wl}: {key} {a} -> {b}{'  (must not change)' if bad else ''}")
        for label in sorted(set(old["items"]) | set(new["items"])):
            a, b = old["items"].get(label), new["items"].get(label)
            if a != b:
                print(f"{wl}: item {label!r} {a} -> {b}")
    print("exact counts OK" if ok else "exact counts FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
