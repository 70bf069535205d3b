"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]

Runs perfbench/run.py once per seed 0..SEEDS-1, one run at a time, for the
run_seconds given in BENCHMARK.json, and prints for each metric its median
and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  Exits 1 when a run
fails or a spread exceeds the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = 10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    args = ap.parse_args()
    bench = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    ok = True
    for wl in args.workload:
        values: dict[str, list[float]] = {}
        for seed in range(SEEDS):
            cmd = [sys.executable, str(RUN), "--workload", wl, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{wl} seed {seed}: exit {proc.returncode}, {result['failed']} failed", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            over = spread > bounds[name]
            flag = "  OVER BOUND" if over else ""
            print(f"{wl:16s} {name:14s} median {med:10.4g}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
            ok = ok and not over
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
