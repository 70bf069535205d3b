"""diamopt benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``diamopt`` from its
``src/``.  One run is one process and one workload:

1. passes over the workload's fixed item list, each timed as a whole
   (``wall_s``) and per item (``item_p50_ms``).  A round (set-up samples,
   pass, oracle checks) is started only while the median round so far would
   end within ``--seconds``, so a run lasts at most ``--seconds`` unless its
   first round alone is longer;
2. set-up time: a child process that starts the interpreter, imports
   ``diamopt`` and generates the workload's inputs, then exits; timed
   SETUP_PER_ROUND times at the start of every round and then until there
   are SETUP_MIN samples, so the samples spread over the run; the median is
   ``setup_s``;
3. the oracle checks of every pass, outside the timed region.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans (see spans.py), written to ``perfbench/out/`` at the end, and the
per-layer figures of the median traced pass are reported instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it, prefixed ``#``, record the
machine and the sample counts.  The exit code is 0 only when every oracle
check passed; a missing or broken ``src/diamopt`` exits 2 with no result.
"""

from __future__ import annotations

import os

# one thread per numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("DIAMOPT_ENUM_CAP", "DIAMOPT_MAX_POINTS"):
    os.environ.pop(_var, None)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN = 9
SETUP_PER_ROUND = 3
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; os.sysconf has no symbolic name for it


def import_library():
    """Import diamopt from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "diamopt" / "__init__.py").is_file():
        print(f"perfbench: no diamopt sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    try:
        import diamopt
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import diamopt: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(diamopt.__file__).resolve().parent != (src / "diamopt").resolve():
        print(f"perfbench: diamopt imported from {diamopt.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return workloads


def machine() -> dict:
    import numpy

    try:
        l3 = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": l3 if l3 and l3 > 0 else None,
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh set-up process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def one_pass(run, inp, tracer=None):
    """Run one pass; returns (wall seconds, item latencies, outputs or None)."""
    lat = []

    def item(label, fn, *args):
        if tracer is not None:
            tracer.item = label
        t = time.perf_counter()
        result = fn(*args)
        lat.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.item = None
        return result

    t0 = time.perf_counter()
    try:
        out = run(inp, item)
    except Exception:  # a pass that raises is a failed pass, not a crashed run
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, lat, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    walls, traced, latencies, verdicts, setups, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is None:
            for _ in range(SETUP_PER_ROUND):
                setups.append(time_setup(args.workload, args.seed))
        wall, lat, out = one_pass(run, inp)
        walls.append(wall)
        latencies += lat
        outputs = [out]
        if tracer is not None:
            first = len(tracer.spans)
            with tracer.patched():
                twall, _, tout = one_pass(run, inp, tracer)
            traced.append((twall, first, len(tracer.spans)))
            outputs.append(tout)
        for out in outputs:
            verdicts += check(inp, out) if out is not None else [("pass", False)]
        now = time.perf_counter()
        rounds.append(now - round_start)
        # another round only if the median round so far would end within --seconds
        if now - start + statistics.median(rounds) > args.seconds:
            break

    if tracer is None:
        while len(setups) < SETUP_MIN:
            setups.append(time_setup(args.workload, args.seed))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "item_p50_ms": (statistics.median(latencies or walls) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from spans import EXACT

        summaries = sorted((tracer.summary(a, b, w) for w, a, b in traced), key=lambda s: s["trace.wall_s"])
        for key in EXACT:
            verdicts.append((f"exact count {key} repeats", len({s[key] for s in summaries}) == 1))
        layer = summaries[len(summaries) // 2]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(walls)
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl", [(a, b) for _, a, b in traced])

    failed = [label for label, ok in verdicts if not ok]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "pass_walls_s": [round(w, 4) for w in walls],
        "rounds_s": [round(r, 2) for r in rounds],
        "items": len(latencies),
    }
    if failed:
        info["failed_items"] = failed[:20]
    info["failed_ratio"] = len(failed) / len(verdicts)
    if len(latencies) >= 100:
        info["item_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3

    print("# machine " + json.dumps(machine(), sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "1"
    if name == "modelio.parse_lp_bytes":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
