"""Command line front end.

Subcommands:

    solve        solve a model exactly
    diameter     find two maximally distant optimal solutions
    points       enumerate the paired-copy 0/1 point set
    dim          affine dimension of that point set
    check-facet  certify inequalities against the point set
    verify       run a named verification suite

Exit codes: 0 success, 1 a verification or certification failed, 2 the
model is infeasible, 3 bad input (usage errors included), 4 an enumeration
cap was exceeded or an allocation failed (out of memory).  A reader that
closes stdout early ends the run quietly with 0.

JSON output is deterministic: keys sorted, fixed separators, no
timestamps, so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bpcore import DEFAULT_ENUM_CAP, Constraint, solve_bnb, solve_enumerate
from .diameter import build as build_diameter
from .diameter import result_to_dict, solve_diameter, theoretical_epsilon
from .errors import CapExceededError, DiamoptError, InfeasibleModelError, ParseError
from .modelio import json_list, load_model_json, load_model_lp
from .polytope import DEFAULT_MAX_POINTS, check_inequality, enumerate_points
from .ratlinalg import as_rational
from .suites import FAMILIES, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_CAP = 4

_CAP_HELP = "enumeration cap (default %(default)s): the largest n of a 2^n base-model scan"


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write(args, pieces: Iterable[str]) -> None:
    """Write the report, given as consecutive pieces of text, to --out or stdout."""
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    _write(args, [_json(payload) + "\n" if args.format == "json" else "\n".join(text_lines) + "\n"])


def _load_model(path: str):
    if path.endswith(".lp"):
        return load_model_lp(path)
    return load_model_json(path)


def _bits(assignment) -> str:
    return "".join(str(v) for v in assignment)


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _instance_setup(args):
    """Resolve --problem/--n/--instance into (meta, base model, family).

    The family is None for raw models.
    """
    if args.problem == "raw":
        if not args.instance:
            raise ParseError("--problem raw requires --instance MODEL")
        bp = _load_model(args.instance)
        return {"problem": "raw", "n": bp.n}, bp, None
    family = FAMILIES[args.problem]
    if args.instance:
        inst = family.load(args.instance)
    elif args.n is not None:
        inst = family.zero(args.n)
    else:
        raise ParseError(f"need --n or --instance for --problem {args.problem}")
    return {"problem": args.problem, "n": family.size(inst)}, family.module.build(inst), family


def _paired_points(args):
    """The ordering and tour front ends list their base feasible sets
    directly, which is what makes the larger point sets reachable at all;
    a raw model's base feasible set is scanned."""
    meta, bp, family = _instance_setup(args)
    base = family.module.base_points(meta["n"]) if family else None
    ps = enumerate_points(bp, base_points=base, cap=args.cap, max_points=args.max_points)
    return meta, ps


def cmd_solve(args) -> int:
    bp = _load_model(args.model)
    if args.method == "enum":
        rep = solve_enumerate(bp, args.cap)
    else:
        rep = solve_bnb(bp)
        if args.method == "both":
            check = solve_enumerate(bp, args.cap)
            same = rep.status == check.status and (
                rep.best is None or rep.best.objective_value == check.best.objective_value
            )
            if not same:
                raise DiamoptError("solver disagreement between bnb and enumeration")
    payload = {"status": rep.status, "nodes": rep.nodes_explored, "method": args.method}
    lines = [f"status: {rep.status}"]
    if rep.best is None:
        payload["objective"] = None
        payload["assignment"] = None
        _emit(args, payload, lines)
        return EXIT_INFEASIBLE
    payload["objective"] = {
        "num": rep.best.objective_value.numerator,
        "den": rep.best.objective_value.denominator,
    }
    payload["assignment"] = list(rep.best.assignment)
    on = [bp.variable_names[i] for i, v in enumerate(rep.best.assignment) if v]
    lines += [
        f"objective: {_frac_text(rep.best.objective_value)}",
        f"assignment: {_bits(rep.best.assignment)}",
        "on: " + (", ".join(on) if on else "(none)"),
        f"nodes: {rep.nodes_explored}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_diameter(args) -> int:
    meta, bp, family = _instance_setup(args)
    n = meta["n"]
    eps = None
    if args.epsilon:
        eps = as_rational(args.epsilon)  # diameter.build refuses eps <= 0
    elif args.theoretical_epsilon:
        eps = theoretical_epsilon(bp, args.cap)
    dp = build_diameter(bp, eps, args.variant)
    res = solve_diameter(dp, cap=args.cap)
    payload = result_to_dict(res)
    payload["problem"] = meta["problem"]
    lines = [
        f"problem: {meta['problem']}",
        f"variant: {res.variant}",
        f"epsilon: {_frac_text(res.epsilon)}",
        f"base objective: {_frac_text(res.base_objective)}",
        f"diameter: {res.diameter}",
    ]
    if res.diameter_upper_bound is not None:
        lines.append(f"diameter upper bound: {res.diameter_upper_bound}")
    lines += [f"x*: {_bits(res.x_star)}", f"y*: {_bits(res.y_star)}", f"z*: {_bits(res.z_star)}"]
    if family:
        pair = [list(family.decode(v, n)) for v in (res.x_star, res.y_star)]
        payload[family.pair_key] = pair
        lines += [f"{family.pair_label} {h}: {family.sep.join(map(str, p))}" for h, p in zip("xy", pair)]
    _emit(args, payload, lines)
    return EXIT_OK


# rows of a point listing turned into text at a time
_LISTING_CHUNK = 1 << 14


def _listing(points: np.ndarray, quote: str, sep: str) -> Iterator[str]:
    """sep.join of the rows of a 0/1 array, each as its digits between two
    quotes, in pieces of _LISTING_CHUNK rows: no string is made per row."""
    d, q = points.shape[1], len(quote)
    for lo in range(0, len(points), _LISTING_CHUNK):
        chunk = points[lo : lo + _LISTING_CHUNK]
        out = np.empty((len(chunk), d + 2 * q + len(sep)), dtype=np.uint8)
        out[:, :q] = out[:, q + d : 2 * q + d] = np.frombuffer(quote.encode(), np.uint8)
        out[:, q : q + d] = chunk + ord("0")
        out[:, 2 * q + d :] = np.frombuffer(sep.encode(), np.uint8)
        text = out.tobytes().decode("ascii")
        yield text if lo + len(chunk) < len(points) else text[: len(text) - len(sep)]


def cmd_points(args) -> int:
    """The listing is written in pieces straight from the point array,
    byte for byte the report _emit would write with one string per point."""
    meta, ps = _paired_points(args)
    points = ps.array
    if args.format == "json":
        marker = '"points":[]'
        head, _, tail = _json(dict(meta, ambient=ps.dim_ambient, count=ps.count, points=[])).partition(marker)
        pieces = itertools.chain([head + marker[:-1]], _listing(points, '"', ","), ["]" + tail + "\n"])
    else:
        header = f"# {meta['problem']} n={meta['n']} ambient={ps.dim_ambient} count={ps.count}\n"
        pieces = itertools.chain([header], _listing(points, "", "\n"), ["\n" if len(points) else ""])
    _write(args, pieces)
    return EXIT_OK


def cmd_dim(args) -> int:
    meta, ps = _paired_points(args)
    dim = ps.hull_dimension()
    payload = dict(meta, ambient=ps.dim_ambient, count=ps.count, dimension=dim)
    lines = [
        f"problem: {meta['problem']}",
        f"n: {meta['n']}",
        f"ambient: {ps.dim_ambient}",
        f"points: {ps.count}",
        f"dimension: {dim}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _parse_inequalities(path: str) -> list[Constraint]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e}") from e
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected an inequality object or a list of them")
    out = []
    for k, item in enumerate(data):
        try:
            a, label = json_list(item["a"], "a"), item.get("label", f"ineq_{k + 1}")
            q = Constraint(a, item.get("sense", "<="), item["a0"], label)
            if q.sense == "=":  # check-facet certifies inequalities, not equations
                raise ValueError("bad sense '='")
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: inequality {k + 1}: {e}") from e
        out.append(q)
    return out


def cmd_check_facet(args) -> int:
    ineqs = _parse_inequalities(args.inequalities)
    meta, ps = _paired_points(args)
    reports = []
    lines = []
    all_facets = True
    for q in ineqs:
        r = check_inequality(ps, q)
        all_facets = all_facets and r.is_facet
        reports.append(asdict(r))
        if not r.valid:
            lines.append(f"NOT VALID  {r.label}")
        elif r.is_facet:
            lines.append(
                f"FACET      {r.label} (face dim {r.face_dimension}/{r.polytope_dimension},"
                f" tight on {r.tight_point_count})"
            )
        else:
            lines.append(
                f"VALID ONLY {r.label} (face dim {r.face_dimension}/{r.polytope_dimension})"
            )
    payload = dict(meta, dimension=reports[0]["polytope_dimension"] if reports else None, reports=reports)
    _emit(args, payload, lines)
    return EXIT_OK if all_facets else EXIT_VERIFY


def cmd_verify(args) -> int:
    records = run_suite(args.suite, trials=args.trials, seed=args.seed)
    ok = all(r["ok"] for r in records)
    payload = {
        "suite": args.suite,
        "ok": ok,
        "records": records,
        "seed": args.seed,
        "trials": args.trials,
    }
    lines = [("PASS " if r["ok"] else "FAIL ") + r["claim"] for r in records]
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r['ok'] for r in records)}/{len(records)} claims")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text", help="output format")
    p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--problem", choices=(*FAMILIES, "raw"), default="raw", help="model family"
    )
    source = p.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, help="instance size for lop/tsp (costs all zero)")
    source.add_argument("--instance", metavar="PATH", help="instance or model file")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help=_CAP_HELP + "; diameter cross-checks when 3n <= cap")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    _add_instance_flags(p)
    p.add_argument(
        "--max-points", type=_positive_int, default=DEFAULT_MAX_POINTS, help="cap on pair grid, face cells, listed points"
    )
    _add_output_flags(p)


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 3); argparse's own exit 2 would read
    as an infeasible model.  Subparsers are made with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="diamopt", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model exactly")
    p.add_argument("model", help=".lp or .json model file")
    p.add_argument("--method", choices=("bnb", "enum", "both"), default="bnb")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help=_CAP_HELP + " (--method enum|both)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diameter", help="find two maximally distant optima")
    _add_instance_flags(p)
    p.add_argument("--variant", choices=("full", "conjugate"), default="full")
    penalty = p.add_mutually_exclusive_group()
    penalty.add_argument("--epsilon", metavar="NUM/DEN", help="penalty override, e.g. 1/24")
    penalty.add_argument(
        "--theoretical-epsilon",
        action="store_true",
        help="use the optimality-gap penalty (needs enumeration of the base model)",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("points", help="enumerate the paired-copy point set")
    _add_point_flags(p)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("dim", help="affine dimension of the paired-copy point set")
    _add_point_flags(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("check-facet", help="certify inequalities against the point set")
    p.add_argument("inequalities", help="JSON file: [{a, a0, sense, label}, ...]")
    _add_point_flags(p)
    p.set_defaults(func=cmd_check_facet)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=_positive_int, default=50, help="random trials (epsilon suite), at least 1")
    p.add_argument("--seed", type=int, default=1729, help="random seed (epsilon suite)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"diamopt: input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as e:
        print(f"diamopt: cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("diamopt: cap exceeded: out of memory", file=sys.stderr)
        return EXIT_CAP
    except InfeasibleModelError as e:
        print(f"diamopt: infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DiamoptError as e:
        print(f"diamopt: verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except BrokenPipeError:
        # the reader of stdout stopped early (`diamopt points ... | head`):
        # stop quietly, and point stdout at devnull so the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError) as e:
        print(f"diamopt: input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
