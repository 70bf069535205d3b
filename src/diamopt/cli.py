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
cap was exceeded.

JSON output is deterministic: keys sorted, fixed separators, no
timestamps, so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .bpcore import DEFAULT_ENUM_CAP, solve_bnb, solve_enumerate
from .diameter import build as build_diameter
from .diameter import result_to_dict, solve_diameter, theoretical_epsilon
from .errors import CapExceededError, DiamoptError, InfeasibleModelError, ParseError
from .modelio import load_model_json, load_model_lp
from .polytope import (
    DEFAULT_MAX_POINTS,
    Inequality,
    check_inequality,
    enumerate_points,
)
from .ratlinalg import as_rational
from .suites import FAMILIES, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_CAP = 4

_CAP_HELP = "enumeration cap (default %(default)s): the largest n of a 2^n base-model scan"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


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
    dp = build_diameter(bp, None, "conjugate")
    base = family.module.base_points(meta["n"]) if family else None
    ps = enumerate_points(dp, base_points=base, cap=args.cap, max_points=args.max_points)
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
        eps = as_rational(args.epsilon)
        if eps <= 0:
            raise ParseError("--epsilon must be positive")
    elif args.theoretical_epsilon:
        eps = theoretical_epsilon(bp, args.cap)
    dp = build_diameter(bp, eps, args.variant)
    constant_norm = family.constant_norm(n) if family and args.variant != "full" else None
    res = solve_diameter(dp, constant_norm=constant_norm, cap=args.cap)
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


def cmd_points(args) -> int:
    meta, ps = _paired_points(args)
    rows = ["".join(str(int(v)) for v in row) for row in ps.array]
    payload = dict(meta, ambient=ps.dim_ambient, count=ps.count, points=rows)
    lines = [f"# {meta['problem']} n={meta['n']} ambient={ps.dim_ambient} count={ps.count}"]
    lines += rows
    _emit(args, payload, lines)
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


def _parse_inequalities(path: str) -> list[Inequality]:
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
            a = tuple(as_rational(v) for v in item["a"])
            a0 = as_rational(item["a0"])
            sense = item.get("sense", "<=")
            label = item.get("label", f"ineq_{k + 1}")
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: inequality {k + 1}: {e}") from e
        out.append(Inequality(a, a0, sense, label))
    return out


def cmd_check_facet(args) -> int:
    ineqs = _parse_inequalities(args.inequalities)
    meta, ps = _paired_points(args)
    reports = []
    lines = []
    all_facets = True
    for q in ineqs:
        if len(q.a) != ps.dim_ambient:
            raise ParseError(
                f"inequality {q.label!r} has {len(q.a)} coefficients, ambient dimension is {ps.dim_ambient}"
            )
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
    p.add_argument("--n", type=int, help="instance size for lop/tsp (costs all zero)")
    p.add_argument("--instance", metavar="PATH", help="instance or model file")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help=_CAP_HELP + "; diameter cross-checks when 3n <= cap")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    _add_instance_flags(p)
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS, help="abort beyond this many points")
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
    p.add_argument("--epsilon", metavar="NUM/DEN", help="penalty override, e.g. 1/24")
    p.add_argument(
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
    except InfeasibleModelError as e:
        print(f"diamopt: infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DiamoptError as e:
        print(f"diamopt: verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError) as e:
        print(f"diamopt: input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
