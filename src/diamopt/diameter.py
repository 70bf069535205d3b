"""Diverse optima via one exact solve.

Given max c.x over a feasible binary program, the derived program pairs two
copies x, y of the model with indicator variables z and charges each z_i a
small penalty epsilon.  For a small enough epsilon both halves of an optimal
solution are optimal for the base model and the pair is as far apart as two
optima can be; the z block then reads off the squared distance directly.

Two couplings are available.  The full variant pins z_i = 1 exactly when
x_i = y_i, so n - sum(z) equals the squared distance of the returned pair.
The conjugate variant keeps only the upper coupling x_i + y_i - z_i <= 1,
pins z_i = 1 exactly when x_i = y_i = 1, and in general certifies an upper
bound n - sum(z); when every optimum has the same squared norm k (as in the
ordering and tour front ends) the distance is exactly 2*(k - sum(z)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bpcore import (
    BinaryProgram,
    default_enum_cap,
    enumerate_optimal_set,
    feasible_blocks,
    solve_bnb,
    solve_enumerate,
)
from .errors import DiamoptError, InfeasibleModelError
from .ratlinalg import as_rational, scaled_int_vector

INTEGER_RULE = "integer-rule"
RATIONAL_RULE = "rational-rule"
THEORETICAL = "theoretical"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class EpsilonChoice:
    value: Fraction
    justification: str


@dataclass(frozen=True)
class DiameterProgram:
    base: BinaryProgram
    epsilon: Fraction
    epsilon_rule: str
    include_lower_coupling: bool
    derived: BinaryProgram

    @property
    def variant(self) -> str:
        return "full" if self.include_lower_coupling else "conjugate"


@dataclass(frozen=True)
class DiverseOptimaResult:
    x_star: tuple[int, ...]
    y_star: tuple[int, ...]
    z_star: tuple[int, ...]
    diameter: int
    variant: str
    epsilon: Fraction
    base_objective: Fraction
    diameter_upper_bound: int | None  # n - sum(z); carried for conjugate solves


def choose_epsilon(bp: BinaryProgram) -> EpsilonChoice:
    """Penalty that cannot disturb optimality of the x/y blocks.

    Integer objectives get 1/(2n).  Rational objectives get 1/(2nL) with L
    the least common multiple of the coefficient denominators, which scales
    the integer rule by the grid the objective lives on.
    """
    n = bp.n
    dens = [ci.denominator for ci in bp.c]
    if all(d == 1 for d in dens):
        return EpsilonChoice(Fraction(1, 2 * n), INTEGER_RULE)
    return EpsilonChoice(Fraction(1, 2 * n * math.lcm(*dens)), RATIONAL_RULE)


def theoretical_epsilon(bp: BinaryProgram, cap: int | None = None) -> EpsilonChoice:
    """Tight threshold from the optimality gap, by one exhaustive scan.

    Any epsilon at or below (best - second best)/n keeps the x/y blocks
    optimal.  When every feasible point is optimal there is no gap and any
    positive value works; 1 is returned.
    """
    c_int, _, dtype = bp.scaled()
    c_vec = np.array(c_int, dtype=dtype)
    top: list[int] = []  # the two largest distinct scaled objective values
    for block in feasible_blocks(bp, cap):
        obj = block @ c_vec
        top.append(int(obj.max()))
        below = obj[obj < top[-1]]
        if below.size:
            top.append(int(below.max()))
        top = sorted(set(top))[-2:]
    if not top:
        raise InfeasibleModelError("model has no feasible point")
    if len(top) == 1:
        return EpsilonChoice(Fraction(1), THEORETICAL)
    # c_int is c times the scale of its denominators
    return EpsilonChoice(Fraction(top[1] - top[0], scaled_int_vector(bp.c)[2] * bp.n), THEORETICAL)


def paired(n: int, x=None, y=None, z=None) -> tuple[Fraction, ...]:
    """One row over the 3n paired coordinates (x | y | z) from n-wide
    blocks; a block left out is zero."""
    zero = (Fraction(0),) * n
    return sum((zero if b is None else tuple(b) for b in (x, y, z)), ())


def split(v: tuple) -> tuple[tuple, tuple, tuple]:
    """The (x, y, z) blocks of a vector over the 3n paired coordinates."""
    n = len(v) // 3
    return v[:n], v[n : 2 * n], v[2 * n :]


def coupling(n: int, i: int, lower: bool = False) -> tuple[tuple[Fraction, ...], str, Fraction]:
    """Coupling row i as (coefficients, sense, rhs): the upper row
    x_i + y_i - z_i <= 1, or the lower row x_i + y_i + z_i >= 1."""
    e = [Fraction(0)] * n
    e[i] = Fraction(1)
    z = e if lower else [-v for v in e]
    return paired(n, e, e, z), ">=" if lower else "<=", Fraction(1)


def build(bp: BinaryProgram, eps=None, variant: str = "full") -> DiameterProgram:
    """Assemble the paired program over (x, y, z).

    Rows come in blocks: base rows on the x copy, base rows on the y copy,
    the n upper couplings, and (full variant only) the n lower couplings.
    The layout and the coupling rows come from paired and coupling, which
    the polyhedral certificates use as well.
    """
    if variant not in ("full", "conjugate"):
        raise ValueError(f"unknown variant {variant!r}")
    if eps is None:
        eps = choose_epsilon(bp)
    if isinstance(eps, EpsilonChoice):
        eps_value, rule = eps.value, eps.justification
    else:
        eps_value, rule = as_rational(eps), USER_SUPPLIED
    if eps_value <= 0:
        raise ValueError("epsilon must be positive")
    n = bp.n
    c = paired(n, bp.c, bp.c, (-eps_value,) * n)
    names = [f"{v}_{block}" for block in "xyz" for v in bp.variable_names]
    rows = [(paired(n, x=con.coeffs), con.sense, con.rhs, con.name + "_x") for con in bp.constraints]
    rows += [(paired(n, y=con.coeffs), con.sense, con.rhs, con.name + "_y") for con in bp.constraints]
    rows += [(*coupling(n, i), f"pair_ub_{v}") for i, v in enumerate(bp.variable_names)]
    if variant == "full":
        rows += [(*coupling(n, i, lower=True), f"pair_lb_{v}") for i, v in enumerate(bp.variable_names)]
    derived = BinaryProgram(c, rows, names)
    return DiameterProgram(bp, eps_value, rule, variant == "full", derived)


def verify_z_semantics(res: DiverseOptimaResult) -> bool:
    """z reads off agreement (full) or shared support (conjugate)."""
    if res.variant == "full":
        return all(z == (x == y) for x, y, z in zip(res.x_star, res.y_star, res.z_star))
    return all(z == (x == 1 == y) for x, y, z in zip(res.x_star, res.y_star, res.z_star))


def solve_diameter(
    dp: DiameterProgram,
    constant_norm: int | None = None,
    cap: int | None = None,
    cross_check: bool | None = None,
) -> DiverseOptimaResult:
    """Solve the paired program exactly and read off the diverse pair.

    Runs branch and bound, cross-checked against the exhaustive scan
    whenever the derived model fits under the enumeration cap (pass
    cross_check=False to skip, True to require).  constant_norm is a
    caller-certified promise that every optimum of the base model has
    squared norm k; with it, a conjugate solve pins the distance to
    2*(k - sum(z)) instead of only bounding it.
    """
    n = dp.base.n
    report = solve_bnb(dp.derived)
    if report.status != "optimal":
        raise InfeasibleModelError("base model is infeasible; no diverse pair exists")

    resolved_cap = default_enum_cap() if cap is None else cap
    if cross_check is None:
        cross_check = dp.derived.n <= resolved_cap
    if cross_check:
        check = solve_enumerate(dp.derived, cap)
        if check.status != "optimal" or check.best.objective_value != report.best.objective_value:
            raise DiamoptError(
                "solver disagreement: branch-and-bound found "
                f"{report.best.objective_value}, enumeration found "
                f"{check.best.objective_value if check.best else check.status}"
            )

    x, y, z = split(report.best.assignment)
    diameter = sum(1 for a, b in zip(x, y) if a != b)
    z_sum = sum(z)
    res = DiverseOptimaResult(
        x_star=x,
        y_star=y,
        z_star=z,
        diameter=diameter,
        variant=dp.variant,
        epsilon=dp.epsilon,
        base_objective=dp.base.objective_of(x),
        diameter_upper_bound=None if dp.include_lower_coupling else n - z_sum,
    )
    if not verify_z_semantics(res):
        raise DiamoptError("optimal z block does not match its variant semantics")
    if dp.variant == "full" and diameter != n - z_sum:
        raise DiamoptError(f"identity violated: distance {diameter} != n - sum(z) = {n - z_sum}")
    if constant_norm is not None:
        k = constant_norm
        if sum(x) != k or sum(y) != k:
            raise DiamoptError(
                f"constant-norm promise broken: |x|={sum(x)}, |y|={sum(y)}, claimed {k}"
            )
        if dp.variant == "conjugate" and diameter != 2 * (k - z_sum):
            raise DiamoptError(
                f"identity violated: distance {diameter} != 2*(k - sum(z)) = {2 * (k - z_sum)}"
            )
    return res


def support_mask(x) -> int:
    """The 0/1 vector x as an integer: bit i is set iff x_i = 1."""
    return sum(1 << i for i, v in enumerate(x) if v)


def diameter_by_enumeration(bp: BinaryProgram, cap: int | None = None) -> int:
    """max squared distance between two optima, straight from the optimal set."""
    masks = [support_mask(s.assignment) for s in enumerate_optimal_set(bp, cap)]
    best = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            d = (masks[i] ^ masks[j]).bit_count()
            if d > best:
                best = d
    return best


def maximisers(items: list, value) -> list:
    """Every item of largest value(item), in input order."""
    values = [value(item) for item in items]
    best = max(values)
    return [item for item, v in zip(items, values) if v == best]


def verify_listed_diameter(
    bp: BinaryProgram, constant_norm: int, optima: list, to_incidence, distance
) -> bool:
    """Conjugate diameter solve vs. brute force over a listed optimal set.

    `optima` lists every optimum of `bp` in the front end's own terms
    (rankings, tours), `to_incidence` maps one to its 0/1 vector and
    `distance` counts the pairs or edges two of them disagree on.  Both
    halves of the solved pair must be listed optima, and the certified
    distance must equal twice the largest distance over all listed pairs.
    """
    dp = build(bp, choose_epsilon(bp), "conjugate")
    res = solve_diameter(dp, constant_norm=constant_norm, cross_check=False)
    listed = {to_incidence(p) for p in optima}
    if res.x_star not in listed or res.y_star not in listed:
        return False
    return res.diameter == 2 * max(distance(p, q) for p, q in itertools.product(optima, optima))


def result_to_dict(res: DiverseOptimaResult) -> dict:
    d = {
        "variant": res.variant,
        "epsilon": {"num": res.epsilon.numerator, "den": res.epsilon.denominator},
        "x": list(res.x_star),
        "y": list(res.y_star),
        "z": list(res.z_star),
        "diameter": res.diameter,
        "base_objective": {
            "num": res.base_objective.numerator,
            "den": res.base_objective.denominator,
        },
    }
    if res.diameter_upper_bound is not None:
        d["diameter_upper_bound"] = res.diameter_upper_bound
    return d
