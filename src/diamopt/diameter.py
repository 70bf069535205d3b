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

The exhaustive references scan the base program's 2^n points, never the
paired program's 2^(3n): diameter_by_enumeration reads the diameter off the
base optimal set, and paired_optimum, the default cross-check of
solve_diameter, computes the paired optimum from the base feasible set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bpcore import (
    DEFAULT_ENUM_CAP,
    BinaryProgram,
    feasible_blocks,
    objective_values,
    optimal_blocks,
    solve_bnb,
    support_masks,
)
from .errors import CapExceededError, DiamoptError, InfeasibleModelError
from .ratlinalg import as_rational, int_dtype, scaled_int_vector

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
    top: list[int] = []  # the two largest distinct scaled objective values
    for block in feasible_blocks(bp, cap):
        obj = objective_values(bp, block)
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
    e, z = [Fraction(0)] * n, [Fraction(0)] * n
    e[i], z[i] = Fraction(1), Fraction(1 if lower else -1)
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


def paired_optimum(dp: DiameterProgram, cap: int | None = None) -> Fraction | None:
    """Optimal objective of the paired program from the base feasible set,
    or None when that set is empty.

    At an optimum z is as small as its couplings allow, so a pair (x, y)
    scores c.x + c.y - eps*k, k counting agreements (full) or shared ones
    (conjugate).  (x*, x*) already scores 2v* - eps*n, v* the base optimum,
    so only x with c.x >= v* - eps*n can be half of an optimal pair.  Their
    pairs are scored in integers, and one Fraction is built at the end.
    Refuses (CapExceededError) when n > cap or when the candidate pairs
    exceed 2^cap, the budget of a 2^(3n) scan at 3n = cap.
    """
    bp, n = dp.base, dp.base.n
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    scale = scaled_int_vector(bp.c)[2]
    q, pen = dp.epsilon.denominator, dp.epsilon.numerator * scale  # eps * scale = pen / q
    top = max((objective_values(bp, b).max() for b in feasible_blocks(bp, cap)), default=None)
    if top is None:
        return None
    floor = int(top) - pen * n // q  # c.x >= v* - eps*n, on the scaled objective's integer grid
    halves = []
    for block in feasible_blocks(bp, cap):
        halves.append(block[objective_values(bp, block) >= floor])
        if (m := sum(map(len, halves))) ** 2 > 1 << cap:
            raise CapExceededError(f"{m}^2 candidate pairs exceed 2^{cap} (cap {cap})")
    dtype = int_dtype(2 * q * sum(map(abs, bp.scaled()[0])) + pen * n)  # scores times scale * q
    x = np.concatenate(halves)
    w, x = objective_values(bp, x).astype(dtype) * q, x.astype(np.int64)
    if dp.include_lower_coupling:  # agreements: shared ones plus shared zeros
        x = np.hstack([x, 1 - x])
    step = max(1, (1 << 16) // len(w))  # rows of a 2^16-pair score block
    best = max(
        (w[lo : lo + step, None] + w - pen * (x[lo : lo + step] @ x.T).astype(dtype)).max()
        for lo in range(0, len(w), step)
    )
    return Fraction(int(best), scale * q)


def solve_diameter(
    dp: DiameterProgram,
    constant_norm: int | None = None,
    cap: int | None = None,
    cross_check: bool | None = None,
) -> DiverseOptimaResult:
    """Solve the paired program exactly and read off the diverse pair.

    Branch and bound solves the base model once for its optimum v*, then the
    paired program with two more rows, c.x >= v* - eps*n and
    c.y >= v* - eps*n, on a solve-time copy; dp.derived stays the paper's
    program.  The rows cut no optimal pair, for any eps > 0: (x*, x*)
    scores 2v* - eps*n, and a pair scores at most c.x + v*, so every optimal
    pair has c.x >= v* - eps*n, and likewise c.y.  Cutting at v* itself
    would be wrong: with an oversized eps the optimal pair leaves the base
    optimal set.  The copy has the optimal set of dp.derived, and solve_bnb
    returns the lexicographically largest optimum, so the pair is the one
    the uncut program gives.

    The cross-check compares the paired objective value with
    paired_optimum, the same optimum computed from the base feasible set.
    Objective values only: with an oversized epsilon the solved halves may
    leave the base optimal set, and a conjugate solve only bounds the
    distance, so neither the optimal set nor diameter_by_enumeration is a
    valid reference.  The check runs by default when 3n <= cap, on the
    solves the 2^(3n) scan it replaces covered (cross_check=False skips it,
    True requires it); gating on n <= cap would add two 2^21 base scans,
    about 3 s each on a 2-core machine, to every 7-city tour solve.
    constant_norm is a caller-certified promise that every optimum of the
    base model has squared norm k; with it, a conjugate solve pins the
    distance to 2*(k - sum(z)) instead of only bounding it.
    """
    n, d = dp.base.n, dp.derived
    base = solve_bnb(dp.base)
    if base.status != "optimal":
        raise InfeasibleModelError("base model is infeasible; no diverse pair exists")
    floor = base.best.objective_value - dp.epsilon * n
    cuts = ((paired(n, x=dp.base.c), ">=", floor, "base_opt_x"), (paired(n, y=dp.base.c), ">=", floor, "base_opt_y"))
    report = solve_bnb(BinaryProgram(d.c, d.constraints + cuts, d.variable_names))

    if cross_check is None:
        cross_check = dp.derived.n <= (DEFAULT_ENUM_CAP if cap is None else cap)
    if cross_check:
        check = paired_optimum(dp, cap)
        if check != report.best.objective_value:
            raise DiamoptError(
                "solver disagreement: branch-and-bound found "
                f"{report.best.objective_value}, enumeration found "
                f"{'infeasible' if check is None else check}"
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


def diameter_by_enumeration(bp: BinaryProgram, cap: int | None = None) -> int:
    """max squared distance between two optima, straight from the optimal set."""
    masks = [m for block in optimal_blocks(bp, cap) for m in support_masks(block)]
    return max(((a ^ b).bit_count() for a, b in itertools.combinations(masks, 2)), default=0)


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
    def frac(q: Fraction) -> dict:
        return {"num": q.numerator, "den": q.denominator}

    d = {"variant": res.variant, "x": list(res.x_star), "y": list(res.y_star), "z": list(res.z_star)}
    d |= {"diameter": res.diameter, "epsilon": frac(res.epsilon), "base_objective": frac(res.base_objective)}
    if res.diameter_upper_bound is not None:
        d["diameter_upper_bound"] = res.diameter_upper_bound
    return d
