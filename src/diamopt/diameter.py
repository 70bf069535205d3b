"""Diverse optima via one exact solve.

Given max c.x over a feasible binary program, the derived program pairs two
copies x, y of the model with indicator variables z and charges each z_i a
small penalty epsilon.  For a small enough epsilon both halves of an optimal
solution are optimal for the base model and the pair is as far apart as two
optima can be.  At an optimum z is a function of the pair, so a result
stores only the pair and reads z, the distance and the bound off it.

Two couplings are available.  The full variant pins z_i = 1 exactly when
x_i = y_i, so n - sum(z) equals the squared distance of the returned pair.
The conjugate variant keeps only the upper coupling x_i + y_i - z_i <= 1,
pins z_i = 1 exactly when x_i = y_i = 1, and in general certifies an upper
bound n - sum(z); when every optimum has the same squared norm k (as in the
ordering and tour front ends) the distance is exactly 2*(k - sum(z)).

solve_diameter searches the paired space only as a fallback.  One pool
search over the base model (bpcore.solve_bnb with a slack) collects
every feasible x with c.x >= v* - eps*n, v* the base optimum; every half of
an optimal pair is among them.  Every pair of the pool is then scored
exactly, with z as small as its couplings allow, and the first best pair in
lexicographic order is the paired program's lexicographically largest
optimum.  Only when the pool passes bpcore.POOL_LIMIT halves is the paired
program itself solved, by branch and bound with both halves cut at v* - eps*n;
a full program whose = rows pin every feasible norm to k, 2k < n (tours, from
the front end or from LP text), is solved through its conjugate twin at 2*eps.

The exhaustive references scan the base program's 2^n points, never the
paired program's 2^(3n): diameter_by_enumeration reads the diameter off the
base optimal set, and paired_optimum, the cross-check of solve_diameter,
scores the pairs of the base feasible set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .bpcore import (
    DEFAULT_ENUM_CAP,
    BinaryProgram,
    SolveReport,
    feasible_blocks,
    objective_values,
    optimal_blocks,
    solve_bnb,
    support_masks,
)
from .errors import CapExceededError, DiamoptError, InfeasibleModelError
from .ratlinalg import _pivot_columns, as_rational, int_dtype, scaled_int_vector

@dataclass(frozen=True)
class DiameterProgram:
    base: BinaryProgram
    epsilon: Fraction
    variant: str  # "full" or "conjugate"

    @cached_property
    def derived(self) -> BinaryProgram:
        """The paired program over (x, y, z), built on first use.

        Rows come in blocks: base rows on the x copy, base rows on the y
        copy, the n upper couplings, and (full variant only) the n lower
        couplings.  The layout and the coupling rows come from paired and
        coupling, which the polyhedral certificates use as well.
        """
        bp, n = self.base, self.base.n
        c = paired(n, bp.c, bp.c, (-self.epsilon,) * n)
        names = [f"{v}_{block}" for block in "xyz" for v in bp.variable_names]
        rows = [(paired(n, x=con.coeffs), con.sense, con.rhs, con.name + "_x") for con in bp.constraints]
        rows += [(paired(n, y=con.coeffs), con.sense, con.rhs, con.name + "_y") for con in bp.constraints]
        rows += [(*coupling(n, i), f"pair_ub_{v}") for i, v in enumerate(bp.variable_names)]
        if self.variant == "full":
            rows += [(*coupling(n, i, lower=True), f"pair_lb_{v}") for i, v in enumerate(bp.variable_names)]
        return BinaryProgram(c, rows, names)


@dataclass(frozen=True)
class DiverseOptimaResult:
    """The pair a solve decides; z, the distance and the bound follow from it."""

    x_star: tuple[int, ...]
    y_star: tuple[int, ...]
    variant: str
    epsilon: Fraction
    base_objective: Fraction

    @property
    def z_star(self) -> tuple[int, ...]:
        """The least z the couplings allow: agreement (full) or shared ones (conjugate)."""
        if self.variant == "full":
            return tuple(int(a == b) for a, b in zip(self.x_star, self.y_star))
        return tuple(a & b for a, b in zip(self.x_star, self.y_star))

    @property
    def diameter(self) -> int:
        """Squared distance of the pair."""
        return sum(a != b for a, b in zip(self.x_star, self.y_star))

    @property
    def diameter_upper_bound(self) -> int | None:
        """n - sum(z) for a conjugate solve; None for a full one."""
        return None if self.variant == "full" else len(self.x_star) - sum(self.z_star)


def choose_epsilon(bp: BinaryProgram) -> Fraction:
    """Penalty that cannot disturb optimality of the x/y blocks: 1/(2nL),
    L the least common multiple of the objective's denominators (1 for an
    integer objective), the grid the objective lives on."""
    return Fraction(1, 2 * bp.n * scaled_int_vector(bp.c)[2])


def theoretical_epsilon(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> Fraction:
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
        return Fraction(1)
    # c_int is c times the scale of its denominators
    return Fraction(top[1] - top[0], scaled_int_vector(bp.c)[2] * bp.n)


def paired(n: int, x=None, y=None, z=None) -> tuple:
    """One row over the 3n paired coordinates (x | y | z) from n-wide
    blocks; a block left out is zero."""
    zero = (0,) * n
    return sum((zero if b is None else tuple(b) for b in (x, y, z)), ())


def split(v: tuple) -> tuple[tuple, tuple, tuple]:
    """The (x, y, z) blocks of a vector over the 3n paired coordinates."""
    n = len(v) // 3
    return v[:n], v[n : 2 * n], v[2 * n :]


def coupling(n: int, i: int, lower: bool = False) -> tuple[tuple[int, ...], str, int]:
    """Coupling row i as (coefficients, sense, rhs): the upper row
    x_i + y_i - z_i <= 1, or the lower row x_i + y_i + z_i >= 1."""
    e, z = [0] * n, [0] * n
    e[i], z[i] = 1, 1 if lower else -1
    return paired(n, e, e, z), ">=" if lower else "<=", 1


def build(bp: BinaryProgram, eps=None, variant: str = "full") -> DiameterProgram:
    """The paired program of bp with penalty eps (choose_epsilon by default);
    its rows, DiameterProgram.derived, are built on first use."""
    if variant not in ("full", "conjugate"):
        raise ValueError(f"unknown variant {variant!r}")
    eps_value = choose_epsilon(bp) if eps is None else as_rational(eps)
    if eps_value <= 0:
        raise ValueError("epsilon must be positive")
    return DiameterProgram(bp, eps_value, variant)


def _grid(dp: DiameterProgram) -> tuple[int, int, int]:
    """(scale, q, pen) with eps * scale = pen / q, scale the factor of the
    base model's scaled objective: scores times scale * q are integers."""
    scale = scaled_int_vector(dp.base.c)[2]
    return scale, dp.epsilon.denominator, dp.epsilon.numerator * scale


def score_dtype(dp: DiameterProgram):
    """numpy dtype of the pair scores of best_pair: int64 when their bound
    2*q*sum|c_int| + 2*pen*n fits int_dtype, Python integers otherwise."""
    _, q, pen = _grid(dp)
    return int_dtype(2 * q * sum(map(abs, dp.base.scaled()[0])) + 2 * pen * dp.base.n)


def best_pair(dp: DiameterProgram, halves: np.ndarray) -> tuple[int, int, Fraction]:
    """(i, j, value): the first best pair of rows of `halves` in row-major
    order, and its paired objective.

    halves is an m x n 0/1 array of feasible base points.  At an optimum z
    is as small as its couplings allow, so a pair (x, y) scores
    c.x + c.y - eps*k, k counting shared ones x.y (conjugate) or agreements
    n - |x| - |y| + 2 x.y (full).  Times scale * q that is
    u_x + u_y - a * x.y - shift, integers in score_dtype: u = q*w (plus
    pen*|x| in the full variant) with w the scaled objective, a = pen (2*pen),
    shift = 0 (pen*n).  x.y comes from one 0/1 matmul in float64 BLAS,
    exact because every entry and partial sum is an integer of at most n.
    """
    n = dp.base.n
    scale, q, pen = _grid(dp)
    dtype = score_dtype(dp)
    u = objective_values(dp.base, halves).astype(dtype) * q
    a, shift = pen, 0
    if dp.variant == "full":
        u = u + halves.sum(axis=1, dtype=np.int64).astype(dtype) * pen
        a, shift = 2 * pen, pen * n
    x = halves.astype(np.float64)
    step = max(1, (1 << 16) // len(u))  # rows of a 2^16-pair score block
    best = None
    for lo in range(0, len(u), step):
        shared = (x[lo : lo + step] @ x.T).astype(np.int64).astype(dtype, copy=False)
        score = u[lo : lo + step, None] + u - a * shared
        at = int(np.argmax(score))  # the first maximum of the block
        if best is None or score.flat[at] > best[0]:
            best = (score.flat[at], lo + at // len(u), at % len(u))
    value, i, j = best
    return i, j, Fraction(int(value) - shift, scale * q)


def paired_optimum(dp: DiameterProgram, cap: int = DEFAULT_ENUM_CAP) -> Fraction | None:
    """Optimal objective of the paired program from the base feasible set,
    or None when that set is empty.

    (x*, x*) already scores 2v* - eps*n, v* the base optimum, and a pair
    scores at most c.x + v*, so only x with c.x >= v* - eps*n can be half
    of an optimal pair.  best_pair scores their pairs.  Refuses
    (CapExceededError) when n > cap or when the candidate pairs exceed
    2^cap, the budget of a 2^(3n) scan at 3n = cap.
    """
    bp, n = dp.base, dp.base.n
    _, q, pen = _grid(dp)
    top = max((objective_values(bp, b).max() for b in feasible_blocks(bp, cap)), default=None)
    if top is None:
        return None
    floor = int(top) - pen * n // q  # c.x >= v* - eps*n, on the scaled objective's integer grid
    halves = []
    for block in feasible_blocks(bp, cap):
        halves.append(block[objective_values(bp, block) >= floor])
        if (m := sum(map(len, halves))) ** 2 > 1 << cap:
            raise CapExceededError(f"{m}^2 candidate pairs exceed 2^{cap} (cap {cap})")
    return best_pair(dp, np.concatenate(halves))[2]


def paired_search(dp: DiameterProgram, base_value: Fraction) -> SolveReport:
    """Branch and bound over the paired program plus the rows
    c.x >= v* - eps*n and c.y >= v* - eps*n, v* = base_value, on a
    solve-time copy of dp.derived.

    The rows cut no optimal pair, for any eps > 0 (see paired_optimum);
    cutting at v* itself would be wrong, since with an oversized eps the
    optimal pair leaves the base optimal set.  The copy has the optimal set
    of dp.derived, and solve_bnb returns the lexicographically largest
    optimum, so the pair is the one the uncut program gives.
    """
    n, d = dp.base.n, dp.derived
    floor = base_value - dp.epsilon * n
    cuts = ((paired(n, x=dp.base.c), ">=", floor, "base_opt_x"), (paired(n, y=dp.base.c), ">=", floor, "base_opt_y"))
    return solve_bnb(BinaryProgram(d.c, d.constraints + cuts, d.variable_names))


def _pinned_norm(bp: BinaryProgram, x) -> int | None:
    """|x|, for a feasible x, when the = rows give every feasible point that
    norm: the all-ones row is a rational combination of them exactly when
    adding it leaves their rank unchanged.  None otherwise; sufficient, not
    necessary, since a <=/>= pair of rows is not read as an = row."""
    eq = [a for a, sense, _ in bp.scaled()[1] if sense == "="]
    pinned = len(_pivot_columns(eq)) == len(_pivot_columns(eq + [(1,) * bp.n]))
    return sum(x) if pinned else None


def solve_diameter(
    dp: DiameterProgram,
    constant_norm: int | None = None,
    cap: int | None = DEFAULT_ENUM_CAP,
) -> DiverseOptimaResult:
    """Solve the paired program exactly and read off the diverse pair.

    Two phases.  One pool search over the base model, solve_bnb with slack
    pen*n // q (eps*n on the scaled objective's integer grid, see _grid),
    returns v* and every feasible x with c.x >= v* - eps*n, in decreasing
    lexicographic order; every half of an optimal pair is among them (see
    paired_optimum).  best_pair then scores every pair of the pool, and its
    first best pair in row-major order, with the least z its couplings
    allow, is the lexicographically largest optimum of dp.derived.  When
    the pool passes bpcore.POOL_LIMIT halves, paired_search solves the paired
    program instead and returns the same optimum; only that fallback reads
    a paired program's rows.  There a full solve whose = rows pin the norm
    to k with 2k < n (see _pinned_norm; tours, not orderings, where 2k = n)
    solves the conjugate program at penalty 2*eps: with |x| = |y| = k a
    pair agrees on n - 2k + 2x.y columns, so the two objectives differ by
    the constant eps*(n - 2k) and share their lexicographically largest
    optimum.

    The cross-check compares the paired objective value with
    paired_optimum, the same optimum computed from the base feasible set,
    so on the pool path it tests the pool search against the exhaustive
    scan.  Objective values only: with an oversized epsilon the solved
    halves may leave the base optimal set, and a conjugate solve only
    bounds the distance, so neither the optimal set nor
    diameter_by_enumeration is a valid reference.  The check runs exactly
    when 3n <= cap, on the solves the 2^(3n) scan it replaces covered, so
    cap is the one switch for exhaustive work; gating on n <= cap would add
    two 2^21 base scans to every 7-city tour solve.  cap=None reads as the
    default cap: perfbench/workloads.py still passes it.
    constant_norm, when given, is a claim that both halves have squared
    norm k, checked on the result (DiamoptError when broken); it decides
    nothing.
    """
    n = dp.base.n
    if cap is None:
        cap = DEFAULT_ENUM_CAP
    _, q, pen = _grid(dp)
    base = solve_bnb(dp.base, slack=pen * n // q)
    if base.status != "optimal":
        raise InfeasibleModelError("base model is infeasible; no diverse pair exists")
    if base.pool is None:
        k = _pinned_norm(dp.base, base.best.assignment) if dp.variant == "full" else None
        twin = k is not None and 2 * k < n
        solved = DiameterProgram(dp.base, 2 * dp.epsilon, "conjugate") if twin else dp
        report = paired_search(solved, base.best.objective_value)
        x, y, _ = split(report.best.assignment)
        value = report.best.objective_value - (dp.epsilon * (n - 2 * k) if twin else 0)
    else:
        i, j, value = best_pair(dp, np.array(base.pool, dtype=np.uint8))
        x, y = base.pool[i], base.pool[j]

    if 3 * n <= cap:
        check = paired_optimum(dp, cap)
        if check != value:
            raise DiamoptError(
                f"solver disagreement: branch-and-bound found {value}, enumeration found "
                f"{'infeasible' if check is None else check}"
            )

    if constant_norm is not None and not sum(x) == sum(y) == constant_norm:
        raise DiamoptError(f"constant-norm promise broken: |x|={sum(x)}, |y|={sum(y)}, claimed {constant_norm}")
    return DiverseOptimaResult(x, y, dp.variant, dp.epsilon, dp.base.objective_of(x))


def diameter_by_enumeration(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> int:
    """max squared distance between two optima, straight from the optimal set."""
    masks = [m for block in optimal_blocks(bp, cap) for m in support_masks(block)]
    return max(((a ^ b).bit_count() for a, b in itertools.combinations(masks, 2)), default=0)


def maximisers(items: list, value) -> list:
    """Every item of largest value(item), in input order."""
    values = [value(item) for item in items]
    best = max(values)
    return [item for item, v in zip(items, values) if v == best]


def verify_listed_diameter(bp: BinaryProgram, optima: list, to_incidence, distance) -> bool:
    """Conjugate diameter solve vs. brute force over a listed optimal set.

    `optima` lists every optimum of `bp` in the front end's own terms
    (rankings, tours), `to_incidence` maps one to its 0/1 vector and
    `distance` counts the pairs or edges two of them disagree on.  Both
    halves of the solved pair must be listed optima, and the certified
    distance must equal twice the largest distance over all listed pairs.
    """
    dp = build(bp, None, "conjugate")
    res = solve_diameter(dp)
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
