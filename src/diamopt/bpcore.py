"""Binary programs in canonical maximization form, plus two exact solvers.

A model is max c.x subject to rational linear rows (<=, =, >=) over binary
variables.  Solvers never touch floating point: all comparisons run on
integer-scaled copies of the data, and reported objective values are exact
Fractions.  The exhaustive solver is the ground truth the branch-and-bound
is tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import as_rational, int_dtype, scaled_int_vector

SENSES = ("<=", "=", ">=")

DEFAULT_ENUM_CAP = 26
_ENUM_BLOCK = 1 << 16


def default_enum_cap() -> int:
    """Enumeration cap; override with the DIAMOPT_ENUM_CAP env var."""
    v = os.environ.get("DIAMOPT_ENUM_CAP")
    return int(v) if v else DEFAULT_ENUM_CAP


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction
    name: str = ""


@dataclass(frozen=True)
class Solution:
    assignment: tuple[int, ...]
    objective_value: Fraction


@dataclass(frozen=True)
class SolveReport:
    status: str  # "optimal" | "infeasible"
    best: Solution | None
    nodes_explored: int


class BinaryProgram:
    """max c.x, rows over x in {0,1}^n.

    Coefficients are normalized to Fraction on construction; equalities and
    >= rows are stored as given (they are only split when exporting LP
    text).
    """

    __slots__ = ("n", "c", "constraints", "variable_names", "_scaled")

    def __init__(self, c: Sequence, constraints: Iterable = (), variable_names=None):
        self.c = tuple(as_rational(v) for v in c)
        self.n = len(self.c)
        if self.n < 1:
            raise ValueError("need at least one variable")
        rows = []
        for k, con in enumerate(constraints):
            if isinstance(con, Constraint):
                coeffs, sense, rhs, name = con.coeffs, con.sense, con.rhs, con.name
            else:
                coeffs, sense, rhs = con[0], con[1], con[2]
                name = con[3] if len(con) > 3 else ""
            coeffs = tuple(as_rational(v) for v in coeffs)
            if len(coeffs) != self.n:
                raise ValueError(f"row {k}: {len(coeffs)} coefficients, expected {self.n}")
            if sense not in SENSES:
                raise ValueError(f"row {k}: bad sense {sense!r}")
            rows.append(Constraint(coeffs, sense, as_rational(rhs), name or f"c{k + 1}"))
        self.constraints = tuple(rows)
        if variable_names is None:
            variable_names = tuple(f"x_{i + 1}" for i in range(self.n))
        else:
            variable_names = tuple(variable_names)
            if len(variable_names) != self.n:
                raise ValueError("variable_names length mismatch")
            if len(set(variable_names)) != self.n:
                raise ValueError("variable_names must be unique")
        self.variable_names = variable_names
        self._scaled = None

    def __eq__(self, other):
        return (
            isinstance(other, BinaryProgram)
            and self.c == other.c
            and self.constraints == other.constraints
            and self.variable_names == other.variable_names
        )

    def __repr__(self):
        return f"BinaryProgram(n={self.n}, rows={len(self.constraints)})"

    def objective_of(self, assignment: Sequence[int]) -> Fraction:
        return sum((ci for ci, xi in zip(self.c, assignment) if xi), Fraction(0))

    def scaled(self):
        """Integer-scaled copy (c_int, rows, dtype) with rows = (coeffs, sense, rhs).

        Each row and the objective are scaled by their own positive factor,
        so feasibility and argmax are preserved exactly.  dtype is the numpy
        dtype that holds every dot product with a 0/1 vector and every
        right-hand side exactly: int64 when the model's sums of |coefficient|
        allow it, object (Python integers) otherwise.
        """
        if self._scaled is None:
            c_int, _, _ = scaled_int_vector(self.c)
            rows = []
            bound = sum(map(abs, c_int))
            for con in self.constraints:
                a, b, _ = scaled_int_vector(con.coeffs, con.rhs)
                rows.append((a, con.sense, b))
                bound = max(bound, sum(map(abs, a)), abs(b))
            self._scaled = (c_int, tuple(rows), int_dtype(bound))
        return self._scaled


def is_feasible(bp: BinaryProgram, assignment: Sequence[int]) -> bool:
    if len(assignment) != bp.n:
        raise ValueError("assignment length mismatch")
    if any(x not in (0, 1) for x in assignment):
        raise ValueError("assignment must be 0/1")
    _, rows, _ = bp.scaled()
    for a, sense, b in rows:
        v = sum(ai for ai, xi in zip(a, assignment) if xi)
        if sense == "<=" and v > b:
            return False
        if sense == "=" and v != b:
            return False
        if sense == ">=" and v < b:
            return False
    return True


def _require_cap(n: int, cap: int | None) -> int:
    cap = default_enum_cap() if cap is None else cap
    if n > cap:
        raise CapExceededError(f"2^{n} scan refused (cap {cap})")
    return cap


def _bit_blocks(n: int):
    """Yield (index_array, bit_matrix) blocks covering all 2^n assignments.

    Index order equals lexicographic order of the assignment tuples because
    x_1 is the most significant bit.
    """
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    total = 1 << n
    for lo in range(0, total, _ENUM_BLOCK):
        idx = np.arange(lo, min(lo + _ENUM_BLOCK, total), dtype=np.int64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int64)
        yield idx, bits


def _feasible_mask(bp: BinaryProgram, bits: np.ndarray) -> np.ndarray:
    _, rows, dtype = bp.scaled()
    mask = np.ones(bits.shape[0], dtype=bool)
    for a, sense, b in rows:
        vals = bits @ np.array(a, dtype=dtype)
        if sense == "<=":
            mask &= vals <= b
        elif sense == "=":
            mask &= vals == b
        else:
            mask &= vals >= b
        if not mask.any():
            break
    return mask


def solve_enumerate(bp: BinaryProgram, cap: int | None = None) -> SolveReport:
    """Exhaustive 2^n scan; ties go to the lexicographically smallest
    maximizer."""
    _require_cap(bp.n, cap)
    c_int, _, dtype = bp.scaled()
    c_vec = np.array(c_int, dtype=dtype)
    best_val = None
    best_assign = None
    for _, bits in _bit_blocks(bp.n):
        mask = _feasible_mask(bp, bits)
        if not mask.any():
            continue
        feas = bits[mask]
        obj = feas @ c_vec
        k = int(np.argmax(obj))
        v = int(obj[k])
        if best_val is None or v > best_val:
            best_val = v
            best_assign = tuple(int(x) for x in feas[k])
    nodes = 1 << bp.n
    if best_assign is None:
        return SolveReport("infeasible", None, nodes)
    return SolveReport("optimal", Solution(best_assign, bp.objective_of(best_assign)), nodes)


def enumerate_feasible(bp: BinaryProgram, cap: int | None = None) -> list[tuple[int, ...]]:
    """All feasible assignments in lexicographic order."""
    _require_cap(bp.n, cap)
    out = []
    for _, bits in _bit_blocks(bp.n):
        mask = _feasible_mask(bp, bits)
        if mask.any():
            out.extend(tuple(int(x) for x in row) for row in bits[mask])
    return out


def enumerate_optimal_set(bp: BinaryProgram, cap: int | None = None) -> list[Solution]:
    """Every optimal assignment, lexicographically sorted."""
    _require_cap(bp.n, cap)
    c_int, _, dtype = bp.scaled()
    c_vec = np.array(c_int, dtype=dtype)
    best_val = None
    keep: list[tuple[int, np.ndarray]] = []  # (scaled obj, feasible block rows)
    for _, bits in _bit_blocks(bp.n):
        mask = _feasible_mask(bp, bits)
        if not mask.any():
            continue
        feas = bits[mask]
        obj = feas @ c_vec
        v = int(obj.max())
        if best_val is None or v > best_val:
            best_val = v
            keep = [(v, feas[obj == v])]
        elif v == best_val:
            keep.append((v, feas[obj == best_val]))
    if best_val is None:
        raise InfeasibleModelError("model has no feasible point")
    sols = []
    for _, block in keep:
        for row in block:
            assign = tuple(int(x) for x in row)
            sols.append(Solution(assign, bp.objective_of(assign)))
    return sols


def solve_bnb(bp: BinaryProgram) -> SolveReport:
    """Depth-first branch and bound.

    Branches in variable index order, 1 before 0.  The bound at a node is
    the fixed prefix value plus all positive objective coefficients among
    the free variables; rows are pruned as soon as their reachable value
    range excludes the right-hand side.  Always terminates, and agrees with
    solve_enumerate on status and objective value.
    """
    n = bp.n
    c_int, rows, _ = bp.scaled()
    m = len(rows)

    # suffix_neg/pos[i][d] = sum of negative/positive coefficients of row i
    # over variables d..n-1
    suffix_neg = []
    suffix_pos = []
    for a, _, _ in rows:
        sn = [0] * (n + 1)
        sp = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            sn[d] = sn[d + 1] + (a[d] if a[d] < 0 else 0)
            sp[d] = sp[d + 1] + (a[d] if a[d] > 0 else 0)
        suffix_neg.append(sn)
        suffix_pos.append(sp)
    obj_pos = [0] * (n + 1)
    for d in range(n - 1, -1, -1):
        obj_pos[d] = obj_pos[d + 1] + (c_int[d] if c_int[d] > 0 else 0)

    touched = [[] for _ in range(n)]  # var -> [(row index, coeff)]
    for i, (a, _, _) in enumerate(rows):
        for d, coeff in enumerate(a):
            if coeff:
                touched[d].append((i, coeff))

    senses = [s for _, s, _ in rows]
    rhs = [b for _, _, b in rows]
    acc = [0] * m
    assign = [0] * n
    best_val: int | None = None
    best_assign: tuple[int, ...] | None = None
    nodes = 0

    def rows_ok(row_ids, depth) -> bool:
        for i in row_ids:
            lo = acc[i] + suffix_neg[i][depth]
            hi = acc[i] + suffix_pos[i][depth]
            s = senses[i]
            if s == "<=":
                if lo > rhs[i]:
                    return False
            elif s == "=":
                if lo > rhs[i] or hi < rhs[i]:
                    return False
            else:
                if hi < rhs[i]:
                    return False
        return True

    all_rows = range(m)

    def rec(d: int, obj_acc: int):
        nonlocal best_val, best_assign, nodes
        nodes += 1
        if d == n:
            # row checks along the path already pinned every row exactly
            best_val = obj_acc
            best_assign = tuple(assign)
            return
        ids = [i for i, _ in touched[d]]
        for val in (1, 0):
            assign[d] = val
            if val:
                for i, coeff in touched[d]:
                    acc[i] += coeff
                gain = c_int[d]
            else:
                gain = 0
            ok = rows_ok(ids, d + 1)
            if ok and best_val is not None and obj_acc + gain + obj_pos[d + 1] <= best_val:
                ok = False
            if ok:
                rec(d + 1, obj_acc + gain)
            if val:
                for i, coeff in touched[d]:
                    acc[i] -= coeff
        assign[d] = 0

    if rows_ok(all_rows, 0):
        rec(0, 0)
    else:
        nodes = 1

    if best_assign is None:
        return SolveReport("infeasible", None, nodes)
    return SolveReport("optimal", Solution(best_assign, bp.objective_of(best_assign)), nodes)


def random_binary_program(rng, max_n: int = 10, max_rows: int = 6) -> BinaryProgram:
    """Small random integer model from a seeded random.Random.

    Right-hand sides are drawn from each row's reachable range, so most
    draws are feasible, but equality rows can still make a model empty;
    callers that need feasibility should check and redraw.
    """
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_rows)
    c = [rng.randint(-5, 5) for _ in range(n)]
    constraints = []
    for _ in range(m):
        a = [rng.randint(-4, 4) for _ in range(n)]
        lo = sum(v for v in a if v < 0)
        hi = sum(v for v in a if v > 0)
        constraints.append(Constraint(a, rng.choice(SENSES), rng.randint(lo, hi)))
    return BinaryProgram(c, constraints)
