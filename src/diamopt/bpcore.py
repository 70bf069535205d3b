"""Binary programs in canonical maximization form, plus two exact solvers.

A model is max c.x subject to rational linear rows (<=, =, >=) over binary
variables.  Solvers never touch floating point: all comparisons run on
integer-scaled copies of the data, and reported objective values are exact
Fractions.  The exhaustive solver is the ground truth the branch-and-bound
is tested against; the branch and bound, given a slack, also collects every
near-optimal assignment (a solution pool).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import as_rational, int_dtype, scaled_int_vector

# row sense -> whether (lhs, rhs) satisfies it
HOLDS = {"<=": operator.le, "=": operator.eq, ">=": operator.ge}
SENSES = tuple(HOLDS)

DEFAULT_ENUM_CAP = 26
_ENUM_BLOCK = 1 << 16

# The largest solution pool solve_bnb returns, 2^13: its 2^26 pairs are the
# budget of a 2^DEFAULT_ENUM_CAP exhaustive scan.
POOL_LIMIT = math.isqrt(1 << DEFAULT_ENUM_CAP)


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
    # solve_bnb with slack >= 0: every feasible assignment whose scaled
    # value is within the slack of the optimum, in decreasing lexicographic
    # order; None otherwise, and when the pool passed its limit
    pool: tuple[tuple[int, ...], ...] | None = None


class BinaryProgram:
    """max c.x, rows over x in {0,1}^n.

    Coefficients are normalized to Fraction on construction; equalities and
    >= rows are stored as given (they are only split when exporting LP
    text).
    """

    __slots__ = ("n", "c", "constraints", "variable_names", "_scaled")

    def __init__(self, c: Sequence, constraints: Iterable = (), variable_names=None):
        self.c = tuple(map(as_rational, c))
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
            coeffs = tuple(map(as_rational, coeffs))
            if len(coeffs) != self.n:
                raise ValueError(f"row {k}: {len(coeffs)} coefficients, expected {self.n}")
            if sense not in SENSES:
                raise ValueError(f"row {k}: bad sense {sense!r}")
            rows.append(Constraint(coeffs, sense, as_rational(rhs), name or f"c{k + 1}"))
        self.constraints = tuple(rows)
        names = tuple(f"x_{i + 1}" for i in range(self.n)) if variable_names is None else tuple(variable_names)
        if len(names) != self.n:
            raise ValueError("variable_names length mismatch")
        if len(set(names)) != self.n:
            raise ValueError("variable_names must be unique")
        self.variable_names = names
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
    lhs = [sum(ai for ai, xi in zip(a, assignment) if xi) for a, _, _ in rows]
    return all(HOLDS[sense](v, b) for v, (_, sense, b) in zip(lhs, rows))


def bit_table(n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows lo to hi - 1 (by default all 2^n) of the table of every 0/1
    assignment of n columns in lexicographic order, as int64: row r is r in
    binary, the first column the most significant bit."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = np.arange(lo, 1 << n if hi is None else hi, dtype=np.int64)
    return (idx[:, None] >> shifts[None, :]) & 1


def feasible_blocks(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP):
    """Yield the feasible assignments as uint8 row blocks, in lexicographic
    order across and within blocks; each block holds at most 2^16 rows, so
    a caller can stop the scan as soon as it has seen enough.  This is the
    one exhaustive scan: every enumeration answer is read from it."""
    if bp.n > cap:
        raise CapExceededError(f"2^{bp.n} scan refused (cap {cap})")
    _, rows, dtype = bp.scaled()
    rows = [(np.array(a, dtype=dtype), HOLDS[sense], b) for a, sense, b in rows]
    total = 1 << bp.n
    for lo in range(0, total, _ENUM_BLOCK):
        bits = bit_table(bp.n, lo, min(lo + _ENUM_BLOCK, total))
        # each row tests only the assignments every earlier row kept;
        # boolean indexing keeps their order
        for a, holds, b in rows:
            bits = bits[holds(bits @ a, b)]
            if not len(bits):
                break
        else:  # no row emptied the block
            yield bits.astype(np.uint8)


def objective_values(bp: BinaryProgram, block: np.ndarray) -> np.ndarray:
    """c_int . x for each row x of a 0/1 block, exact in the dtype of
    bp.scaled(); c_int is c times a positive scale, so order is kept."""
    c_int, _, dtype = bp.scaled()
    return block @ np.array(c_int, dtype=dtype)


def support_masks(block: np.ndarray) -> list[int]:
    """Each row of a 0/1 block as an integer whose bits are its support,
    x_1 the most significant, so masks and rows sort alike."""
    n = block.shape[1]
    weights = np.array([1 << (n - 1 - i) for i in range(n)], dtype=int_dtype(1 << n))
    return (block @ weights).tolist()


def solve_enumerate(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Exhaustive 2^n scan; ties go to the lexicographically smallest
    maximizer."""
    best_val = best_assign = None
    for block in feasible_blocks(bp, cap):
        obj = objective_values(bp, block)
        k = int(np.argmax(obj))  # the first maximiser of the block
        if best_val is None or obj[k] > best_val:
            best_val, best_assign = obj[k], tuple(block[k].tolist())
    nodes = 1 << bp.n
    if best_assign is None:
        return SolveReport("infeasible", None, nodes)
    return SolveReport("optimal", Solution(best_assign, bp.objective_of(best_assign)), nodes)


def enumerate_feasible(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[int, ...]]:
    """All feasible assignments in lexicographic order."""
    return [tuple(row) for block in feasible_blocks(bp, cap) for row in block.tolist()]


def optimal_blocks(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> list[np.ndarray]:
    """Every optimal assignment as uint8 row blocks, in lexicographic order."""
    best_val, keep = None, []
    for block in feasible_blocks(bp, cap):
        obj = objective_values(bp, block)
        v = obj.max()
        if best_val is None or v > best_val:
            best_val, keep = v, []
        if v == best_val:
            keep.append(block[obj == v])
    if best_val is None:
        raise InfeasibleModelError("model has no feasible point")
    return keep


def enumerate_optimal_set(bp: BinaryProgram, cap: int = DEFAULT_ENUM_CAP) -> list[Solution]:
    """Every optimal assignment, lexicographically sorted."""
    rows = [tuple(row) for block in optimal_blocks(bp, cap) for row in block.tolist()]
    value = bp.objective_of(rows[0])
    return [Solution(row, value) for row in rows]


def _window(sense: str, rhs: int, lo: int, hi: int) -> tuple:
    """(bottom, top): the values of a row's fixed part that can still meet
    the row, when its free columns add anything from lo to hi.  An infinite
    end is one the sense leaves open; comparing it with an integer is exact."""
    return (-math.inf if sense == "<=" else rhs - hi, math.inf if sense == ">=" else rhs - lo)


def solve_bnb(bp: BinaryProgram, slack: int = -1) -> SolveReport:
    """Depth-first branch and bound, and with slack >= 0 a solution pool.

    Branches in variable index order, 1 before 0, so leaves are reached in
    decreasing lexicographic order.  A node is cut only when its bound is
    below best - slack, on the integer-scaled objective of bp.scaled(), best
    the incumbent value; only a strictly better leaf replaces the incumbent.
    With the default slack -1 this is "cut when the bound cannot beat the
    incumbent" (bounds are integers), so the search returns the
    lexicographically largest optimum: the subtree holding it is never cut.
    With slack s >= 0 no feasible x with c_int.x >= v* - s (v* the optimum)
    is ever cut, since every ancestor's bound is at least c_int.x, and the
    report's pool holds all of them, in decreasing lexicographic order (the
    solution pool of Danna, Fenelon, Gu and Wunderling, IPCO 2007).  Past
    POOL_LIMIT assignments within slack of the incumbent the pool is dropped
    (pool None) and the search goes on with slack -1, which still returns
    that largest optimum: every leaf before it is worse than v*, so nothing
    on its path is cut.  Always terminates, and agrees with solve_enumerate
    on status and objective value.  The search keeps its own stack, one
    frame per depth (the value to branch on next, the prefix value, the
    forced penalty), so Python's recursion limit does not bound the number
    of variables.

    A row is pruned as soon as its reachable value range excludes the
    right-hand side.  The bound at a node is the fixed prefix value, plus
    every positive objective coefficient among the free variables, plus the
    forced penalties: take a row whose last nonzero column j has c_j < 0;
    once its second-to-last column is fixed, x_j alone decides the row, and
    if x_j = 0 breaks it every completion sets x_j = 1 and pays c_j.  Each
    forced free variable adds its c_j once, until j is branched on and the
    gain charges it.  In a paired (x | y | z) program this charges z_i's
    penalty as soon as y_i is fixed.
    """
    n = bp.n
    c_int, rows, _ = bp.scaled()
    # obj_pos[d]: the sum of the positive objective coefficients from column d on
    obj_pos = list(itertools.accumulate(reversed([max(v, 0) for v in c_int]), initial=0))[::-1]

    # touched[d]: (row, coeff, bottom, top) for each row with a nonzero in
    # column d, its window once x_d is fixed; triggers[d]: (row, j, bottom,
    # top) for each row that x_j alone decides from depth d on, j its last
    # nonzero column and c_j < 0, its window with x_j = 0
    touched = [[] for _ in range(n)]
    triggers = [[] for _ in range(n + 1)]
    root = []
    for i, (a, sense, b) in enumerate(rows):
        cols = list(itertools.compress(range(n), a))
        lo = sum(a[d] for d in cols if a[d] < 0)
        hi = sum(a[d] for d in cols if a[d] > 0)
        root.append((i, 0, *_window(sense, b, lo, hi)))
        for d in cols:
            lo, hi = lo - min(a[d], 0), hi - max(a[d], 0)
            touched[d].append((i, a[d], *_window(sense, b, lo, hi)))
        if cols and c_int[cols[-1]] < 0:
            triggers[cols[-2] + 1 if len(cols) > 1 else 0].append((i, cols[-1], *_window(sense, b, 0, 0)))

    acc = [0] * len(rows)  # each row's value over the fixed columns

    def rows_ok(entries) -> bool:
        for i, _, bottom, top in entries:
            if not bottom <= acc[i] <= top:
                return False
        return True

    forced = [0] * n  # rows that force x_j = 1 at the current node
    bumped = [[] for _ in range(n + 1)]  # the variables triggers[d] forced

    def force(d: int) -> int:
        """Apply triggers[d]; return the penalty of the newly forced variables."""
        pen = 0
        for i, j, bottom, top in triggers[d]:
            if not bottom <= acc[i] <= top:  # x_j = 0 breaks the row
                forced[j] += 1
                bumped[d].append(j)
                if forced[j] == 1:
                    pen += c_int[j]
        return pen

    if not rows_ok(root):
        return SolveReport("infeasible", None, 1)
    assign = [0] * n
    obj = [0] * (n + 1)  # prefix value of the node at each depth
    pen = [force(0)] + [0] * n  # forced penalty of the node at each depth
    nxt = [1] * n  # next value to branch on at each depth; -1 when both are done
    best_val: int | None = None
    best_assign: tuple[int, ...] | None = None
    # (value, assignment) of every leaf reached while slack >= 0; entries
    # that fell out of the slack are dropped once it holds `trim` of them
    pool: list | None = [] if slack >= 0 else None
    trim = POOL_LIMIT
    nodes, d = 1, 0

    def undo(d: int) -> None:
        for j in bumped[d + 1]:
            forced[j] -= 1
        bumped[d + 1].clear()
        if assign[d]:
            for i, coeff, _, _ in touched[d]:
                acc[i] -= coeff
            assign[d] = 0

    while d >= 0:
        if d < n and nxt[d] >= 0:  # branch on x_d
            val = nxt[d]
            nxt[d] = val - 1
            if val:
                assign[d] = 1
                for i, coeff, _, _ in touched[d]:
                    acc[i] += coeff
            if rows_ok(touched[d]):
                obj[d + 1] = obj[d] + (c_int[d] if val else 0)
                pen[d + 1] = pen[d] - (c_int[d] if forced[d] else 0) + force(d + 1)
                if best_val is None or obj[d + 1] + obj_pos[d + 1] + pen[d + 1] >= best_val - slack:
                    nodes += 1
                    d += 1
                    continue
            undo(d)
            continue
        if d == n:
            # row checks along the path already pinned every row exactly, and
            # the bound check let in only leaves within slack of the incumbent
            leaf = tuple(assign)
            if best_val is None or obj[n] > best_val:
                best_val, best_assign = obj[n], leaf
            if pool is not None:
                pool.append((obj[n], leaf))
                if len(pool) > trim:
                    pool = [e for e in pool if e[0] >= best_val - slack]
                    if len(pool) > POOL_LIMIT:
                        pool, slack = None, -1
                    else:
                        trim = len(pool) + POOL_LIMIT  # trim again after POOL_LIMIT more leaves
        else:
            nxt[d] = 1
        d -= 1  # back to the parent
        if d >= 0:
            undo(d)

    if best_assign is None:
        return SolveReport("infeasible", None, nodes)
    if pool is not None:
        pool = tuple(a for v, a in pool if v >= best_val - slack)
        if len(pool) > POOL_LIMIT:
            pool = None
    return SolveReport("optimal", Solution(best_assign, bp.objective_of(best_assign)), nodes, pool)


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
