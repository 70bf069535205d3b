"""Binary programs in canonical maximization form, plus two exact solvers.

A model is max c.x subject to rational linear rows (<=, =, >=) over binary
variables.  Solvers never touch floating point: all comparisons run on
integer-scaled copies of the data, and reported objective values are exact
Fractions.  The exhaustive solver is the ground truth the branch-and-bound
is tested against; the branch and bound, given a slack, also collects every
near-optimal assignment (a solution pool).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import as_rational, as_rationals, int_dtype, scaled_int_vector

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
    """One row coeffs . x (<=, =, >=) rhs, its numbers brought to
    as_rational's normal form on construction: an int for an integer
    value, a lowest-terms Fraction otherwise.  It is the one row type: a
    front end's build solves the very rows the polyhedral suites certify."""

    coeffs: tuple[int | Fraction, ...]
    sense: str
    rhs: int | Fraction
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_rationals(self.coeffs))
        object.__setattr__(self, "rhs", as_rational(self.rhs))
        if self.sense not in HOLDS:
            raise ValueError(f"bad sense {self.sense!r}")


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

    Every number is in as_rational's normal form: the objective is brought
    to it here, and a row by Constraint, so an all-integer model holds no
    Fraction.  The Constraint rows given are stored as they are (a tuple
    row is made one, an unlabelled row is labelled c1, c2, ...);
    equalities and >= rows are only split when exporting LP text.
    """

    __slots__ = ("n", "c", "constraints", "variable_names", "_scaled")

    def __init__(self, c: Sequence, constraints: Iterable = (), variable_names=None):
        self.c = as_rationals(c)
        self.n = len(self.c)
        if self.n < 1:
            raise ValueError("need at least one variable")
        rows = []
        for k, con in enumerate(constraints):
            if not isinstance(con, Constraint):
                con = Constraint(*con)
            if len(con.coeffs) != self.n:
                raise ValueError(f"row {k}: {len(con.coeffs)} coefficients, expected {self.n}")
            rows.append(con if con.label else replace(con, label=f"c{k + 1}"))
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
        # summed as ints while the coefficients are ints
        return Fraction(sum(ci for ci, xi in zip(self.c, assignment) if xi))

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


# The most table entries, counted as columns x (ones + 1), a cardinality
# row of solve_bnb's bound may take; a larger row is left out, which only
# weakens the bound.  Every row of at most 255 columns fits.
CARD_TABLE_LIMIT = 1 << 16


def _cardinality_rows(c_int, rows) -> list:
    """(row index, t, columns) for each row solve_bnb bounds by cardinality:
    an = row whose nonzero coefficients all equal some t > 0 and whose
    right-hand side b is a multiple of t from 0 to t * columns, so exactly
    b/t of its columns are 1.  A row whose columns all cost 0 adds nothing
    to the bound and is left out, as is one past CARD_TABLE_LIMIT."""
    out = []
    for i, (a, sense, b) in enumerate(rows):
        if sense != "=":
            continue
        cols = [j for j, v in enumerate(a) if v]
        if not cols or not any(c_int[j] for j in cols):
            continue
        t = a[cols[0]]
        if t > 0 and all(a[j] == t for j in cols) and b % t == 0 and 0 <= b // t <= len(cols):
            if len(cols) * (b // t + 1) <= CARD_TABLE_LIMIT:
                out.append((i, t, cols))
    return out


def _share_tables(shares: list, ones: int) -> list:
    """tables[f][m]: the sum of the m largest of shares[f:], for m up to
    min(len(shares) - f, ones)."""
    desc: list = []  # the negated shares of the current suffix, ascending
    tables = [[0]]
    for s in reversed(shares):
        bisect.insort(desc, -s)
        tables.append(list(itertools.accumulate((-v for v in desc[:ones]), initial=0)))
    return tables[::-1]


def solve_bnb(bp: BinaryProgram, slack: int = -1) -> SolveReport:
    """Depth-first branch and bound, and with slack >= 0 a solution pool.

    Branches in variable index order, 1 before 0, so leaves are reached in
    decreasing lexicographic order.  A node is cut only when its bound is
    below best - slack, on the integer-scaled objective of bp.scaled(), best
    the incumbent value; only a strictly better leaf replaces the incumbent.
    With the default slack -1 this is "cut when the bound cannot beat the
    incumbent" (values are integers), so the search returns the
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
    rest of the bound), so Python's recursion limit does not bound the
    number of variables.

    A row is pruned as soon as its reachable value range excludes the
    right-hand side, and each branch checks only the rows it can break
    (activity-based row checks, as in Achterberg's Constraint Integer
    Programming, 2007): x_d = 0 leaves the row's value where it is, so only
    a row whose range end moved is checked, and x_d = 1 is checked only
    against the end the value moves toward.  A <= row with positive
    coefficients is never checked at x_d = 0.  The bound at a node is the
    fixed prefix value, plus every positive objective coefficient among the
    free uncovered variables, plus the forced columns' charges, plus the
    cardinality rows' shares.
    Forced columns: once a row's second-to-last nonzero column is fixed,
    its last one j alone decides the row, and when only one value of x_j
    meets it, every completion sets x_j to that value.  Only that value is
    branched on at depth j, and a column forced both ways has no feasible
    completion, so the node is cut (at the root: infeasible after 1 node).
    An uncovered forced column is charged once, until j is branched on and
    the gain counts it: min(c_j, 0) when forced to 1, -max(c_j, 0) when
    forced to 0.  Forced values never enter the rows' fixed parts, which
    the cardinality rows' `need` reads.  On an ordering, fixing x_ij forces
    x_ji = 1 - x_ij at once, so a broken 3-dicycle row is seen at the
    column that breaks it; in a paired (x | y | z) program z_i's penalty is
    charged as soon as y_i is fixed.

    Cardinality rows (see _cardinality_rows) are = rows with one positive
    coefficient t: at a node, exactly need = (b - fixed part) / t of the
    row's free columns are 1 in every feasible completion.  A column in
    k_j of them is covered and split into k_j integer shares
    c_j * L / k_j, L the lcm of the k_j, so the covered free columns of a
    completion are worth, times L, the sum over rows of its ones' shares,
    and each row's part is at most its `need` largest free shares.  The
    search therefore runs on the objective times L: the bound is those
    shares plus L times the rest, compared with L * (best - slack) in
    Python integers.  Covered columns leave the positive sum and the forced
    charges, so no value is counted twice.  On the pick-one rows of an
    ordering this is the bound sum(max(w_ij, w_ji)), on the degree rows of
    a tour half of every city's two best edges.  Free columns are a suffix
    of each row, so each row's largest-share sums are tabled once by (its
    columns fixed, its ones needed) and a node reads one entry per row
    through x_d.  The bound holds for every completion, so optima and pools
    are those of the search without it; only fewer nodes are visited.
    """
    n = bp.n
    c_int, rows, _ = bp.scaled()
    card = _cardinality_rows(c_int, rows)
    cover = [0] * n  # the cardinality rows through each column
    for _, _, cols in card:
        for j in cols:
            cover[j] += 1
    # the search runs on the objective times scale, so every share is an integer
    scale = math.lcm(*(k for k in cover if k))
    c_int = [v * scale for v in c_int]
    slack *= scale
    # obj_pos[d]: the sum of the positive objective coefficients of the
    # uncovered columns from d on
    free_pos = [0 if k else max(v, 0) for v, k in zip(c_int, cover)]
    obj_pos = list(itertools.accumulate(reversed(free_pos), initial=0))[::-1]

    # shares[d]: (row, t, b, before, after) for each cardinality row through
    # column d, its share tables with x_d free and with x_d fixed
    shares = [[] for _ in range(n)]
    card_root = 0  # the cardinality rows' part of the root bound
    for i, t, cols in card:
        b = rows[i][2]
        tables = _share_tables([c_int[j] // cover[j] for j in cols], b // t)
        card_root += tables[0][b // t]
        for f, j in enumerate(cols):
            shares[j].append((i, t, b, tables[f], tables[f + 1]))

    # touched[d]: (row, coeff) for each row with a nonzero in column d;
    # checks[v][d]: (row, bottom, top) for each row that x_d = v can break,
    # its window once x_d is fixed, with the end x_d = v cannot cross made
    # infinite; triggers[d]: (row, j, coeff, bottom, top) for each row that
    # x_j alone decides from depth d on, j its last nonzero column, its
    # window with x_j = 0
    touched = [[] for _ in range(n)]
    checks = ([[] for _ in range(n)], [[] for _ in range(n)])
    triggers = [[] for _ in range(n + 1)]
    root = []
    for i, (a, sense, b) in enumerate(rows):
        cols = list(itertools.compress(range(n), a))
        lo = sum(a[d] for d in cols if a[d] < 0)
        hi = sum(a[d] for d in cols if a[d] > 0)
        root.append((i, *_window(sense, b, lo, hi)))
        # every node's rows lie in their windows (the root check, then
        # these).  x_d = 0 keeps acc and moves the window's end on coeff's
        # side: the bottom b - hi up for coeff > 0, the top b - lo down for
        # coeff < 0.  x_d = 1 moves acc with that end, toward the other one.
        # So each value checks one end, and only an end the sense has.
        for d in cols:
            coeff = a[d]
            touched[d].append((i, coeff))
            if coeff > 0:
                hi -= coeff
                if sense != "<=":
                    checks[0][d].append((i, b - hi, math.inf))
                if sense != ">=":
                    checks[1][d].append((i, -math.inf, b - lo))
            else:
                lo -= coeff
                if sense != ">=":
                    checks[0][d].append((i, -math.inf, b - lo))
                if sense != "<=":
                    checks[1][d].append((i, b - hi, math.inf))
        if cols:
            j = cols[-1]
            triggers[cols[-2] + 1 if len(cols) > 1 else 0].append((i, j, a[j], *_window(sense, b, 0, 0)))

    acc = [0] * len(rows)  # each row's value over the branched columns

    def rows_ok(entries) -> bool:
        for i, bottom, top in entries:
            if not bottom <= acc[i] <= top:
                return False
        return True

    # charge[v][j]: what x_j = v in every completion adds to the bound, for
    # j uncovered (a covered column's value is in its shares)
    charge = [[0 if k else v * cj - max(cj, 0) for cj, k in zip(c_int, cover)] for v in (0, 1)]
    ban = ([0] * n, [0] * n)  # ban[v][j]: the rows that rule x_j = v out at the current node
    bumped = [[] for _ in range(n + 1)]  # (v, j) for each ban triggers[d] made

    def force(d: int) -> int | None:
        """Apply triggers[d]; return the charge of the newly forced columns,
        or None when a row's last column has no value left."""
        pen = 0
        for i, j, coeff, bottom, top in triggers[d]:
            s = acc[i]
            if bottom <= s <= top:
                if bottom <= s + coeff <= top:
                    continue
                v = 1  # x_j = 1 breaks the row
            elif bottom <= s + coeff <= top:
                v = 0
            else:
                return None
            ban[v][j] += 1
            bumped[d].append((v, j))
            if ban[1 - v][j]:
                return None
            if ban[v][j] == 1:
                pen += charge[1 - v][j]
        return pen

    pen = force(0)
    if pen is None or not rows_ok(root):
        return SolveReport("infeasible", None, 1)
    assign = [0] * n
    obj = [0] * (n + 1)  # prefix value of the node at each depth
    # the rest of the bound of the node at each depth: forced charges plus
    # the cardinality rows' shares
    extra = [pen + card_root] + [0] * n
    nxt = [1] * n  # next value to branch on at each depth; -1 when both are done
    best_val: int | None = None
    best_assign: tuple[int, ...] | None = None
    # (value, assignment) of every leaf reached while slack >= 0; entries
    # that fell out of the slack are dropped once it holds `trim` of them
    pool: list | None = [] if slack >= 0 else None
    trim = POOL_LIMIT
    nodes, d = 1, 0

    def undo(d: int) -> None:
        for v, j in bumped[d + 1]:
            ban[v][j] -= 1
        bumped[d + 1].clear()
        if assign[d]:
            for i, coeff in touched[d]:
                acc[i] -= coeff
            assign[d] = 0

    while d >= 0:
        if d < n and nxt[d] >= 0:  # branch on x_d
            val = nxt[d]
            nxt[d] = val - 1
            if ban[val][d]:  # only the forced value is tried
                continue
            if val:
                assign[d] = 1
                for i, coeff in touched[d]:
                    acc[i] += coeff
            if rows_ok(checks[val][d]) and (pen := force(d + 1)) is not None:
                obj[d + 1] = obj[d] + (c_int[d] if val else 0)
                delta = pen - (charge[val][d] if ban[1 - val][d] else 0)  # the gain now charges x_d
                for i, t, b, before, after in shares[d]:
                    need = (b - acc[i]) // t  # ones the row's free columns still take
                    delta += after[need] - before[need + val]
                extra[d + 1] = extra[d] + delta
                if best_val is None or obj[d + 1] + obj_pos[d + 1] + extra[d + 1] >= best_val - slack:
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
                        pool, slack = None, -scale
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
