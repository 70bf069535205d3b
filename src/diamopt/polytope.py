"""Exact certification of paired-copy polytopes.

The object of study is the convex hull of all feasible (x, y, z) triples of
a conjugate diameter program: both halves feasible for the base model,
z_i >= x_i + y_i - 1.  Everything here is finite and exact: points are
generated from ordered pairs of base feasible points, dimensions come from
integer rank computations, and an inequality is certified a facet by the
definition itself: valid everywhere, tight on a face whose affine dimension
is one below the hull's.

A paired point set is held as its base points and nothing else: B, the m
sorted, distinct base feasible points u_a.  Pair (a, b) is the cube
x = u_a, y = u_b, z = 1 on the shared support u_a AND u_b and free on the
other loose[a, b] = n - u_a . u_b z columns.  The points are generated
only when read, the listing: the pairs ascend in the order a m + b and
each pair's free z columns run through bpcore.bit_table, so the listing
is distinct and in lexicographic order by construction.

max_points bounds only the arrays a point set builds, each refused by the
code that builds it: the m x m pair grid (enumerate_points), the m^2 2^|Z|
cells of a face (check_inequality) and the N listed points (array).

The hull's directions are D x D x R^U: D the span of the u_a - u_0, and U
the z columns where some base point has a 0 (pair (a, a) is free there;
every other z column is 1 at every point).  So dim P_D = 2 dim P + |U|,
the paper's inheritance of dimension, and the pivot columns of the
points' Gram matrix G = sum (p - p0)(p - p0)^T are P, n + P and 2n + U, P
the Bareiss pivots of the base points' Gram matrix: a column combination
vanishes on every direction exactly when its x and y parts vanish on D
and its z part on U.

A face is read off the m x m pair grid.  With Z the z columns where a row
(alpha, beta, gamma) is nonzero, its value on the cell (a, b, s), s a
pattern of values on Z, is X_a + Y_b + gamma . s, X = B alpha and
Y = B beta.  The cell exists when s is 1 wherever u_a and u_b share a
column of Z, and holds 2^r points, r the pair's free z columns off Z.  So
validity, the tight cells and the tight count are exact, one grid pass
per pattern: m^2 2^|Z| cells, which max_points bounds.  A tight cell is a
cube with corner (u_a, u_b, s, 1 elsewhere), so the face's dimension is
read the hull's way: |U_f| + rank(corner - first corner), U_f the columns
free in some tight cell, ranked on the corners' Gram matrix over the
hull's pivot columns outside U_f.  Projecting onto them is injective on
the hull's directions, and U_f lies among them.  Every rank is exact.

The (x | y | z) layout belongs to diameter: the inherited facet families,
the z bounds and the lifted equation systems place their blocks with
diameter.paired, and the coupling family is diameter.coupling, the row the
diameter program solves.  An inequality is a bpcore.Constraint with sense
<= or >=: the same row objects a front end's build solves are the ones
certified here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bpcore import DEFAULT_ENUM_CAP, HOLDS, BinaryProgram, Constraint, bit_table, feasible_blocks, support_masks
from .diameter import coupling, paired
from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import RatMatrix, _gram, _pivot_columns, as_rationals, int_dtype, scaled_int_vector

DEFAULT_MAX_POINTS = 2_000_000

# grid cells at a time in check_inequality's pattern blocks, so its scratch
# arrays have a fixed size
_ORDER_CHUNK = 1 << 16


class PointSet:
    """The paired points (u_a, u_b, z), z >= u_a AND u_b, over base points
    B, an m x n uint8 array of sorted, distinct rows as enumerate_points
    builds it (module docstring); max_points, the limit it was built
    under, bounds each face's grid cells and the point array, which is
    generated in lexicographic order on its first read."""

    def __init__(self, base: np.ndarray, max_points: int):
        n = base.shape[1]
        wide = base.astype(np.float64)
        # exact: every entry of B B^T is an integer of size at most n
        self.loose = n - (wide @ wide.T).astype(np.int64)
        self.base, self.max_points = base, max_points
        self.count, self.dim_ambient = _cube_count(self.loose.ravel()), 3 * n
        self._array: np.ndarray | None = None
        self._pivots: list[int] | None = None

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            if self.count > self.max_points:
                raise CapExceededError(f"point listing of {self.count} points exceeds max_points={self.max_points}")
            self._array = _pair_rows(self.base)
        return self._array

    def __repr__(self):
        return f"PointSet({self.count} points in R^{self.dim_ambient})"

    def hull_dimension(self) -> int:
        """The affine dimension 2 dim P + |U|, with the pivot columns of G
        kept for the faces (module docstring).  An empty set is the point
        set of an infeasible model, which has no affine hull."""
        if self._pivots is None:
            if self.count == 0:
                raise InfeasibleModelError("no feasible point: the empty point set has no affine hull")
            n = self.base.shape[1]
            pivots = _pivot_columns(_gram(self.base).tolist())
            spans = np.flatnonzero(~self.base.all(axis=0))  # U
            self._pivots = pivots + [n + j for j in pivots] + (2 * n + spans).tolist()
        return len(self._pivots)


def _cube_count(widths: np.ndarray) -> int:
    """Points of the cubes with the given numbers of free columns: the sum
    of 2^k, as a Python integer."""
    return sum(c << k for k, c in enumerate(np.bincount(widths).tolist()))


def _pair_rows(base: np.ndarray) -> np.ndarray:
    """The paired points over base points B as a uint8 array, in PointSet
    order: the corner (u_a, u_b, u_a AND u_b) of each pair 2^k times, its k
    free z columns filled with the lexicographic table bpcore.bit_table.
    The pairs ascend, so the rows are distinct and in order by construction."""
    m, n = base.shape
    shared = (base[:, None, :] & base[None, :, :]).reshape(-1, n)
    widths = n - shared.sum(axis=1, dtype=np.int64)
    ends = np.cumsum(1 << widths)
    out = np.repeat(np.concatenate([np.repeat(base, m, axis=0), np.tile(base, (m, 1)), shared], axis=1), 1 << widths, 0)
    tables: dict[int, np.ndarray] = {}
    for c in np.flatnonzero(widths).tolist():  # a pair with no free column is its corner
        k = int(widths[c])
        if k not in tables:
            tables[k] = bit_table(k)
        out[ends[c] - (1 << k) : ends[c], 2 * n :][:, shared[c] == 0] = tables[k]
    return out


@dataclass(frozen=True)
class FacetReport:
    label: str
    valid: bool
    tight_point_count: int
    face_dimension: int  # -1 when the face is empty
    polytope_dimension: int
    is_facet: bool


class EquationSystem:
    """Independent equation rows M v = d satisfied by a polytope."""

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence):
        self.matrix = RatMatrix(rows)
        self.rhs = as_rationals(rhs)
        if len(self.rhs) != self.matrix.nrows:
            raise ValueError("rhs length != row count")
        if self.matrix.rank() != self.matrix.nrows:
            raise ValueError("equation rows must be linearly independent")

    def __repr__(self):
        return f"EquationSystem({self.matrix.nrows} rows, {self.matrix.ncols} cols)"


def enumerate_points(
    bp: BinaryProgram,
    base_points: Iterable[Sequence[int]] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
    max_points: int = DEFAULT_MAX_POINTS,
) -> PointSet:
    """All 0/1 feasible triples (x, y, z) of the conjugate diameter program
    of the base model bp: every ordered pair (x, y) of base feasible points,
    z forced to 1 on the shared support and free elsewhere.  base_points
    lists the base set when the front end can (ordering and tour do);
    otherwise it is read from bpcore.feasible_blocks(bp, cap), a 2^n scan
    under the cap.

    The set is held as its sorted, deduplicated base points (PointSet),
    with the count N, the sum of 2^loose over the m^2 pairs, exact on
    Python integers.  max_points bounds the m x m pair grid here, not N.
    """
    n = bp.n
    if base_points is None:
        base_points = (row for block in feasible_blocks(bp, cap) for row in block.tolist())
    # m distinct base points make an m x m grid, so reading until
    # isqrt(max_points) + 1 of them are distinct is enough to refuse
    limit = math.isqrt(max(max_points, 0)) + 1
    distinct = set()
    for p in base_points:
        p = tuple(p)
        # checked before the cast, which would truncate 0.5 to 0
        if len(p) != n or any(v not in (0, 1) for v in p):
            raise ValueError("base points must be 0/1 vectors of base length")
        distinct.add(tuple(map(int, p)))
        if len(distinct) == limit:
            raise CapExceededError(f"pair grid of {limit} or more base points exceeds max_points={max_points}")
    base = sorted(distinct)
    return PointSet(np.array(base, dtype=np.uint8).reshape(len(base), n), max_points)


def lift_equation_system(base_system: EquationSystem) -> EquationSystem:
    """Duplicate a base minimal system over the x and y blocks, zero on z.

    [M 0 0; 0 M 0] v = (d, d) over 3n coordinates; rank doubles, so the
    paired hull loses twice the base rank in dimension.  The rows are
    independent because M's are, checked when the base system was built,
    so they are not ranked again.
    """
    m = base_system.matrix
    rows = [paired(m.ncols, x=r) for r in m.rows] + [paired(m.ncols, y=r) for r in m.rows]
    lifted = EquationSystem.__new__(EquationSystem)
    lifted.matrix, lifted.rhs = RatMatrix(rows), base_system.rhs + base_system.rhs
    return lifted


def _base_values(base: np.ndarray, a: Sequence[int], b: int) -> tuple[np.ndarray, np.ndarray]:
    """(B alpha, B beta) for an integer row (alpha, beta, gamma) and its
    right-hand side b, exactly: in int64 when sum |a|, which bounds the
    row's value at every point, and |b| are below 2**62 (int_dtype), else
    on Python integers."""
    n = base.shape[1]
    dtype = int_dtype(max(sum(map(abs, a)), abs(b)))
    x, y = np.array(a[: 2 * n], dtype=dtype).reshape(2, n) @ base.T  # B is cast to dtype
    return x, y


def check_inequality(ps: PointSet, ineq: Constraint) -> FacetReport:
    """Certify an inequality against an enumerated polytope.

    valid   = holds at every point;
    facet   = valid and its tight set spans affine dimension dim - 1.
    The empty face reports dimension -1, and a face tight at every point
    is the whole polytope.

    No point is built: the face is read off the pair grid (module
    docstring).  Its m^2 2^|Z| cells are refused past the set's max_points
    (or sys.maxsize, past which a pattern index would not fit int64).
    """
    if len(ineq.coeffs) != ps.dim_ambient:
        raise ValueError(
            f"inequality {ineq.label!r} has {len(ineq.coeffs)} coefficients, ambient dimension is {ps.dim_ambient}"
        )
    a, b, _ = scaled_int_vector(ineq.coeffs, ineq.rhs)
    pdim = ps.hull_dimension()
    base, n = ps.base, ps.dim_ambient // 3
    zs = [j for j in range(n) if a[2 * n + j]]
    k, pairs = len(zs), len(base) ** 2
    if pairs << k > min(ps.max_points, sys.maxsize):
        work = f"{pairs << k} grid cells ({pairs} pairs x 2^{k} z patterns)"
        raise CapExceededError(f"face work of {work} exceeds max_points={ps.max_points}")
    x, y = _base_values(base, a, b)
    pair_vals = (x[:, None] + y[None, :]).ravel()
    holds = HOLDS[ineq.sense]
    if zs:
        gamma = np.array([a[2 * n + j] for j in zs], dtype=pair_vals.dtype)
        bz = base.take(zs, axis=1)
        # bit k-1-i is set where the pair shares column zs[i], as in the
        # pattern's index in bit_table; off counts the free z columns off Z
        # (a uint8 product: k <= 62 by the cap)
        shared = ((bz << np.arange(k - 1, -1, -1)) @ bz.T).ravel()
        off = (ps.loose - k + bz @ bz.T).ravel()
        valid, tight = True, []
        step = max(1, _ORDER_CHUNK // pairs)
        for lo in range(0, 1 << k, step):
            table = bit_table(k, lo, min(lo + step, 1 << k))
            vals = pair_vals + (table @ gamma)[:, None]
            cell = (shared & ~np.arange(lo, lo + len(table))[:, None]) == 0
            valid = valid and bool(holds(vals, b)[cell].all())
            s, p = np.nonzero(cell & (vals == b))
            tight.append((table[s], p))
        patterns, cells = (np.concatenate(t) for t in zip(*tight))
    else:  # one pattern and every cell exists: the common row, read in fewer passes
        valid = bool(holds(pair_vals, b).all())
        cells = np.flatnonzero(pair_vals == b)
        patterns, off = np.empty((len(cells), 0), dtype=np.int64), ps.loose.ravel()
    tight_count = _cube_count(off[cells])
    if tight_count == 0:
        face_dim = -1
    elif tight_count == ps.count:
        face_dim = pdim
    else:
        ia, ib = np.divmod(cells, len(base))
        x, y = base.take(ia, axis=0), base.take(ib, axis=0)
        z = x & y  # the corner: 1 on the columns off Z every tight pair shares
        spans = ~z.all(axis=0)  # U_f, once Z is dropped
        spans[zs] = False
        z[:, zs] = patterns
        free = spans.tolist()
        cols = [c for c in ps._pivots if c < 2 * n or not free[c - 2 * n]]
        corners = np.concatenate([x, y, z], axis=1)[:, cols]
        face_dim = sum(free) + len(_pivot_columns(_gram(corners).tolist()))
    return FacetReport(
        label=ineq.label,
        valid=valid,
        tight_point_count=tight_count,
        face_dimension=face_dim,
        polytope_dimension=pdim,
        is_facet=valid and face_dim == pdim - 1,
    )


def verify_minimal_system(ps: PointSet, system: EquationSystem) -> bool:
    """Every point satisfies the system and the hull dimension equals
    ambient minus the system's rank (rows are independent by construction).

    No point is visited: a row (alpha, beta, gamma) . v = b, scaled to
    integers, holds at every point exactly when gamma is zero on U (each
    e_j there is a direction of the hull), B alpha and B beta are constant,
    and those two constants plus sum gamma make b, z being 1 off U: O(m)
    work a row.
    """
    if system.rhs and system.matrix.ncols != ps.dim_ambient:  # an empty system has no width
        raise ValueError("system width disagrees with the point set")
    pdim = ps.hull_dimension()
    n = ps.dim_ambient // 3
    fixed = ps.base.all(axis=0).tolist()  # the z columns off U
    for row, d in zip(system.matrix.rows, system.rhs):
        a, b, _ = scaled_int_vector(row, d)
        gamma = a[2 * n :]
        if any(c and not f for c, f in zip(gamma, fixed)):
            return False
        x, y = _base_values(ps.base, a, b)
        if (x != x[0]).any() or (y != y[0]).any() or x[0] + y[0] + sum(gamma) != b:
            return False
    return pdim == ps.dim_ambient - system.matrix.nrows


def nonnegativity_facets(names: Sequence[str]) -> list[Constraint]:
    """v_k >= 0 for every coordinate, labelled by its variable name."""
    out = []
    for k, name in enumerate(names):
        a = [0] * len(names)
        a[k] = 1
        out.append(Constraint(tuple(a), ">=", 0, f"{name}_ge_0"))
    return out


def facet_families(n: int, base_facets: Sequence[Constraint]) -> list[Constraint]:
    """The inherited and coupling inequality families over 3n coordinates.

    For each base facet a.x <= a0: its copy on the x block and on the y
    block; then 0 <= z_i <= 1 and x_i + y_i - z_i <= 1 for every
    coordinate.
    """
    out: list[Constraint] = []
    for k, f in enumerate(base_facets):
        if len(f.coeffs) != n:
            raise ValueError(f"base facet {k} has width {len(f.coeffs)}, expected {n}")
        tag = f.label or f"base{k}"
        out.append(Constraint(paired(n, x=f.coeffs), f.sense, f.rhs, f"{tag}[x]"))
        out.append(Constraint(paired(n, y=f.coeffs), f.sense, f.rhs, f"{tag}[y]"))
    zs = nonnegativity_facets([f"z{i}" for i in range(1, n + 1)])
    out += [Constraint(paired(n, z=f.coeffs), f.sense, f.rhs, f.label) for f in zs]
    out += [Constraint(paired(n, z=f.coeffs), "<=", 1, f"z{i}_le_1") for i, f in enumerate(zs, start=1)]
    out += [Constraint(*coupling(n, i), f"pair_ub_{i + 1}") for i in range(n)]
    return out


@dataclass(frozen=True)
class DisjointPairReport:
    existential_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    universal_counterexample: tuple[int, ...] | None

    @property
    def existential(self) -> bool:
        return self.existential_witness is not None

    @property
    def universal(self) -> bool:
        return self.universal_counterexample is None


def check_disjoint_pair_condition(bp: BinaryProgram) -> DisjointPairReport:
    """Support-disjointness of the feasible set.

    existential: some feasible pair has disjoint supports (what the
    dimension argument needs); universal: every feasible point has a
    disjoint feasible partner (what the facet arguments need).
    """
    rows = np.concatenate([np.empty((0, bp.n), dtype=np.uint8), *feasible_blocks(bp)])
    masks = support_masks(rows)
    witness = counterexample = None
    for i, mi in enumerate(masks):
        partner = next((j for j, mj in enumerate(masks) if mi & mj == 0), None)
        if partner is None:
            if counterexample is None:
                counterexample = tuple(rows[i].tolist())
        elif witness is None:
            witness = (tuple(rows[i].tolist()), tuple(rows[partner].tolist()))
    return DisjointPairReport(witness, counterexample)
