"""Exact certification of paired-copy polytopes.

The object of study is the convex hull of all feasible (x, y, z) triples of
a conjugate diameter program: both halves feasible for the base model,
z_i >= x_i + y_i - 1.  Everything here is finite and exact: points are
generated from ordered pairs of base feasible points, dimensions come from
integer rank computations, and an inequality is certified a facet by the
definition itself: valid everywhere, tight on a face whose affine dimension
is one below the hull's.

A point set is held as disjoint cubes in ascending order, and as nothing
else: cube k is corners[k] with the columns where free[k] is True (0 in the
corner) set to 0 or 1 at will.  The ordered base pair (u, v) is the cube
with corner (u, v, S), S = u AND v the shared support, and its
k = n - |S| other z columns free, 2^k points; a point array is one cube
per point with no free column.  The count, the hull's dimension, every
face and the first point are read off the cubes, and the points are
generated only when read: the listing.

The hull's directions are the cube corners' and the free columns': a cube
with free column j holds points that differ in column j alone, so e_j is a
direction.  With U the columns free in some cube, the direction space is
R^U plus the span of the corner differences c - p0 with the U columns
dropped, p0 = corners[0] the first point in lexicographic order.  So the
dimension is |U| + rank(corner - p0) off U, ranked on the corners' Gram
matrix, whose entries the 0/+-1 differences bound by the number of cubes.
The pivot columns of the point set's Gram matrix G are U and the corner
Gram matrix's pivots: a column combination that vanishes on every
direction is zero on U.

A face splits each cube by the row, on the cube's free columns where the
row is nonzero, into sub-cubes, each wholly tight or not.  Validity and
the tight count (2^r per tight sub-cube, r free columns left) are exact
sums.  The tight sub-cubes are cubes too, so the face's dimension is read
the hull's way, by the same routine (_hull_pivots): |U| + rank(corner -
first corner), U the free columns left in them, with the U columns dropped
and only the pivot columns J of G read.  The projection onto J is
injective on the hull's directions, and U lies in J, as e_j (j in U) is a
direction.  Every rank is exact.

The (x | y | z) layout belongs to diameter: the inherited facet families,
the z bounds and the lifted equation systems place their blocks with
diameter.paired, and the coupling family is diameter.coupling, the row the
diameter program solves.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bpcore import DEFAULT_ENUM_CAP, HOLDS, BinaryProgram, bit_table, feasible_blocks, support_masks
from .diameter import DiameterProgram, coupling, paired
from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import RatMatrix, _gram, _pivot_columns, as_rational, int_dtype, scaled_int_vector

DEFAULT_MAX_POINTS = 2_000_000

# rows compared at a time by _strictly_increasing, so its scratch arrays
# have a fixed size however many points there are
_ORDER_CHUNK = 1 << 16


def _strictly_increasing(arr: np.ndarray) -> bool:
    """Whether the rows of a 0/1 array are distinct and in increasing
    lexicographic order: at the first column where two consecutive rows
    differ, the earlier row has 0 and the later one 1.  O(rows * columns)."""
    if arr.shape[1] == 0:
        return arr.shape[0] < 2
    for lo in range(0, arr.shape[0] - 1, _ORDER_CHUNK):
        hi = min(lo + _ORDER_CHUNK, arr.shape[0] - 1)
        prev, nxt = arr[lo:hi], arr[lo + 1 : hi + 1]
        # argmax is 0 for equal rows, where nxt > prev fails as it should
        first = (prev != nxt).argmax(axis=1)[:, None]
        if not (np.take_along_axis(nxt, first, 1) > np.take_along_axis(prev, first, 1)).all():
            return False
    return True


class PointSet:
    """Distinct 0/1 points in lexicographic order, held as ascending cubes
    (module docstring): cube k is corners[k] with the columns where free[k]
    is True set to 0 or 1 at will.

    PointSet(points) is one cube per point, with no free column: rows that
    already satisfy the invariant are kept as given after an
    O(rows * columns) check; any other array is sorted and deduplicated
    with np.unique.  enumerate_points holds a paired set as its pair cubes.
    The hull's dimension and pivot columns come from the corners and the
    free columns; the point array is generated only on its first read.
    """

    def __init__(self, points):
        arr = np.asarray(points)
        if arr.ndim != 2:
            raise ValueError("points must form a 2-D array")
        # checked before the cast, which would truncate 0.5 and wrap -1 or 256
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("points must be 0/1")
        arr = arr.astype(np.uint8, copy=False)
        if not _strictly_increasing(arr):
            arr = np.unique(arr, axis=0)
        self._hold(np.ascontiguousarray(arr), np.zeros(arr.shape, dtype=bool), len(arr))

    def _hold(self, corners: np.ndarray, free: np.ndarray, count: int) -> "PointSet":
        """Hold ascending cubes, uint8 corners 0 on their free columns, with
        their number of points: the body of both constructors,
        PointSet(points) and enumerate_points, each of which knows the count."""
        self.corners, self.free = corners, free
        self.count, self.dim_ambient = count, corners.shape[1]
        self._array: np.ndarray | None = None
        self._pivots: list[int] | None = None
        return self

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            arr = _cube_rows(self.corners, self.free)
            if not _strictly_increasing(arr):
                raise RuntimeError("cube points generated out of lexicographic order")
            self._array = arr
        return self._array

    def __repr__(self):
        return f"PointSet({self.count} points in R^{self.dim_ambient})"

    def hull_dimension(self) -> int:
        """The affine dimension, |U| + rank(corner - p0) off U (module
        docstring), and the pivot columns of G, kept: U and the corner Gram
        matrix's Bareiss pivots.  A column combination vanishes on G exactly
        when it vanishes on every p - p0, so projecting onto the pivot
        columns is injective on the hull's directions.  An empty set is the
        point set of an infeasible model, which has no affine hull."""
        if self._pivots is None:
            if self.count == 0:
                raise InfeasibleModelError("no feasible point: the empty point set has no affine hull")
            self._pivots = _hull_pivots(self.corners, self.free, range(self.dim_ambient))
        return len(self._pivots)


def _cube_count(widths: np.ndarray) -> int:
    """Points of the cubes with the given numbers of free columns: the sum
    of 2^k, as a Python integer."""
    return sum(c << k for k, c in enumerate(np.bincount(widths).tolist()))


def _hull_pivots(corners: np.ndarray, free: np.ndarray, cols: Sequence[int]) -> list[int]:
    """The pivot columns among cols of the Gram matrix of nonempty cubes'
    points, ascending: U, the columns of cols free in some cube, and the
    Bareiss pivots of the corner Gram matrix on the other columns of cols
    (module docstring).  Their number is the points' affine dimension when
    projecting onto cols is injective on their directions: every column
    for the hull, the hull's pivot columns for a face."""
    cols = np.asarray(cols, dtype=np.intp)
    spans = free.any(axis=0)[cols]  # U
    rest = cols[~spans]
    pivots = _pivot_columns(_gram(corners[:, rest]).tolist())
    return sorted(cols[spans].tolist() + rest[pivots].tolist())


def _cube_rows(corners: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The cubes' points as a uint8 array, in PointSet order: each corner
    2^k times, its k free columns, in ascending order, filled with the
    lexicographic table bpcore.bit_table.  The cubes ascend, so the rows
    are distinct and in order by construction."""
    widths = free.sum(axis=1)
    ends = np.cumsum(1 << widths)
    out = np.repeat(corners, 1 << widths, axis=0)
    tables: dict[int, np.ndarray] = {}
    for c in np.flatnonzero(widths).tolist():  # a cube with no free column is its corner
        k = int(widths[c])
        if k not in tables:
            tables[k] = bit_table(k)
        out[ends[c] - (1 << k) : ends[c], free[c]] = tables[k]
    return out


@dataclass(frozen=True)
class Inequality:
    a: tuple[Fraction, ...]
    a0: Fraction
    sense: str  # "<=" | ">="
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(as_rational(v) for v in self.a))
        object.__setattr__(self, "a0", as_rational(self.a0))
        if self.sense not in ("<=", ">="):
            raise ValueError(f"bad sense {self.sense!r}")


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

    def __init__(self, matrix, rhs: Sequence):
        self.matrix = matrix if isinstance(matrix, RatMatrix) else RatMatrix(matrix)
        self.rhs = tuple(as_rational(v) for v in rhs)
        if len(self.rhs) != self.matrix.nrows:
            raise ValueError("rhs length != row count")
        if self.matrix.rank() != self.matrix.nrows:
            raise ValueError("equation rows must be linearly independent")

    def __repr__(self):
        return f"EquationSystem({self.matrix.nrows} rows, {self.matrix.ncols} cols)"


def _over_cap(max_points: int) -> CapExceededError:
    return CapExceededError(f"point enumeration exceeds max_points={max_points}")


def enumerate_points(
    dp: DiameterProgram,
    base_points: Iterable[Sequence[int]] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
    max_points: int = DEFAULT_MAX_POINTS,
) -> PointSet:
    """All 0/1 feasible triples (x, y, z) of a conjugate diameter program:
    every ordered pair (x, y) of base feasible points, z forced to 1 on the
    shared support and free elsewhere.  base_points lists the base set when
    the front end can (ordering and tour do); otherwise it is read from
    bpcore.feasible_blocks(dp.base, cap), a 2^n scan under the cap.

    The set is held as the m^2 pair cubes of the sorted, deduplicated base
    points u_a, pair a m + b: corner (u_a, u_b, u_a AND u_b), free on the
    other k z columns.  The count N, the sum of 2^k, is computed exactly on
    Python integers from the shared supports and checked against
    max_points before the 3n-wide cube arrays are built; it bounds the
    pairs (m^2 <= N, so no cube array is larger than the point array that
    the same max_points admits) and the sub-cubes of every later face.
    """
    if dp.include_lower_coupling:
        raise ValueError("point enumeration is defined for the conjugate variant")
    n = dp.base.n
    if base_points is None:
        base_points = (row for block in feasible_blocks(dp.base, cap) for row in block.tolist())
    # each ordered pair adds at least one point, so k base points give at
    # least k^2 and reading isqrt(max_points) + 1 of them is enough to
    # refuse; islice takes no stop past sys.maxsize, and no list gets there
    limit = min(math.isqrt(max(max_points, 0)) + 1, sys.maxsize)
    base = [tuple(int(v) for v in p) for p in itertools.islice(base_points, limit)]
    if len(base) == limit:
        raise _over_cap(max_points)
    for p in base:
        if len(p) != n or any(v not in (0, 1) for v in p):
            raise ValueError("base points must be 0/1 vectors of base length")
    base = sorted(set(base))
    m = len(base)
    base = np.array(base, dtype=np.uint8).reshape(m, n)
    shared = (base[:, None, :] & base[None, :, :]).reshape(-1, n)
    count = _cube_count(n - shared.sum(axis=1, dtype=np.int64))
    if count > max_points:
        raise _over_cap(max_points)
    corners = np.concatenate([np.repeat(base, m, axis=0), np.tile(base, (m, 1)), shared], axis=1)
    free = np.zeros(corners.shape, dtype=bool)
    free[:, 2 * n :] = shared == 0
    return PointSet.__new__(PointSet)._hold(corners, free, count)


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


def _values(points: np.ndarray, a: Sequence[int], b: int) -> np.ndarray:
    """a . p for every row p of a 0/1 array, exactly: in int64, as a_j times
    column j over a's nonzero columns read in place, when sum |a| (which
    bounds every partial sum) and |b| are below 2**62; else on Python ints."""
    dtype = int_dtype(max(sum(map(abs, a)), abs(b)))
    nz = [j for j, c in enumerate(a) if c]
    if dtype is object:
        return points[:, nz] @ np.array([a[j] for j in nz], dtype=object)
    vals = np.zeros(len(points), dtype=np.int64)
    for j in nz:
        # an int64 loop whatever the numpy casting rules make of a[j]
        vals += np.multiply(points[:, j], a[j], dtype=np.int64)
    return vals


def _split(corners: np.ndarray, free: np.ndarray, cols: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(corners, cube of each) of the sub-cubes that fix every free column
    in cols: per column j, those with j free get a copy with j = 1.  They
    are disjoint and nonempty, so never more than the points."""
    cube = np.arange(len(corners))
    for j in cols:
        split = np.flatnonzero(free[cube, j])
        if len(split):
            ones = corners[split]
            ones[:, j] = 1
            corners, cube = np.concatenate([corners, ones]), np.concatenate([cube, cube[split]])
    return corners, cube


def check_inequality(ps: PointSet, ineq: Inequality) -> FacetReport:
    """Certify an inequality against an enumerated polytope.

    valid   = holds at every point;
    facet   = valid and its tight set spans affine dimension dim - 1.
    The empty face reports dimension -1, and a face tight at every point
    is the whole polytope.

    No point is built (module docstring).  The face's dimension is the
    number of pivot columns of its tight sub-cubes among the hull's, found
    by the hull's own routine, _hull_pivots: exactly, by Bareiss, on one
    Gram matrix of the tight corners.
    """
    if len(ineq.a) != ps.dim_ambient:
        raise ValueError("inequality width disagrees with the point set")
    a, b, _ = scaled_int_vector(ineq.a, ineq.a0)
    cols = [j for j, c in enumerate(a) if c]
    corners, free = ps.corners, ps.free
    corners, cube = _split(corners, free, cols)
    loose = free.copy()  # the free columns with a zero coefficient
    loose[:, cols] = False
    vals = _values(corners, a, b)
    tight = vals == b
    valid = bool(HOLDS[ineq.sense](vals, b).all())
    tight_count = _cube_count(loose.sum(axis=1)[cube[tight]])
    pdim = ps.hull_dimension()
    if tight_count == 0:
        face_dim = -1
    elif tight_count == ps.count:
        face_dim = pdim
    else:
        face_dim = len(_hull_pivots(corners[tight], loose[cube[tight]], ps._pivots))
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

    No point is visited: each row, scaled to integers a . v = b, holds at
    every point exactly when a is zero on the columns free in some cube
    (each is a direction of the hull) and a . c = b at every cube corner c.
    """
    if system.matrix.ncols != ps.dim_ambient:
        raise ValueError("system width disagrees with the point set")
    spans = ps.free.any(axis=0).tolist()
    for row, d in zip(system.matrix.rows, system.rhs):
        a, b, _ = scaled_int_vector(row, d)
        if any(c and free for c, free in zip(a, spans)):
            return False
        if not (_values(ps.corners, a, b) == b).all():
            return False
    return ps.hull_dimension() == ps.dim_ambient - system.matrix.nrows


def nonnegativity_facets(names: Sequence[str]) -> list[Inequality]:
    """v_k >= 0 for every coordinate, labelled by its variable name."""
    out = []
    for k, name in enumerate(names):
        a = [Fraction(0)] * len(names)
        a[k] = Fraction(1)
        out.append(Inequality(tuple(a), Fraction(0), ">=", f"{name}_ge_0"))
    return out


def facet_families(n: int, base_facets: Sequence[Inequality]) -> list[Inequality]:
    """The inherited and coupling inequality families over 3n coordinates.

    For each base facet a.x <= a0: its copy on the x block and on the y
    block; then 0 <= z_i <= 1 and x_i + y_i - z_i <= 1 for every
    coordinate.
    """
    out: list[Inequality] = []
    for k, f in enumerate(base_facets):
        if len(f.a) != n:
            raise ValueError(f"base facet {k} has width {len(f.a)}, expected {n}")
        tag = f.label or f"base{k}"
        out.append(Inequality(paired(n, x=f.a), f.a0, f.sense, f"{tag}[x]"))
        out.append(Inequality(paired(n, y=f.a), f.a0, f.sense, f"{tag}[y]"))
    zs = nonnegativity_facets([f"z{i}" for i in range(1, n + 1)])
    out += [Inequality(paired(n, z=f.a), f.a0, f.sense, f.label) for f in zs]
    out += [Inequality(paired(n, z=f.a), 1, "<=", f"z{i}_le_1") for i, f in enumerate(zs, start=1)]
    for i in range(n):
        a, sense, rhs = coupling(n, i)
        out.append(Inequality(a, rhs, sense, f"pair_ub_{i + 1}"))
    return out


@dataclass(frozen=True)
class DisjointPairReport:
    existential: bool
    existential_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    universal: bool
    universal_counterexample: tuple[int, ...] | None


def check_disjoint_pair_condition(bp: BinaryProgram) -> DisjointPairReport:
    """Support-disjointness of the feasible set.

    existential: some feasible pair has disjoint supports (what the
    dimension argument needs); universal: every feasible point has a
    disjoint feasible partner (what the facet arguments need).
    """
    rows = np.concatenate([np.empty((0, bp.n), dtype=np.uint8), *feasible_blocks(bp)])
    masks = support_masks(rows)
    witness = None
    counterexample = None
    universal = True
    for i, mi in enumerate(masks):
        partner = next((j for j, mj in enumerate(masks) if mi & mj == 0), None)
        if partner is None:
            universal = False
            if counterexample is None:
                counterexample = tuple(rows[i].tolist())
        elif witness is None:
            witness = (tuple(rows[i].tolist()), tuple(rows[partner].tolist()))
    return DisjointPairReport(
        existential=witness is not None,
        existential_witness=witness,
        universal=universal,
        universal_counterexample=counterexample,
    )
