"""Exact certification of paired-copy polytopes.

The object of study is the convex hull of all feasible (x, y, z) triples of
a conjugate diameter program: both halves feasible for the base model,
z_i >= x_i + y_i - 1.  Everything here is finite and exact: points are
generated from ordered pairs of base feasible points, dimensions come from
integer rank computations, and an inequality is certified a facet by the
definition itself: valid everywhere, tight on a face whose affine dimension
is one below the hull's.

The (x | y | z) layout belongs to diameter: the inherited facet families,
the z bounds and the lifted equation systems place their blocks with
diameter.paired, and the coupling family is diameter.coupling, the row the
diameter program solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bpcore import DEFAULT_ENUM_CAP, HOLDS, BinaryProgram, bit_table, feasible_blocks, support_masks
from .diameter import DiameterProgram, coupling, paired
from .errors import CapExceededError
from .ratlinalg import (
    RatMatrix,
    _gram,
    _int_rank,
    affine_dimension,
    as_rational,
    int_dtype,
    scaled_int_vector,
)

DEFAULT_MAX_POINTS = 2_000_000

# tight rows per hull dimension that a face rank tries before all of them
_FACE_SAMPLE = 32


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
    """Distinct 0/1 points in lexicographic order, one per row.

    Rows that already satisfy the invariant, as enumerate_points produces
    them, are kept as given after an O(rows * columns) check; any other
    array is sorted and deduplicated with np.unique.
    """

    def __init__(self, points):
        arr = np.asarray(points, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("points must form a 2-D array")
        if arr.size and arr.max() > 1:
            raise ValueError("points must be 0/1")
        if not _strictly_increasing(arr):
            arr = np.unique(arr, axis=0)
        self.array = np.ascontiguousarray(arr)
        self._gram: list[list[int]] | None = None
        self._hull_dim: int | None = None

    @property
    def dim_ambient(self) -> int:
        return self.array.shape[1]

    @property
    def count(self) -> int:
        return self.array.shape[0]

    def __len__(self) -> int:
        return self.count

    def __repr__(self):
        return f"PointSet({self.count} points in R^{self.dim_ambient})"

    def gram(self) -> list[list[int]]:
        """G = sum over the points p of (p - p0)(p - p0)^T, p0 the first
        point: d x d Python integers, computed once."""
        if self._gram is None:
            if self.count == 0:
                raise ValueError("empty point set has no affine hull")
            self._gram = _gram(self.array)
        return self._gram

    def hull_dimension(self) -> int:
        """rank(G) = rank of the differences p - p0 = affine dimension."""
        if self._hull_dim is None:
            self._hull_dim = _int_rank(self.gram())
        return self._hull_dim


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
    """All 0/1 feasible triples (x, y, z) of a conjugate diameter program.

    They are generated from the base feasible set: every ordered pair
    (x, y), z forced to 1 on the shared support and free elsewhere.
    base_points lists that set when the front end can (the ordering and
    tour front ends do); otherwise it is read from
    bpcore.feasible_blocks(dp.base, cap), a 2^n scan that needs n to fit
    under the enumeration cap.  A running count is checked against
    max_points pair by pair, so a refusal comes before the whole set is
    built.

    The rows meet the PointSet invariant (distinct rows, lexicographic
    order) by construction, so PointSet keeps the array after its linear
    check and never sorts it.  The pairs run over the sorted, deduplicated
    base points, x by the outer and y by the inner loop, so the blocks
    ascend in (x, y); within a block x and y are fixed, the shared z
    columns are 1, and the free z columns, in ascending column order, take
    the rows of the lexicographic table bpcore.bit_table.
    """
    if dp.include_lower_coupling:
        raise ValueError("point enumeration is defined for the conjugate variant")
    n = dp.base.n
    if base_points is None:
        base_points = (row for block in feasible_blocks(dp.base, cap) for row in block.tolist())
    # each ordered pair adds at least one point, so k base points give at
    # least k^2 and reading isqrt(max_points) + 1 of them is enough to refuse
    limit = math.isqrt(max(max_points, 0)) + 1
    base = [tuple(int(v) for v in p) for p in itertools.islice(base_points, limit)]
    if len(base) == limit:
        raise _over_cap(max_points)
    for p in base:
        if len(p) != n or any(v not in (0, 1) for v in p):
            raise ValueError("base points must be 0/1 vectors of base length")
    base = sorted(set(base))

    blocks = [np.empty((0, 3 * n), dtype=np.uint8)]
    total = 0
    tables: dict[int, np.ndarray] = {}
    for u in base:
        for v in base:
            shared = [i for i in range(n) if u[i] and v[i]]
            free = [i for i in range(n) if not (u[i] and v[i])]
            count = 1 << len(free)
            total += count
            if total > max_points:
                raise _over_cap(max_points)
            if len(free) not in tables:
                tables[len(free)] = bit_table(len(free)).astype(np.uint8)
            block = np.empty((count, 3 * n), dtype=np.uint8)
            block[:, :n] = u
            block[:, n : 2 * n] = v
            z = block[:, 2 * n :]
            z[:, shared] = 1
            z[:, free] = tables[len(free)]
            blocks.append(block)
    return PointSet(np.concatenate(blocks))


def lift_equation_system(base_system: EquationSystem) -> EquationSystem:
    """Duplicate a base minimal system over the x and y blocks, zero on z.

    [M 0 0; 0 M 0] v = (d, d) over 3n coordinates; rank doubles, so the
    paired hull loses twice the base rank in dimension.
    """
    m = base_system.matrix
    rows = [paired(m.ncols, x=r) for r in m.rows] + [paired(m.ncols, y=r) for r in m.rows]
    return EquationSystem(RatMatrix(rows), base_system.rhs + base_system.rhs)


def _row_values(ps: PointSet, coeffs, rhs):
    """(a . p for every point p, b) for the row a . v = b scaled to
    integers.  Only a's nonzero columns are read; the rows certified here
    have one to three."""
    a, b, _ = scaled_int_vector(coeffs, rhs)
    # 0/1 points: |a . p| <= sum |a|, and b is compared with it
    a = np.array(a, dtype=int_dtype(max(sum(map(abs, a)), abs(b))))
    nz = np.flatnonzero(a)
    return ps.array[:, nz] @ a[nz], b


def points_satisfying(ps: PointSet, ineq: Inequality) -> np.ndarray:
    """Boolean masks (satisfied, tight) for an inequality over the set."""
    if len(ineq.a) != ps.dim_ambient:
        raise ValueError("inequality width disagrees with the point set")
    vals, b = _row_values(ps, ineq.a, ineq.a0)
    tight = vals == b
    sat = HOLDS[ineq.sense](vals, b)
    return sat, tight


def _face_dimension(ps: PointSet, tight: np.ndarray, pdim: int) -> int:
    """Affine dimension of the tight points, when some point is not tight.

    The tight points then lie in a hyperplane that misses a point of the
    set, so their dimension is at most pdim - 1, pdim the hull's.  An
    odd-strided subset of about _FACE_SAMPLE * (pdim + 1) of them is ranked
    first: if it reaches pdim - 1, so does the whole face; otherwise the
    whole face is ranked.  The stride is odd because a power-of-two stride
    lines up with the 2^k z completions of each (x, y) block, picks the
    same completion from every block and can miss directions.
    """
    rows = np.flatnonzero(tight)
    stride = len(rows) // (_FACE_SAMPLE * (pdim + 1)) | 1
    if stride > 1 and affine_dimension(ps.array[rows[::stride]]) == pdim - 1:
        return pdim - 1
    return affine_dimension(ps.array[rows])


def check_inequality(ps: PointSet, ineq: Inequality) -> FacetReport:
    """Certify an inequality against an enumerated polytope.

    valid   = holds at every point;
    facet   = valid and its tight set spans affine dimension dim - 1.
    The empty face reports dimension -1, and a face tight at every point
    is the whole polytope.
    """
    sat, tight = points_satisfying(ps, ineq)
    valid = bool(sat.all())
    tight_count = int(tight.sum())
    pdim = ps.hull_dimension()
    if tight_count == 0:
        face_dim = -1
    elif tight_count == ps.count:
        face_dim = pdim
    else:
        face_dim = _face_dimension(ps, tight, pdim)
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
    every point exactly when a . p0 = b at the first point p0 and
    a^T G a = 0 for the set's Gram matrix G, because
    a^T G a = sum over the points p of (a . (p - p0))^2, a sum of squares
    of integers that is 0 only when a . p = a . p0 at every p.
    """
    if system.matrix.ncols != ps.dim_ambient:
        raise ValueError("system width disagrees with the point set")
    gram = ps.gram()
    p0 = ps.array[0].tolist()
    for row, d in zip(system.matrix.rows, system.rhs):
        a, b, _ = scaled_int_vector(row, d)
        nz = [k for k, v in enumerate(a) if v]
        if sum(a[k] * p0[k] for k in nz) != b:
            return False
        if sum(a[i] * a[j] * gram[i][j] for i in nz for j in nz):
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
