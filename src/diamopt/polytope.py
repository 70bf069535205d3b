"""Exact certification of paired-copy polytopes.

The object of study is the convex hull of all feasible (x, y, z) triples of
a conjugate diameter program: both halves feasible for the base model,
z_i >= x_i + y_i - 1.  Everything here is finite and exact: points are
generated from ordered pairs of base feasible points, dimensions come from
integer rank computations, and an inequality is certified a facet by the
definition itself: valid everywhere, tight on a face whose affine dimension
is one below the hull's.

A paired set's dimension needs no point.  The pair (u, v) with shared
support S = u AND v and k = n - |S| free z columns has 2^k points, whose
moments are sum 1 = 2^k, sum x = 2^k u, sum y = 2^k v,
sum z = 2^(k-1) (1 + S), and sum p p^T = 2^k q q^T with q = (u, v, (1 + S)/2)
plus 2^(k-2) on each free z diagonal entry.  With M, s and N those sums
over the m^2 ordered pairs, the Gram matrix the rank reads is
G = M - p0 s^T - s p0^T + N p0 p0^T, p0 = (u0, u0, u0) the first point in
lexicographic order (u0 the first base point).  It is summed as 4G, so the
halves and quarters are integers, by ratlinalg._gram over the m^2 <= N
weighted pair rows, each entry at most 4N (only the user-set max_points
bounds N).  Points are built only when read: facet checks, the listing.

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
from .errors import CapExceededError, InfeasibleModelError
from .ratlinalg import (
    RatMatrix,
    _gram,
    _int_rank,
    _mod_rank,
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

    PointSet(points) holds an array: rows that already satisfy the
    invariant are kept as given after an O(rows * columns) check; any other
    array is sorted and deduplicated with np.unique.

    enumerate_points returns a paired set instead, which holds only the
    sorted base points.  Its count N, its first point p0 = (u0, u0, u0) and
    its Gram matrix G = M - p0 s^T - s p0^T + N p0 p0^T come from the pair
    moments M = sum p p^T and s = sum p (module docstring; _pair_count,
    _pair_gram), summed as 4G by the exact kernel ratlinalg._gram over
    m^2 <= N weighted pair rows.  So the dimension and the minimality check
    never build a point; the array is generated on its first read.
    """

    def __init__(self, points):
        arr = np.asarray(points)
        if arr.ndim != 2:
            raise ValueError("points must form a 2-D array")
        # checked before the cast, which would truncate 0.5 and wrap -1 or 256
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("points must be 0/1")
        arr = arr.astype(np.uint8, copy=False)
        if not _strictly_increasing(arr):
            arr = np.unique(arr, axis=0)
        self._array: np.ndarray | None = np.ascontiguousarray(arr)
        self._base: np.ndarray | None = None
        self.count, self.dim_ambient = arr.shape
        self._gram: list[list[int]] | None = None
        self._hull_dim: int | None = None

    @classmethod
    def _paired(cls, base: np.ndarray, count: int) -> "PointSet":
        """The paired set of sorted, distinct base points with `count` points."""
        ps = cls.__new__(cls)
        ps._array, ps._base = None, base
        ps.count, ps.dim_ambient = count, 3 * base.shape[1]
        ps._gram = ps._hull_dim = None
        return ps

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            arr = _paired_rows(self._base, self.count)
            if not _strictly_increasing(arr):
                raise RuntimeError("paired points generated out of lexicographic order")
            self._array = arr
        return self._array

    @property
    def first(self) -> np.ndarray:
        """p0, the first point in lexicographic order."""
        if self._base is None:
            return self._array[0]
        return np.tile(self._base[0], 3)

    def __len__(self) -> int:
        return self.count

    def __repr__(self):
        return f"PointSet({self.count} points in R^{self.dim_ambient})"

    def gram(self) -> list[list[int]]:
        """G = sum over the points p of (p - p0)(p - p0)^T, p0 the first
        point: d x d Python integers, computed once, from the pair moments
        for a paired set and from the array otherwise.  An empty set is the
        point set of an infeasible model, which has no affine hull."""
        if self._gram is None:
            if self.count == 0:
                raise InfeasibleModelError("no feasible point: the empty point set has no affine hull")
            self._gram = (_gram(self._array) if self._base is None else _pair_gram(self._base)).tolist()
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
    under the enumeration cap.

    The set is returned as its sorted, deduplicated base points.  The
    count N, the sum over the ordered pairs of 2^k with k the pair's free z
    columns, is computed exactly on Python integers and checked against
    max_points before anything else.  The Gram matrix follows from the
    pair moments, G = M - p0 s^T - s p0^T + N p0 p0^T with
    p0 = (u0, u0, u0) (_pair_gram: one ratlinalg._gram call, under its
    checked bounds, over m^2 <= N weighted pair rows), and the points
    themselves are generated only when PointSet.array is read
    (_paired_rows).
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
    base = np.array(base, dtype=np.uint8).reshape(len(base), n)
    count = _pair_count(base)
    if count > max_points:
        raise _over_cap(max_points)
    return PointSet._paired(base, count)


def _pairs(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(shared, k) over the m^2 ordered base pairs (u_a, v_b), pair a m + b:
    shared = u_a AND v_b, the z columns forced to 1, k = n - |shared| the
    free ones.  All at once, since m^2 <= max_points (enumerate_points reads
    at most isqrt(max_points) base points), so no pair array is larger than
    the point array that the same max_points admits."""
    shared = (base[:, None, :] & base[None, :, :]).reshape(-1, base.shape[1])
    return shared, base.shape[1] - shared.sum(axis=1, dtype=np.int64)


def _pair_count(base: np.ndarray) -> int:
    """Points of the paired set: sum over the ordered pairs of 2^k, with
    k = n - |u AND v| the free z columns, as a Python integer."""
    free = np.bincount(_pairs(base)[1], minlength=base.shape[1] + 1)
    return sum(c << k for k, c in enumerate(free.tolist()))


def _pair_gram(base: np.ndarray) -> np.ndarray:
    """The paired set's Gram matrix G = sum (p - p0)(p - p0)^T from the m^2
    pair moments of the module docstring, without generating a point.

    A pair's 2^k points add 2^k (q - p0)(q - p0)^T plus 2^(k-2) on each
    free z diagonal entry, so 4G is the ratlinalg._gram sum of the m^2 <= N
    rows 2q = (2u, 2v, 1 + u AND v), weights 2^k, about the origin 2 p0,
    plus 2^k on each free z diagonal entry.  2q - 2 p0 is in {-2, ..., 2},
    so each entry of 4G is at most 4N in size, the bound that types the
    weights and the diagonal sum; the division by 4 is checked.
    """
    n = base.shape[1]
    shared, k = _pairs(base)
    dtype = int_dtype(4 * _pair_count(base))
    weight = 2 ** k.astype(dtype)  # 2^k <= N: each pair's points are among them
    two_u, m = 2 * base, len(base)
    rows = np.concatenate([np.repeat(two_u, m, axis=0), np.tile(two_u, (m, 1)), 1 + shared], axis=1)
    gram4 = _gram(rows, weight, np.tile(two_u[0], 3)).astype(dtype)
    z = np.arange(2 * n, 3 * n)
    gram4[z, z] += [weight[free].sum() for free in (shared == 0).T]
    if (gram4 % 4).any():
        raise RuntimeError("pair moments: 4G is not divisible by 4")
    return gram4 // 4


def _paired_rows(base: np.ndarray, count: int) -> np.ndarray:
    """The paired set's `count` points as a uint8 array, in PointSet order.

    The pairs run over the sorted, deduplicated base points, x by the
    outer and y by the inner loop, so the blocks ascend in (x, y); within
    a block x and y are fixed, the shared z columns are 1, and the free z
    columns, in ascending column order, take the rows of the lexicographic
    table bpcore.bit_table.  The rows are therefore distinct and in order
    by construction.
    """
    n = base.shape[1]
    out = np.empty((count, 3 * n), dtype=np.uint8)
    row = 0
    tables: dict[int, np.ndarray] = {}
    points = base.tolist()
    for u in points:
        for v in points:
            shared = [i for i in range(n) if u[i] and v[i]]
            free = [i for i in range(n) if not (u[i] and v[i])]
            if len(free) not in tables:
                tables[len(free)] = bit_table(len(free)).astype(np.uint8)
            block = out[row : row + (1 << len(free))]
            block[:, :n] = u
            block[:, n : 2 * n] = v
            z = block[:, 2 * n :]
            z[:, shared] = 1
            z[:, free] = tables[len(free)]
            row += len(block)
    return out


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
    have one to three.  In int64, a . p is summed as a_j times column j
    over those columns, each a strided view of ps.array, so no column is
    gathered into a copy; past the int64 bound the columns are multiplied
    as Python integers."""
    a, b, _ = scaled_int_vector(coeffs, rhs)
    # 0/1 points: every partial sum of a . p is at most sum |a| in size,
    # and b is compared with it
    dtype = int_dtype(max(sum(map(abs, a)), abs(b)))
    nz = [j for j, c in enumerate(a) if c]
    if dtype is object:
        return ps.array[:, nz] @ np.array([a[j] for j in nz], dtype=object), b
    vals = np.zeros(ps.count, dtype=np.int64)
    for j in nz:
        # an int64 loop whatever the numpy casting rules make of a[j]
        vals += np.multiply(ps.array[:, j], a[j], dtype=np.int64)
    return vals, b


def points_satisfying(ps: PointSet, ineq: Inequality) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (satisfied, tight) for an inequality over the set."""
    if len(ineq.a) != ps.dim_ambient:
        raise ValueError("inequality width disagrees with the point set")
    vals, b = _row_values(ps, ineq.a, ineq.a0)
    tight = vals == b
    sat = HOLDS[ineq.sense](vals, b)
    return sat, tight


def _face_dimension(ps: PointSet, tight: np.ndarray, pdim: int) -> int:
    """Affine dimension of the tight points, when some point is not tight.

    Two proven bounds decide most faces without an exact rank:
    - upper: the tight points lie in a hyperplane that misses a point of
      the set, so their dimension is at most pdim - 1, pdim the hull's;
    - lower: the rank modulo a prime of the Gram matrix of a subset of
      them (ratlinalg._mod_rank), never above that Gram's rational rank,
      which is the subset's dimension, at most the face's.
    The subset is an odd-strided one of about _FACE_SAMPLE * (pdim + 1)
    tight points (all of them, for a smaller face).  When its rank mod p
    reaches pdim - 1, the bounds meet and the face's dimension is pdim - 1.
    Otherwise (a face of lower dimension, a subset that misses directions
    or a prime that divides a needed minor) the whole face is ranked
    exactly by _int_rank, on the subset's Gram matrix when the subset is
    the whole face (stride 1) and on the whole face's otherwise.  The
    stride is odd because a power-of-two stride lines up with the 2^k z
    completions of each (x, y) block, picks the same completion from every
    block and can miss directions.
    """
    rows = np.flatnonzero(tight)
    stride = len(rows) // (_FACE_SAMPLE * (pdim + 1)) | 1
    gram = _gram(ps.array[rows[::stride]])
    if _mod_rank(gram) == pdim - 1:
        return pdim - 1
    if stride > 1:
        gram = _gram(ps.array[rows])
    return _int_rank(gram.tolist())


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
    p0 = ps.first.tolist()
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
