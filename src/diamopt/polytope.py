"""Exact certification of paired-copy polytopes.

The object of study is the convex hull of all feasible (x, y, z) triples of
a conjugate diameter program: both halves feasible for the base model,
z_i >= x_i + y_i - 1.  Everything here is finite and exact: points are
enumerated (structured pair generation or a raw scan), dimensions come from
integer rank computations, and an inequality is certified a facet by the
definition itself: valid everywhere, tight on a face whose affine dimension
is one below the hull's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bpcore import BinaryProgram, enumerate_feasible
from .diameter import DiameterProgram
from .errors import CapExceededError
from .ratlinalg import RatMatrix, affine_dimension, as_rational, int_dtype, scaled_int_vector

DEFAULT_MAX_POINTS = 2_000_000


class PointSet:
    """Distinct 0/1 points in lexicographic order, one per row."""

    def __init__(self, points, source: str = ""):
        arr = np.asarray(points, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("points must form a 2-D array")
        if arr.size and arr.max() > 1:
            raise ValueError("points must be 0/1")
        if arr.shape[0]:
            arr = np.unique(arr, axis=0)
        self.array = np.ascontiguousarray(arr)
        self.source = source
        self._hull_dim: int | None = None
        self._wide: np.ndarray | None = None

    @property
    def dim_ambient(self) -> int:
        return self.array.shape[1]

    @property
    def count(self) -> int:
        return self.array.shape[0]

    def __len__(self) -> int:
        return self.count

    def __repr__(self):
        return f"PointSet({self.count} points in R^{self.dim_ambient}, {self.source!r})"

    def wide(self) -> np.ndarray:
        """int64 view used for exact dot products (cached)."""
        if self._wide is None:
            self._wide = self.array.astype(np.int64)
        return self._wide

    def hull_dimension(self) -> int:
        if self._hull_dim is None:
            if self.count == 0:
                raise ValueError("empty point set has no affine hull")
            self._hull_dim = affine_dimension(self.array)
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


def _completion_table(nfree: int) -> np.ndarray:
    # all 0/1 patterns of length nfree, lexicographic
    idx = np.arange(1 << nfree, dtype=np.int64)
    shifts = np.arange(nfree - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def enumerate_points(
    dp: DiameterProgram,
    base_points: Iterable[Sequence[int]] | None = None,
    cap: int | None = None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> PointSet:
    """All 0/1 feasible triples (x, y, z) of a conjugate diameter program.

    With base_points (the feasible set of the base model) the generation is
    structured: every ordered pair (x, y), z forced to 1 on the shared
    support and free elsewhere.  Without it the derived model is scanned
    raw, which needs 3n to fit under the enumeration cap.
    """
    if dp.include_lower_coupling:
        raise ValueError("point enumeration is defined for the conjugate variant")
    n = dp.base.n
    if base_points is None:
        pts = enumerate_feasible(dp.derived, cap)
        if len(pts) > max_points:
            raise CapExceededError(f"point enumeration exceeds max_points={max_points}")
        return PointSet(
            np.array(pts, dtype=np.uint8).reshape(len(pts), 3 * n),
            source=f"raw scan of {dp.derived.n} binaries",
        )

    base = [tuple(int(v) for v in p) for p in base_points]
    for p in base:
        if len(p) != n or any(v not in (0, 1) for v in p):
            raise ValueError("base points must be 0/1 vectors of base length")

    total = 0
    blocks = []
    tables: dict[int, np.ndarray] = {}
    for u in base:
        for v in base:
            shared = [i for i in range(n) if u[i] and v[i]]
            free = [i for i in range(n) if not (u[i] and v[i])]
            count = 1 << len(free)
            total += count
            if total > max_points:
                raise CapExceededError(
                    f"point enumeration exceeds max_points={max_points}"
                )
            if len(free) not in tables:
                tables[len(free)] = _completion_table(len(free))
            pat = tables[len(free)]
            block = np.empty((count, 3 * n), dtype=np.uint8)
            block[:, :n] = u
            block[:, n : 2 * n] = v
            z = np.zeros((count, n), dtype=np.uint8)
            if shared:
                z[:, shared] = 1
            if free:
                z[:, free] = pat
            block[:, 2 * n :] = z
            blocks.append(block)
    if not blocks:
        return PointSet(np.zeros((0, 3 * n), dtype=np.uint8), source="structured pairs")
    return PointSet(np.vstack(blocks), source="structured pairs")


def lift_equation_system(base_system: EquationSystem, n: int | None = None) -> EquationSystem:
    """Duplicate a base minimal system over the x and y blocks, zero on z.

    [M 0 0; 0 M 0] v = (d, d) over 3n coordinates; rank doubles, so the
    paired hull loses twice the base rank in dimension.
    """
    m = base_system.matrix
    if n is None:
        n = m.ncols
    elif n != m.ncols:
        raise ValueError("system width disagrees with n")
    zero = (Fraction(0),) * n
    rows = []
    for r in m.rows:
        rows.append(tuple(r) + zero + zero)
    for r in m.rows:
        rows.append(zero + tuple(r) + zero)
    return EquationSystem(RatMatrix(rows), base_system.rhs + base_system.rhs)


def _int_row(coeffs, rhs):
    # 0/1 points: |a . p| <= sum |a|, and b is compared with it
    a, b, _ = scaled_int_vector(coeffs, rhs)
    return np.array(a, dtype=int_dtype(max(sum(map(abs, a)), abs(b)))), b


def points_satisfying(ps: PointSet, ineq: Inequality) -> np.ndarray:
    """Boolean masks (satisfied, tight) for an inequality over the set."""
    a, b = _int_row(ineq.a, ineq.a0)
    if len(ineq.a) != ps.dim_ambient:
        raise ValueError("inequality width disagrees with the point set")
    vals = ps.wide() @ a
    tight = vals == b
    sat = vals <= b if ineq.sense == "<=" else vals >= b
    return sat, tight


def check_inequality(ps: PointSet, ineq: Inequality) -> FacetReport:
    """Certify an inequality against an enumerated polytope.

    valid   = holds at every point;
    facet   = valid and its tight set spans affine dimension dim - 1.
    The empty face reports dimension -1.
    """
    sat, tight = points_satisfying(ps, ineq)
    valid = bool(sat.all())
    tight_count = int(tight.sum())
    if tight_count == 0:
        face_dim = -1
    else:
        face_dim = affine_dimension(ps.array[tight])
    pdim = ps.hull_dimension()
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
    ambient minus the system's rank (rows are independent by construction)."""
    if system.matrix.ncols != ps.dim_ambient:
        raise ValueError("system width disagrees with the point set")
    wide = ps.wide()
    for row, d in zip(system.matrix.rows, system.rhs):
        a, b = _int_row(row, d)
        if not bool(((wide @ a) == b).all()):
            return False
    return ps.hull_dimension() == ps.dim_ambient - system.matrix.nrows


def facet_families(n: int, base_facets: Sequence[Inequality]) -> list[Inequality]:
    """The inherited and coupling inequality families over 3n coordinates.

    For each base facet a.x <= a0: its copy on the x block and on the y
    block; then 0 <= z_i <= 1 and x_i + y_i - z_i <= 1 for every
    coordinate.
    """
    zero = (Fraction(0),) * n
    out: list[Inequality] = []
    for k, f in enumerate(base_facets):
        if len(f.a) != n:
            raise ValueError(f"base facet {k} has width {len(f.a)}, expected {n}")
        tag = f.label or f"base{k}"
        out.append(Inequality(tuple(f.a) + zero + zero, f.a0, f.sense, f"{tag}[x]"))
        out.append(Inequality(zero + tuple(f.a) + zero, f.a0, f.sense, f"{tag}[y]"))
    for i in range(n):
        a = [Fraction(0)] * (3 * n)
        a[2 * n + i] = Fraction(1)
        out.append(Inequality(tuple(a), Fraction(0), ">=", f"z{i + 1}_ge_0"))
    for i in range(n):
        a = [Fraction(0)] * (3 * n)
        a[2 * n + i] = Fraction(1)
        out.append(Inequality(tuple(a), Fraction(1), "<=", f"z{i + 1}_le_1"))
    for i in range(n):
        a = [Fraction(0)] * (3 * n)
        a[i] = a[n + i] = Fraction(1)
        a[2 * n + i] = Fraction(-1)
        out.append(Inequality(tuple(a), Fraction(1), "<=", f"pair_ub_{i + 1}"))
    return out


@dataclass(frozen=True)
class DisjointPairReport:
    existential: bool
    existential_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    universal: bool
    universal_counterexample: tuple[int, ...] | None


def check_disjoint_pair_condition(
    bp: BinaryProgram | None = None,
    base_points: Iterable[Sequence[int]] | None = None,
    cap: int | None = None,
) -> DisjointPairReport:
    """Support-disjointness of the feasible set.

    existential: some feasible pair has disjoint supports (what the
    dimension argument needs); universal: every feasible point has a
    disjoint feasible partner (what the facet arguments need).
    """
    if base_points is None:
        if bp is None:
            raise ValueError("need a model or an explicit feasible set")
        base_points = enumerate_feasible(bp, cap)
    pts = [tuple(int(v) for v in p) for p in base_points]
    masks = []
    for p in pts:
        m = 0
        for i, v in enumerate(p):
            if v:
                m |= 1 << i
        masks.append(m)
    witness = None
    counterexample = None
    universal = True
    for i, mi in enumerate(masks):
        partner = next((j for j, mj in enumerate(masks) if mi & mj == 0), None)
        if partner is None:
            universal = False
            if counterexample is None:
                counterexample = pts[i]
        elif witness is None:
            witness = (pts[i], pts[partner])
    return DisjointPairReport(
        existential=witness is not None,
        existential_witness=witness,
        universal=universal,
        universal_counterexample=counterexample,
    )
