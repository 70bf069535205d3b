"""Exact rational linear algebra.

Every rank decision in the polyhedral code runs through one routine,
`_int_rank`: fraction-free (Bareiss) elimination on Python integers, whose
division by the previous pivot is exact.  Rational rows are scaled to
integers row by row first, which leaves the rank unchanged.

An integer point array is reduced to its Gram matrix G = sum (p - p0)(p - p0)^T
before elimination: over the rationals rank(D) = rank(D^T D), and G is only
d x d however many points there are.  G is summed in int64 when no entry can
reach 2**62, that is when (rows - 1) * spread**2 < 2**62 with spread the
largest column range; otherwise in Python integers.  `int_dtype` is that one
overflow rule, shared with the int64 dot products in bpcore and polytope, so
no result depends on floating point or on silent wraparound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# int64 headroom: a value known to stay below 2**62 in size leaves a factor
# of two before any numpy int64 sum or product could wrap.
_INT64_BOUND = 1 << 62

# The Gram matrix is summed this many points at a time, so the difference
# block has a fixed size however many points there are.
_GRAM_CHUNK = 1 << 15


def int_dtype(bound: int):
    """numpy dtype for exact integer work whose values never exceed `bound`
    in absolute value: int64 below 2**62, object (Python integers) above."""
    return np.int64 if bound < _INT64_BOUND else object


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '3/7' or '0.25', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, np.integer):
        return Fraction(int(x))
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return Fraction(int(x[0]), int(x[1]))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def scaled_int_vector(coeffs: Sequence, rhs=None):
    """Clear denominators from a rational row.

    Returns (int_coeffs, int_rhs, scale) where scale > 0, so any comparison
    row . v <= rhs is equivalent to int_coeffs . v <= int_rhs.
    """
    cs = [as_rational(c) for c in coeffs]
    dens = [c.denominator for c in cs]
    if rhs is not None:
        rhs = as_rational(rhs)
        dens.append(rhs.denominator)
    scale = math.lcm(*dens) if dens else 1
    ints = tuple(int(c * scale) for c in cs)
    if rhs is None:
        return ints, None, scale
    return ints, int(rhs * scale), scale


def _int_rank(rows) -> int:
    """Rank of an integer matrix by Bareiss elimination.

    After k pivots every live entry is a (k+1)-minor of the input and the
    divisor is the k-minor of the pivot block (Sylvester's identity), so each
    floor division is exact.  A column without a pivot is dropped; so is a
    row once it is zero, since it stays zero.
    """
    work = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    while work and work[0]:
        k = next((i for i, r in enumerate(work) if r[0]), None)
        if k is None:
            work = [r[1:] for r in work]
            continue
        pivot_row = work.pop(k)
        p, tail = pivot_row[0], pivot_row[1:]
        work = [
            [(p * a - r[0] * b) // prev for a, b in zip(r[1:], tail)] for r in work
        ]
        work = [r for r in work if any(r)]
        prev = p
        rank += 1
    return rank


class RatMatrix:
    """Dense matrix of Fractions.

    Construction normalizes every entry through Fraction, which keeps the
    lowest-terms / positive-denominator invariants for free.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence]):
        rs = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if rs:
            w = len(rs[0])
            for r in rs:
                if len(r) != w:
                    raise ValueError("ragged rows")
        else:
            w = 0
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = w

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"

    def rank(self) -> int:
        """Exact rank: each row scaled to integers, then `_int_rank`."""
        return _int_rank(scaled_int_vector(r)[0] for r in self.rows)


def _gram(points: np.ndarray) -> list[list[int]]:
    """sum over the rows p of (p - p0)(p - p0)^T, as Python integers."""
    if points.dtype != object and not np.issubdtype(points.dtype, np.integer):
        raise ValueError("point arrays must have an integer dtype")
    if points.dtype == object and not all(isinstance(v, int) for v in points.flat):
        raise ValueError("object point arrays must hold Python integers")
    columns = zip(points.max(axis=0), points.min(axis=0))
    spread = max((int(hi) - int(lo) for hi, lo in columns), default=0)
    dtype = int_dtype((points.shape[0] - 1) * spread * spread)
    # cast before subtracting: a uint64 entry above 2**63 wraps in the cast,
    # but the difference of two such entries is below 2**31 here, so it
    # comes out exact modulo 2**64, i.e. exact
    base = points[0].astype(dtype)[:, None]
    gram = np.zeros((points.shape[1], points.shape[1]), dtype=dtype)
    for lo in range(0, points.shape[0], _GRAM_CHUNK):
        # the transposed chunk in C order makes the product read rows only
        diff_t = points[lo : lo + _GRAM_CHUNK].T.astype(dtype, order="C")
        diff_t -= base
        gram += diff_t @ diff_t.T
    return gram.tolist()


def affine_dimension(points) -> int:
    """Dimension of the affine hull of a nonempty point collection.

    A single point has dimension 0.  Accepts a 2-D integer (or object array
    of Python integers) ndarray, reduced to its Gram matrix, or any iterable
    of rational coordinate sequences, whose differences are ranked directly.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError("expected a 2-D array of points")
        if points.shape[0] == 0:
            raise ValueError("affine hull of no points is undefined")
        return _int_rank(_gram(points))

    pts = [tuple(as_rational(c) for c in p) for p in points]
    if not pts:
        raise ValueError("affine hull of no points is undefined")
    base = pts[0]
    if any(len(p) != len(base) for p in pts):
        raise ValueError("points of mixed dimension")
    return _int_rank(scaled_int_vector([a - b for a, b in zip(p, base)])[0] for p in pts[1:])
