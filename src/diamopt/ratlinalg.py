"""Exact rational linear algebra.

Every exact rank in the library comes from one routine, `_pivot_columns`:
fraction-free (Bareiss) elimination on Python integers, whose division by
the previous pivot is exact; the rank is its number of pivots.  Rational
rows are scaled to integers row by row first, which leaves the rank
unchanged.

A 0/1 point array is reduced to its Gram matrix G = sum (p - p0)(p - p0)^T
before elimination: over the rationals rank(D) = rank(D^T D), and G is only
d x d however many points there are.  `_gram`, the one Gram kernel, takes
uint8 rows only and sums float64 BLAS products of row chunks in int64.  Its
bound always holds: every difference is 0 or +-1, so each entry of a chunk
product is an integer of size at most _GRAM_CHUNK = 2**12 and each entry of
G at most the number of rows, far below the 2**53 up to which float64 holds
every integer and the 2**62 of the int64 rule.  (Any uint8 rows, fewer than
2**46 of them, stay exact too: 255**2 * 2**12 < 2**53 and 255**2 * 2**46 <
2**62.)  So no result depends on summation order, FMA or BLAS threads.
`affine_dimension` ranks any other integer array by Bareiss on its rows'
differences, taken on Python integers.  `int_dtype` is the one int64
overflow rule, shared with the int64 dot products in bpcore and polytope,
so no result depends on silent wraparound.

Exact numbers have one normal form, as_rational's: an int for an integer
value, a lowest-terms Fraction otherwise.  An all-integer row is never
coerced again, and scaled_int_vector returns it as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# int64 headroom: a value known to stay below 2**62 in size leaves a factor
# of two before any numpy int64 sum or product could wrap.
_INT64_BOUND = 1 << 62

# The Gram matrix is summed at most this many points at a time, so the
# difference block has a fixed size however many points there are
# (1.2 MB of float64 at 36 columns).
_GRAM_CHUNK = 1 << 12


def int_dtype(bound: int):
    """numpy dtype for exact integer work whose values never exceed `bound`
    in absolute value: int64 below 2**62, object (Python integers) above."""
    return np.int64 if bound < _INT64_BOUND else object


def as_integer(x) -> int:
    """int or np.integer x as an int; a bool or float is ValueError."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def as_rational(x) -> int | Fraction:
    """An exact number in normal form: an int for an integer value, a
    lowest-terms Fraction for any other rational.  Accepts ints, numpy
    integers, strings like '3/7' or '0.25', [num, den] pairs of integers
    and Fractions.  A bool, a non-integer inside a pair and a zero
    denominator are malformed input: ValueError; a float is TypeError."""
    if type(x) is int:  # first: an isinstance test on an int goes through ABCMeta
        return x
    if isinstance(x, Fraction):
        q = x
    else:
        try:
            if isinstance(x, str):
                q = Fraction(x)
            elif isinstance(x, (int, np.integer)):
                return as_integer(x)
            elif isinstance(x, (list, tuple)) and len(x) == 2:
                q = Fraction(as_integer(x[0]), as_integer(x[1]))
            else:
                raise TypeError(f"cannot interpret {x!r} as a rational")
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    return q.numerator if q.denominator == 1 else q


def _all_int(row: tuple) -> bool:
    """Whether every entry is a Python int (no bool, no numpy integer), an
    entry as_rational returns as it is."""
    return set(map(type, row)) <= {int}


def as_rationals(values) -> tuple:
    """as_rational of each value, as a tuple; an all-int row is returned as
    it is, with no call per entry."""
    row = tuple(values)
    return row if _all_int(row) else tuple(map(as_rational, row))


def scaled_int_vector(coeffs: Sequence, rhs=None):
    """Clear denominators from a rational row.

    Returns (int_coeffs, int_rhs, scale) where scale > 0, so any comparison
    row . v <= rhs is equivalent to int_coeffs . v <= int_rhs.  A row of
    ints (and an int or no rhs) comes back as it is, with scale 1; any
    other row is brought to as_rational's normal form first.
    """
    cs = tuple(coeffs)
    if _all_int(cs) and (rhs is None or type(rhs) is int):
        return cs, rhs, 1
    cs = tuple(map(as_rational, cs))
    dens = {c.denominator for c in cs}  # an int's denominator is 1
    if rhs is not None:
        rhs = as_rational(rhs)
        dens.add(rhs.denominator)
    scale = math.lcm(*dens)  # 1 for an empty row
    # scale is a multiple of every denominator: no Fraction arithmetic
    ints = tuple(c.numerator * (scale // c.denominator) for c in cs)
    if rhs is None:
        return ints, None, scale
    return ints, rhs.numerator * (scale // rhs.denominator), scale


def _pivot_columns(rows) -> list[int]:
    """The pivot columns of an integer matrix by Bareiss elimination: each
    column that is not a combination of the columns before it, so their
    number is the rank.

    After k pivots every live entry is a (k+1)-minor of the input and the
    divisor is the k-minor of the pivot block (Sylvester's identity), so each
    floor division is exact.  A column without a pivot is dropped; so is a
    row once it is zero, since it stays zero.
    """
    work = [list(r) for r in rows if any(r)]
    pivots, prev, col = [], 1, 0
    while work and work[0]:
        k = next((i for i, r in enumerate(work) if r[0]), None)
        if k is None:
            work = [r[1:] for r in work]
        else:
            pivot_row = work.pop(k)
            p, tail = pivot_row[0], pivot_row[1:]
            work = [
                [(p * a - r[0] * b) // prev for a, b in zip(r[1:], tail)] for r in work
            ]
            work = [r for r in work if any(r)]
            prev = p
            pivots.append(col)
        col += 1
    return pivots


class RatMatrix:
    """Dense rational matrix.

    Construction brings every entry to as_rational's normal form: an int
    for an integer value, a lowest-terms Fraction otherwise.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence]):
        rs = tuple(map(as_rationals, rows))
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
        """Exact rank: each row scaled to integers, then Bareiss."""
        return len(_pivot_columns(scaled_int_vector(r)[0] for r in self.rows))


def _gram(points: np.ndarray) -> np.ndarray:
    """sum over the rows p of (p - p0)(p - p0)^T, p0 the first row, of a
    uint8 0/1 array: float64 chunk products, exact by the module
    docstring's bound, summed in an int64 array.  Any other dtype is a
    TypeError: its callers hand it base points, face corners and 0/1 arrays."""
    if points.dtype != np.uint8:
        raise TypeError(f"_gram takes a uint8 array, not {points.dtype}")
    base = points[0].astype(np.float64)
    gram = np.zeros((points.shape[1], points.shape[1]), dtype=np.int64)
    for start in range(0, points.shape[0], _GRAM_CHUNK):
        diff = points[start : start + _GRAM_CHUNK].astype(np.float64)
        diff -= base
        gram += (diff.T @ diff).astype(np.int64)
    return gram


def affine_dimension(points) -> int:
    """Dimension of the affine hull of a nonempty point collection.

    A single point has dimension 0.  Accepts a 2-D integer (or object array
    of Python integers) ndarray, or any iterable of rational coordinate
    sequences.  A 0/1 array is reduced to its Gram matrix by `_gram`; the
    differences of any other integer rows are ranked directly, and rational
    rows are scaled to integers first.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError("expected a 2-D array of points")
        if points.shape[0] == 0:
            raise ValueError("affine hull of no points is undefined")
        if points.dtype == object:
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in points.flat):
                raise ValueError("object point arrays must hold Python integers")
        elif not np.issubdtype(points.dtype, np.integer):
            raise ValueError("point arrays must have an integer dtype")
        if ((points == 0) | (points == 1)).all():
            return len(_pivot_columns(_gram(points.astype(np.uint8, copy=False)).tolist()))
        rows = points.tolist()
        return len(_pivot_columns([a - b for a, b in zip(r, rows[0])] for r in rows[1:]))

    pts = [as_rationals(p) for p in points]
    if not pts:
        raise ValueError("affine hull of no points is undefined")
    base = pts[0]
    if any(len(p) != len(base) for p in pts):
        raise ValueError("points of mixed dimension")
    return len(_pivot_columns(scaled_int_vector([a - b for a, b in zip(p, base)])[0] for p in pts[1:]))
