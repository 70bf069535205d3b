import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt.ratlinalg import (
    RatMatrix,
    _int_rank,
    affine_dimension,
    as_rational,
    scaled_int_vector,
)


def fraction_rank(rows):
    """Reference rank: textbook Gaussian elimination over Fractions."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


class TestAsRational:
    def test_accepts_common_forms(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational(Fraction(2, 6)) == Fraction(1, 3)
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("-2") == Fraction(-2)
        assert as_rational([3, 4]) == Fraction(3, 4)
        assert as_rational(np.int64(7)) == Fraction(7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_rejects_garbage(self):
        with pytest.raises((ValueError, TypeError)):
            as_rational("three quarters")


class TestScaledIntVector:
    def test_clears_denominators(self):
        ints, rhs, scale = scaled_int_vector([Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6))
        assert scale > 0
        assert [Fraction(v, scale) for v in ints] == [Fraction(1, 2), Fraction(1, 3)]
        assert Fraction(rhs, scale) == Fraction(5, 6)

    def test_integer_input_passes_through(self):
        ints, rhs, scale = scaled_int_vector([2, -4], 6)
        # rows are normalized by their content
        assert [Fraction(v, scale) for v in ints] == [Fraction(2), Fraction(-4)]
        assert Fraction(rhs, scale) == Fraction(6)


def vandermonde(nodes, ncols):
    return [[Fraction(x) ** j for j in range(ncols)] for x in nodes]


class TestRank:
    def test_identity(self):
        assert RatMatrix([[1, 0], [0, 1]]).rank() == 2

    def test_dependent_rows(self):
        assert RatMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).rank() == 2

    def test_zero_matrix(self):
        assert RatMatrix([[0, 0], [0, 0]]).rank() == 0

    def test_vandermonde_full_rank(self):
        # distinct nodes make every leading square block invertible
        m = vandermonde([1, 2, 3, 4], 4)
        assert RatMatrix(m).rank() == 4

    def test_constructed_rank_deficiency(self):
        rng = random.Random(5)
        base = vandermonde([1, 2, 3], 5)
        rows = list(base)
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in base]
            rows.append([sum(c * v for c, v in zip(coeffs, col)) for col in zip(*base)])
        assert RatMatrix(rows).rank() == 3
        assert fraction_rank(rows) == 3

    def test_fractional_entries(self):
        singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert RatMatrix(singular).rank() == 1
        regular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
        assert RatMatrix(regular).rank() == 2


class TestRankBuilder:
    """Integer row blocks through the rank kernel, against the Fraction oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_rank(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(3, 8)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(12)]
        assert _int_rank(rows) == RatMatrix(rows).rank() == fraction_rank(rows)

    def test_block_feed_matches_row_feed(self):
        # the ndarray (Gram) path and the list (row) path agree
        rng = np.random.default_rng(3)
        block = rng.integers(-5, 6, size=(200, 7), dtype=np.int64)
        rows = block.tolist()
        assert _int_rank(rows) == fraction_rank(rows)
        diffs = [[a - b for a, b in zip(r, rows[0])] for r in rows[1:]]
        assert affine_dimension(block) == affine_dimension(rows) == fraction_rank(diffs)

    def test_large_entries_overflow_guard(self):
        # entries near 2^40 put the Gram sum past the int64 bound
        big = 1 << 40
        rows = [[big, big + 1, 1], [big - 1, big, 2], [1, 2, 3]]
        assert _int_rank(rows) == RatMatrix(rows).rank() == fraction_rank(rows)
        assert affine_dimension(np.array(rows, dtype=np.int64)) == affine_dimension(rows) == 2

    def test_bigint_rows(self):
        huge = 10**30
        rows = [[huge, 1], [huge + 1, 1]]
        assert _int_rank(rows) == RatMatrix(rows).rank() == 2

    def test_saturation(self):
        # rank never exceeds the width, however many rows follow
        assert _int_rank([[1, 0]]) == 1
        assert _int_rank([[1, 0], [0, 1], [1, 1], [3, -2]]) == 2

    def test_rejects_float_blocks(self):
        with pytest.raises(ValueError):
            affine_dimension(np.array([[0.5, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            affine_dimension(np.array([[Fraction(1, 2), 1], [1, 1]], dtype=object))

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_products(self, seed):
        # M = A B has rank <= r; entries mix 2^70 and 1/3
        rng = random.Random(seed)
        pool = [0, 1, -1, 2, 1 << 70, -(1 << 70), Fraction(1, 3), Fraction(-1, 3)]
        r = 1 + seed % 3
        m, n = rng.randint(r + 2, 7), rng.randint(r + 1, 6)
        a = [[rng.choice(pool) for _ in range(r)] for _ in range(m)]
        b = [[rng.choice(pool) for _ in range(n)] for _ in range(r)]
        rows = [[sum(x * y for x, y in zip(ar, bc)) for bc in zip(*b)] for ar in a]
        diffs = [[p - q for p, q in zip(row, rows[0])] for row in rows[1:]]
        dim = fraction_rank(diffs)
        assert RatMatrix(rows).rank() == fraction_rank(rows) <= r
        assert affine_dimension(rows) == dim
        # scaling by 9 clears every denominator and keeps the affine dimension
        ints = np.array([[int(9 * v) for v in row] for row in rows], dtype=object)
        assert affine_dimension(ints) == dim


class TestAffineDimension:
    def test_single_point(self):
        assert affine_dimension([[3, 1, 4]]) == 0

    def test_segment(self):
        assert affine_dimension([[0, 0], [2, 2]]) == 1

    def test_standard_simplex_vertices(self):
        pts = np.eye(5, dtype=np.int64)
        assert affine_dimension(pts) == 4

    def test_full_cube(self):
        pts = [[(k >> i) & 1 for i in range(4)] for k in range(16)]
        assert affine_dimension(np.array(pts, dtype=np.uint8)) == 4

    def test_fraction_points_match_ndarray(self):
        pts = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        exact = affine_dimension([[Fraction(v) for v in p] for p in pts])
        fast = affine_dimension(np.array(pts, dtype=np.uint8))
        assert exact == fast == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            affine_dimension([])

    def test_uint64_beyond_int64_matches_list(self):
        # casting these to int64 wraps; the affine hull is the whole plane
        pts = [[0, 0], [2**64 - 1, 1], [1, 2**64 - 1]]
        assert affine_dimension(np.array(pts, dtype=np.uint64)) == affine_dimension(pts) == 2
