import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import ratlinalg, suites
from diamopt.ratlinalg import (
    RatMatrix,
    _gram,
    _pivot_columns,
    affine_dimension,
    as_integer,
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

    @pytest.mark.parametrize("x", [[1.5, 2], [3, 2.9], [True, 2], (np.float64(2.0), 1), True])
    def test_rejects_truncation(self, x):
        # int() would read these as 1/2, 3/2, 1/2, 2 and 1
        with pytest.raises(ValueError, match="is not an integer"):
            as_rational(x)

    def test_normal_form(self):
        # an integer value is an int however it comes in; any other
        # rational stays a Fraction
        for v in (3, np.int64(3), "4/2", Fraction(4, 2), [6, 3], Fraction(-8, 4)):
            assert type(as_rational(v)) is int
        assert as_rational("4/2") == as_rational(Fraction(4, 2)) == 2
        assert type(as_rational("1/2")) is Fraction and as_rational("1/2") == Fraction(1, 2)
        assert type(as_rational([2, 4])) is Fraction
        for bad in (True, np.bool_(True), [True, 1], "1/0", [1, 0]):
            with pytest.raises((ValueError, TypeError)):
                as_rational(bad)

    def test_integer_pairs(self):
        assert as_rational((np.int64(-6), np.uint8(4))) == Fraction(-3, 2)
        assert as_integer(np.int8(-3)) == -3 and type(as_integer(np.int8(-3))) is int


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

    def test_int_row_is_returned_as_is(self, monkeypatch):
        row = (2, -4, 0)

        def refuse(x):
            raise AssertionError(f"{x!r} coerced again")

        monkeypatch.setattr(ratlinalg, "as_rational", refuse)
        ints, rhs, scale = scaled_int_vector(row, 6)
        assert ints is row and rhs == 6 and scale == 1
        assert scaled_int_vector(row) == (row, None, 1)

    def test_mixed_rows_are_normalized(self):
        # a Fraction of denominator 1 counts as its integer; a bool or a
        # numpy integer is not taken for an int
        assert scaled_int_vector([Fraction(4, 2), 1], Fraction(6, 3)) == ((2, 1), 2, 1)
        assert scaled_int_vector([np.int64(3), Fraction(1, 2)]) == ((6, 1), None, 2)
        with pytest.raises(ValueError):
            scaled_int_vector([True, 1])


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
        assert len(_pivot_columns(rows)) == RatMatrix(rows).rank() == fraction_rank(rows)

    def test_block_feed_matches_row_feed(self):
        # the ndarray (Gram) path and the list (row) path agree
        rng = np.random.default_rng(3)
        block = rng.integers(-5, 6, size=(200, 7), dtype=np.int64)
        rows = block.tolist()
        assert len(_pivot_columns(rows)) == fraction_rank(rows)
        diffs = [[a - b for a, b in zip(r, rows[0])] for r in rows[1:]]
        assert affine_dimension(block) == affine_dimension(rows) == fraction_rank(diffs)

    def test_large_entries_overflow_guard(self):
        # entries near 2^40 put the Gram sum past the int64 bound
        big = 1 << 40
        rows = [[big, big + 1, 1], [big - 1, big, 2], [1, 2, 3]]
        assert len(_pivot_columns(rows)) == RatMatrix(rows).rank() == fraction_rank(rows)
        assert affine_dimension(np.array(rows, dtype=np.int64)) == affine_dimension(rows) == 2

    def test_bigint_rows(self):
        huge = 10**30
        rows = [[huge, 1], [huge + 1, 1]]
        assert len(_pivot_columns(rows)) == RatMatrix(rows).rank() == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_pivots_are_the_first_column_basis(self, seed):
        # column j is a pivot exactly when it raises the rank of the columns before it
        rng = random.Random(seed)
        left = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(6)]
        right = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(7)] for _ in range(3)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        columns = lambda cols: [[row[j] for j in cols] for row in rows]
        want = [j for j in range(7) if fraction_rank(columns(range(j + 1))) > fraction_rank(columns(range(j)))]
        assert _pivot_columns(rows) == want
        assert len(_pivot_columns(rows)) == len(want) == fraction_rank(rows)

    def test_saturation(self):
        # rank never exceeds the width, however many rows follow
        assert _pivot_columns([[1, 0]]) == [0]
        assert _pivot_columns([[1, 0], [0, 1], [1, 1], [3, -2]]) == [0, 1]

    def test_empty_shapes(self):
        assert _pivot_columns([]) == _pivot_columns([[], [], []]) == []
        assert _pivot_columns([[0, 0], [0, 0]]) == [] and RatMatrix([]).rank() == 0

    def test_negative_entries(self):
        assert _pivot_columns([[-1, 1], [1, -1]]) == [0]
        assert _pivot_columns([[-1, 1], [1, 1]]) == [0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_matrices(self, seed):
        rng = np.random.default_rng(seed)
        for shape in [(6, 6), (4, 9), (9, 4)]:
            while True:
                rows = rng.integers(-1000, 1000, size=shape).tolist()
                if fraction_rank(rows) == min(shape):
                    break
            assert len(_pivot_columns(rows)) == RatMatrix(rows).rank() == min(shape)

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

    def test_integer_arrays_take_no_fraction(self, monkeypatch):
        # integer rows are differenced on Python integers; only the
        # iterable path reads Fractions
        rows = [[3, -1, 7], [5, 2, 7], [1, -4, 7], [2**70, 0, 7], [9, 9, 7]]
        want = affine_dimension(rows)

        def refuse(x):
            raise AssertionError(f"{x!r} read as a Fraction")

        monkeypatch.setattr(ratlinalg, "as_rational", refuse)
        assert affine_dimension(np.array(rows, dtype=object)) == want == 2
        assert affine_dimension(np.array(rows[:3] + rows[4:], dtype=np.int64)) == 2

    @pytest.mark.parametrize("rows", [[[True, 5], [0, 7]], [[True, 0], [0, 1]]], ids=["integers", "0/1"])
    def test_object_bools_are_refused(self, rows):
        with pytest.raises(ValueError, match="Python integers"):
            affine_dimension(np.array(rows, dtype=object))


def gram_reference(points, weights=None, origin=None):
    """sum of w (p - o)(p - o)^T on Python integers, entry by entry; by
    default w = 1 and o = p0, the first row."""
    rows = points.tolist()
    o = rows[0] if origin is None else origin.tolist()
    w = [1] * len(rows) if weights is None else weights.tolist()
    cols = [tuple(v - c0 for v in col) for c0, col in zip(o, zip(*rows))]
    gram = [[0] * len(cols) for _ in cols]
    for i, a in enumerate(cols):
        wa = list(map(operator.mul, w, a))
        for j in range(i, len(cols)):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, wa, cols[j]))
    return gram


def _deficient_01(rng, rows=40):
    """A random 0/1 array whose last two columns repeat the first two, one
    of them complemented: affine dimension at most its width minus 2."""
    bits = rng.integers(0, 2, size=(rows, 6), dtype=np.int64)
    return np.concatenate([bits, 1 - bits[:, :1], bits[:, 1:2]], axis=1)


class TestGram:
    """`_gram` against a Python-int reference on uint8 0/1 rows; any other
    integer rows, past every float64 and int64 bound, through
    `affine_dimension`'s Bareiss row path against the reference's rank."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: suites._lop_points(3).array, id="ordering n=3"),
            pytest.param(lambda rng: suites._tsp_points(5).array, id="tour n=5"),
            pytest.param(lambda rng: rng.integers(0, 2, size=(5000, 12), dtype=np.uint8), id="random 0/1"),
            pytest.param(lambda rng: _deficient_01(rng).astype(np.uint8), id="deficient 0/1"),
            pytest.param(lambda rng: rng.integers(-128, 128, size=(300, 9), dtype=np.int8), id="int8"),
            pytest.param(lambda rng: rng.integers(-1000, 1000, size=(9000, 7), dtype=np.int64), id="int64"),
            pytest.param(lambda rng: rng.integers(-50, 50, size=(200, 5)).astype(object), id="object"),
        ],
    )
    def test_matches_reference(self, make):
        points = make(np.random.default_rng(11))
        want = gram_reference(points)
        if points.dtype == np.uint8:
            assert _gram(points).tolist() == want
        assert affine_dimension(points) == fraction_rank(want)

    @pytest.mark.parametrize("chunk", [1, 5, ratlinalg._GRAM_CHUNK])
    def test_chunk_borders(self, chunk, monkeypatch):
        # 5000 rows cross the border of every chunk size, one row at a time at 1
        points = np.random.default_rng(chunk).integers(0, 2, size=(5000, 9), dtype=np.uint8)
        monkeypatch.setattr(ratlinalg, "_GRAM_CHUNK", chunk)
        got = _gram(points)
        assert got.dtype == np.int64 and got.tolist() == gram_reference(points)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, object])
    def test_other_dtypes_are_refused(self, dtype):
        with pytest.raises(TypeError):
            _gram(np.array([[0, 1], [1, 1]]).astype(dtype))

    @pytest.mark.parametrize("bits", [25, 27])
    def test_products_past_the_float_bound(self, bits):
        # spread 2**25 and 2**27: squares near and past 2**53
        rng = np.random.default_rng(bits)
        points = rng.integers(0, 1 << bits, size=(200, 4), dtype=np.int64)
        assert affine_dimension(points) == fraction_rank(gram_reference(points)) == 4

    def test_sum_past_the_int64_bound(self):
        # every product fits float64, but 5000 of them pass 2**63
        spread = (1 << 26) - 1
        points = spread * np.random.default_rng(4).integers(0, 2, size=(5000, 3), dtype=np.int64)
        want = gram_reference(points)
        assert affine_dimension(points) == fraction_rank(want) == 3
        assert max(max(row) for row in want) >= 1 << 63

    @pytest.mark.parametrize("sign", [1, -1])
    def test_large_entries_small_spread(self, sign):
        # entries near 2**60 do not survive a cast to float64; spread 7 does
        points = sign * ((1 << 60) + np.random.default_rng(2).integers(0, 8, size=(50, 5), dtype=np.int64))
        assert affine_dimension(points) == affine_dimension(points.tolist()) == 5
        assert fraction_rank(gram_reference(points)) == 5

    @pytest.mark.parametrize("k", [0, 20, 26, 27, 31, 62, 64])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_scaled_01_keeps_affine_dimension(self, k, offset):
        # scales 2**k and 2**k + 1, past float64 and int64 products; scale 1
        # is an int64 0/1 array, which goes to _gram
        bits = _deficient_01(np.random.default_rng(k))
        scale = (1 << k) + offset
        points = bits.astype(object) * scale
        if scale < 1 << 63:
            points = points.astype(np.int64)
        assert affine_dimension(points) == affine_dimension(points.tolist()) == affine_dimension(bits.tolist())
        assert affine_dimension(points) == fraction_rank(gram_reference(points))


def unweighted(points, origin, copies=None, scale=None):
    """Rows whose plain Gram matrix about the first row is the weighted sum
    of w (p - o)(p - o)^T: the origin o first, which adds nothing, then each
    row p either copies[i] times (w = copies[i]) or once as o + s (p - o),
    s = scale[i] (w = s^2)."""
    if copies is not None:
        rows = np.repeat(points, copies, axis=0)
    else:
        rows = origin + scale[:, None] * (points - origin)
    return np.concatenate([origin[None, :], rows])


class TestWeightedGram:
    """A weighted Gram matrix, sum w (p - o)(p - o)^T, is the plain `_gram`
    of the rows `unweighted` lists when they are 0/1, and its rank is their
    affine dimension otherwise (o leads them; any weight > 0 keeps p - o's
    direction): zero weights and an origin off the rows included."""

    @staticmethod
    def case(seed, rows, cols, spread, top_weight):
        rng = np.random.default_rng(seed)
        points = rng.integers(-spread // 2, spread - spread // 2, size=(rows, cols), dtype=np.int64)
        weights = rng.integers(0, top_weight, size=rows, dtype=np.int64, endpoint=True)
        weights[::3] = 0
        origin = rng.integers(-spread, spread, size=cols, dtype=np.int64)
        return points, weights, origin

    @staticmethod
    def case01(seed, rows, cols, top_weight):
        """uint8 0/1 points and origin, and weights as in case."""
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        weights = rng.integers(0, top_weight, size=rows, dtype=np.int64, endpoint=True)
        weights[::3] = 0
        origin = rng.integers(0, 2, size=cols, dtype=np.uint8)
        return points, weights, origin

    def test_defaults_are_unit_weights_about_the_first_row(self):
        points = suites._tsp_points(4).array
        ones = np.ones(len(points), dtype=np.int64)
        want = gram_reference(points)
        assert gram_reference(points, ones, points[0]) == _gram(points).tolist() == want
        assert _gram(unweighted(points, points[0], copies=ones)).tolist() == want

    def test_float_tier(self):
        # 0/1 rows copied up to 20 times, about 20,000 rows over five chunks
        points, weights, origin = self.case01(1, 3000, 6, 20)
        got = _gram(unweighted(points, origin, copies=weights))
        assert got.dtype == np.int64 and got.tolist() == gram_reference(points, weights, origin)

    def test_int64_sum_tier(self):
        # scales up to 2**21: weighted sums past 2**53
        points, scale, origin = self.case(2, 1000, 4, 8, 1 << 21)
        want = gram_reference(points, scale.astype(object) ** 2, origin)
        assert affine_dimension(unweighted(points, origin, scale=scale)) == fraction_rank(want) == 4
        assert max(map(max, want)) > 1 << 53

    @pytest.mark.parametrize("top_weight", [1 << 52, 1 << 62, 1 << 70])
    def test_python_int_tier(self, top_weight):
        # one row scaled by sqrt(top_weight): a square past float64's exact
        # integers, or a sum past 2**62, in Python integers
        points, scale, origin = self.case(3, 200, 5, 16, 1 << 20)
        scale = scale.astype(object)
        scale[1] = math.isqrt(top_weight)
        rows = unweighted(points.astype(object), origin.astype(object), scale=scale)
        with pytest.raises(TypeError):
            _gram(rows)
        assert affine_dimension(rows) == affine_dimension(rows.tolist()) == fraction_rank(gram_reference(points, scale**2, origin))

    def test_sum_past_the_int64_bound(self):
        # the 40,000 rows scaled by 2**9 (weight 2**18) sum past 2**63
        rng = np.random.default_rng(4)
        points = (1 << 16) * rng.integers(0, 2, size=(40000, 3), dtype=np.int64)
        scale = np.full(len(points), 1 << 9, dtype=np.int64)
        scale[::3] = 0
        origin = np.zeros(3, dtype=np.int64)
        want = gram_reference(points, scale**2, origin)
        assert affine_dimension(unweighted(points, origin, scale=scale)) == fraction_rank(want) == 3
        assert max(map(max, want)) >= 1 << 63

    def test_zero_weights(self):
        # every listed row is the origin: a zero Gram matrix, dimension 0
        points, _, origin = self.case01(5, 50, 4, 1)
        zeros = np.zeros(len(points), dtype=np.int64)
        assert _gram(unweighted(points, origin, copies=zeros)).tolist() == [[0] * 4] * 4
        assert affine_dimension(unweighted(points, origin, scale=zeros)) == 0
        points, _, origin = self.case(5, 50, 4, 9, 1)
        assert affine_dimension(unweighted(points, origin, scale=zeros)) == 0
