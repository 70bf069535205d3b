import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import bpcore, lop, polytope, ratlinalg, suites, tsp
from diamopt.bpcore import HOLDS, BinaryProgram, Constraint
from diamopt.diameter import build as build_diameter
from diamopt.diameter import paired
from diamopt.errors import CapExceededError, InfeasibleModelError
from diamopt.polytope import (
    EquationSystem,
    check_disjoint_pair_condition,
    check_inequality,
    enumerate_points,
    facet_families,
    lift_equation_system,
    verify_minimal_system,
)
from diamopt.ratlinalg import (
    RatMatrix,
    _gram,
    _pivot_columns,
    affine_dimension,
    scaled_int_vector,
)


def paired_points_free(n):
    """Paired point set of the model with no rows at all."""
    return enumerate_points(BinaryProgram([0] * n, []))


def point_values(points, q):
    """(a . p for every row p, b) for q scaled to integers: an int64 product
    where sum |a| leaves no room to wrap, Python integers otherwise."""
    a, b, _ = scaled_int_vector(q.coeffs, q.rhs)
    nz = [j for j, c in enumerate(a) if c]
    dtype = np.int64 if sum(map(abs, a)) < 1 << 62 else object
    return points[:, nz].astype(dtype) @ np.array([a[j] for j in nz], dtype=dtype), b


def brute_force_report(ps, q, pdim=None):
    """check_inequality by the definition, on the point array: every point
    evaluated, and the exact affine dimension of the tight ones."""
    vals, b = point_values(ps.array, q)
    tight = vals == b
    pdim = affine_dimension(ps.array) if pdim is None else pdim
    face = affine_dimension(ps.array[tight]) if tight.any() else -1
    valid = bool(HOLDS[q.sense](vals, b).all())
    return polytope.FacetReport(q.label, valid, int(tight.sum()), face, pdim, valid and face == pdim - 1)


def paired_scan(bp):
    """The feasible set of bp's conjugate diameter program by the 2^(3n)
    scan of its rows, the reference that enumerate_points is checked
    against."""
    dp = build_diameter(bp, None, "conjugate")
    return np.concatenate([np.empty((0, dp.derived.n), dtype=np.uint8), *bpcore.feasible_blocks(dp.derived)])


def paired_listing(base):
    """The paired points over the base points by the definition, in Python:
    every (u, v, z) with z >= u AND v, distinct and sorted."""
    base = [tuple(map(int, p)) for p in base]
    n = len(base[0])
    zs = list(itertools.product((0, 1), repeat=n))
    return sorted({u + v + z for u in base for v in base for z in zs if all(c >= a & b for a, b, c in zip(u, v, z))})


def random_base(rng, m, n, ones=()):
    """m seeded random 0/1 base points of width n, unsorted and possibly
    repeated, with the columns in ones fixed at 1."""
    base = rng.integers(0, 2, (m, n), dtype=np.uint8)
    base[:, list(ones)] = 1
    return base


class TestPointSet:
    """A paired set is its sorted, distinct base points; enumerate_points
    checks them and lists the pairs' points by the definition."""

    def test_dedup_and_order(self):
        base = [[1, 0], [0, 1], [1, 0], [0, 0]]
        ps = pairs_of(base)
        assert ps.base.dtype == np.uint8 and ps.base.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert ps.loose.tolist() == [[2, 2, 2], [2, 1, 2], [2, 2, 1]]
        assert ps.array.tolist() == [list(p) for p in paired_listing(base)]
        assert ps.count == len(ps.array) == 4 + 4 + 4 + 4 + 2 + 4 + 4 + 4 + 2

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="base points must be 0/1"):
            pairs_of([[0, 2]])

    @pytest.mark.parametrize(
        "points",
        [
            [[0.5, 1], [1, 1]],  # an int cast would truncate it to [[0, 1], [1, 1]]
            [[0, -1]],  # and wrap or overflow these in uint8
            [[0, 256]],
            [[1, 1 << 70]],
            np.array([[0.0, 1.0], [1.0, 0.25]]),
            [[0, float("nan")]],
        ],
    )
    def test_values_are_checked_before_the_cast(self, points):
        with pytest.raises(ValueError, match="base points must be 0/1"):
            pairs_of(points)

    def test_float_and_bool_arrays_of_0_1(self):
        for arr in (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[True, True], [False, True]])):
            ps = pairs_of(arr)
            assert ps.base.dtype == np.uint8 and ps.base.tolist() == [[0, 1], [1, 1]]
            assert ps.array.dtype == np.uint8
            # column 2 is 1 at both base points, so z_2 is too: 2 * 1 + 1
            assert ps.hull_dimension() == affine_dimension(ps.array) == 3

    def test_hull_dimension_simple(self):
        square = pairs_of([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert square.hull_dimension() == affine_dimension(square.array) == 2 * 2 + 2
        segment = pairs_of([[0, 0], [1, 1]])
        assert segment.hull_dimension() == affine_dimension(segment.array) == 2 * 1 + 2

    @pytest.mark.parametrize("seed", range(3))
    def test_random_base_arrays_list_their_pairs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            base = random_base(rng, int(rng.integers(1, 7)), int(rng.integers(1, 5)))
            ps = pairs_of(base)
            assert ps.base.tolist() == np.unique(base, axis=0).tolist()
            assert ps.array.tolist() == [list(p) for p in paired_listing(base)]
            assert ps.count == len(ps.array)


class TestEnumeratePoints:
    def test_one_variable_free_model_by_hand(self):
        # z1 >= x1 + y1 - 1 kills exactly the corner (1, 1, 0)
        ps = paired_points_free(1)
        assert ps.count == 7
        assert [1, 1, 0] not in ps.array.tolist()
        assert ps.hull_dimension() == 3

    # listed base points, scanned base points and the paired scan agree
    def test_structured_equals_raw_ordering_n2(self):
        inst = lop.LopInstance.zero(2)
        bp = lop.build(inst)
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(2)]
        structured = enumerate_points(bp, base_points=base)
        assert structured.array.tolist() == enumerate_points(bp).array.tolist() == paired_scan(bp).tolist()
        assert structured.count == 12

    def test_structured_equals_raw_ordering_n3(self):
        inst = lop.LopInstance.zero(3)
        bp = lop.build(inst)
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(3)]
        structured = enumerate_points(bp, base_points=base)
        assert structured.array.tolist() == enumerate_points(bp).array.tolist() == paired_scan(bp).tolist()
        assert structured.count == 1008

    def test_structured_equals_raw_tour_n4(self):
        inst = tsp.TspInstance.zero(4)
        bp = tsp.build(inst)
        base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(4)]
        structured = enumerate_points(bp, base_points=base)
        assert structured.array.tolist() == enumerate_points(bp).array.tolist() == paired_scan(bp).tolist()
        assert structured.count == 108

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_equal_the_paired_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            bp = bpcore.random_binary_program(rng, max_n=6, max_rows=3)
            assert enumerate_points(bp).array.tolist() == paired_scan(bp).tolist()

    def test_base_scan_reaches_past_the_paired_scan(self):
        # n = 9 fits the cap of 26, 3n = 27 does not: x1..x7 are pinned to 1,
        # and each of x8, x9 adds the 7 points of the one-variable case
        bp = BinaryProgram([0] * 9, [Constraint([1] * 7 + [0, 0], ">=", 7)])
        ps = enumerate_points(bp)
        assert ps.count == 49 and ps.hull_dimension() == 6
        with pytest.raises(CapExceededError, match=r"2\^9 scan refused \(cap 8\)"):
            enumerate_points(bp, cap=8)

    def test_huge_max_points(self):
        # past sys.maxsize: the base point read limit is a Python integer
        ps = enumerate_points(lop.build(lop.LopInstance.zero(3)), max_points=1 << 200)
        assert ps.count == 1008 and ps.hull_dimension() == 12

    def test_max_points_cap(self):
        with pytest.raises(CapExceededError):
            paired_points_free_capped()


def paired_points_free_capped():
    return enumerate_points(BinaryProgram([0] * 4, []), max_points=10)


def family_points(family, n):
    """A family's size-n paired set at the default cap, which bounds its
    pair grid and faces but not its point count: no array is built."""
    return suites._paired_points(suites.FAMILIES[family], n)


def ordering3(max_points=polytope.DEFAULT_MAX_POINTS):
    """Ordering n=3's paired set: 6 base points, 36 pairs, 1,008 points."""
    return enumerate_points(lop.build(lop.LopInstance.zero(3)), base_points=lop.base_points(3), max_points=max_points)


def pairs_of(base):
    """The paired set of the model with no rows over the listed base points,
    with no point cap."""
    return enumerate_points(BinaryProgram([0] * np.shape(base)[1], []), base_points=base, max_points=1 << 200)


def array_pivots(ps):
    """The Bareiss pivot columns of the Gram matrix of the set's point array."""
    return _pivot_columns(_gram(ps.array).tolist())


class TestPairMoments:
    """enumerate_points counts the paired points from the m^2 base pairs, and
    hull_dimension reads the pivot columns of G off the base points and
    the z columns where one of them has a 0; both must equal what the
    point array gives."""

    @staticmethod
    def assert_moments_match(ps):
        assert ps._array is None
        ps.hull_dimension()
        assert ps._array is None
        assert ps._pivots == array_pivots(ps)
        assert ps.count == len(ps.array) and ps.dim_ambient == ps.array.shape[1]
        # the first point is (u_0, u_0, u_0), and pair (a, b) has n - u_a . u_b free z columns
        assert ps.array[0].tolist() == ps.base[0].tolist() * 3
        n, base = ps.base.shape[1], ps.base.tolist()
        assert ps.loose.tolist() == [[n - sum(a & b for a, b in zip(u, v)) for v in base] for u in base]

    @pytest.mark.parametrize("family,n", [("lop", 2), ("lop", 3), ("lop", 4), ("tsp", 4), ("tsp", 5)])
    def test_families(self, family, n):
        self.assert_moments_match(suites._paired_points(suites.FAMILIES[family], n))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, seed):
        # the models of test_random_models_equal_the_paired_scan
        rng = random.Random(seed)
        for _ in range(10):
            bp = bpcore.random_binary_program(rng, max_n=6, max_rows=3)
            ps = enumerate_points(bp)
            if ps.count:
                self.assert_moments_match(ps)

    @pytest.mark.parametrize("point", [(0, 0, 0), (1, 0, 1), (1, 1, 1)])
    def test_single_base_point(self, point):
        # (1, 1, 1) paired with itself has no free z column: k = 0, one point
        ps = enumerate_points(BinaryProgram([0, 0, 0], []), base_points=[point])
        assert ps.count == 2 ** point.count(0)
        self.assert_moments_match(ps)
        assert ps.hull_dimension() == point.count(0)

    def test_all_ones_among_others(self):
        bp = BinaryProgram([0, 0, 0], [])
        self.assert_moments_match(enumerate_points(bp, base_points=[(1, 1, 1), (0, 1, 1), (1, 0, 0)]))

    def test_infeasible_model(self):
        bp = BinaryProgram([1, 1], [Constraint([1, 1], ">=", 3)])
        ps = enumerate_points(bp)
        assert ps.count == 0 and ps.array.shape == (0, 6)
        with pytest.raises(InfeasibleModelError):
            ps.hull_dimension()

    @pytest.mark.parametrize("family,n,base_dim", [("lop", 5, 10), ("tsp", 6, 9)])
    def test_beyond_enumeration(self, family, n, base_dim):
        # 1.2 G and 31 M points, past DEFAULT_MAX_POINTS: the base points
        # give dim P_D = 2 dim P + n (3n ambient, n base variables) exactly
        ps = family_points(family, n)
        assert ps.count > polytope.DEFAULT_MAX_POINTS
        dim = ps.hull_dimension()
        assert dim == 2 * base_dim + ps.dim_ambient // 3 == {"lop": 40, "tsp": 33}[family]
        assert ps._array is None

    def test_count_is_exact_past_int64(self):
        # 2^70 completions of the all-zero point paired with itself
        assert pairs_of([[0] * 70]).count == 1 << 70

    def test_gram_past_every_bound(self):
        # 2^70 completions z of the all-zero point, p0 = 0: G = sum z z^T is
        # 2^69 on the z diagonal (half of them set a bit) and 2^68 off it
        # (a quarter set two), far past int64 and float64; the one cube's
        # 70 free columns are the hull's directions, and G's pivot columns
        ps = pairs_of([[0] * 70])
        want = [[0] * 210 for _ in range(210)]
        for i in range(140, 210):
            for j in range(140, 210):
                want[i][j] = 1 << 69 if i == j else 1 << 68
        assert ps.hull_dimension() == 70
        assert ps._pivots == _pivot_columns(want) == list(range(140, 210))

    def test_gram_past_int64_from_the_raw_moments(self):
        # four points of weight <= 1 over 61 columns have 29 * 2^60 > 2^63
        # paired points; G is summed here from the uncentred moments,
        # 4G = 4M - 2p0 (2s)^T - 2s (2p0)^T + N 2p0 (2p0)^T, pair by pair,
        # and its pivot columns must be the ones read off the base points
        n = 61
        base = np.zeros((4, n), dtype=np.uint8)
        base[1, 60] = base[2, 30] = base[3, 0] = 1  # in lexicographic order
        points = base.tolist()
        dim = 3 * n
        moment4 = [[0] * dim for _ in range(dim)]  # 4M
        sum2 = [0] * dim  # 2s
        count = 0
        for u in points:
            for v in points:
                shared = [a & b for a, b in zip(u, v)]
                k = n - sum(shared)
                q2 = [2 * a for a in u] + [2 * b for b in v] + [1 + s for s in shared]
                count += 1 << k
                for i in range(dim):
                    sum2[i] += q2[i] << k
                    for j in range(dim):
                        moment4[i][j] += q2[i] * q2[j] << k
                for i, s in enumerate(shared):
                    moment4[2 * n + i][2 * n + i] += (1 - s) << k
        ps = pairs_of(points)
        assert count == ps.count == 29 << 60
        p2 = [2 * a for a in points[0]] * 3
        want = [
            [(moment4[i][j] - p2[i] * sum2[j] - sum2[i] * p2[j] + count * p2[i] * p2[j]) // 4 for j in range(dim)]
            for i in range(dim)
        ]
        ps.hull_dimension()
        assert ps._pivots == _pivot_columns(want)

    @pytest.mark.parametrize("chunk", [1, 5, ratlinalg._GRAM_CHUNK])
    def test_pair_rows_cross_gram_chunks(self, chunk, monkeypatch):
        # the 6 base points cross _gram's chunk borders, one row at a time at 1
        want = array_pivots(suites._lop_points(3))
        monkeypatch.setattr(ratlinalg, "_GRAM_CHUNK", chunk)
        ps = suites._lop_points(3)
        assert ps.count == 1008 and ps.hull_dimension() == 12 and ps._pivots == want


class TestInheritedDimension:
    """The hull of a paired set is the paper's 2 dim P + |U|, U the z
    columns where some base point has a 0, and its pivot columns are the
    point array's.  Checked on seeded random base arrays, two in three
    with a coordinate fixed at 1, where 2 dim P + n fails."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bases(self, seed):
        rng = np.random.default_rng(seed)
        for t in range(12):
            n = int(rng.integers(2, 6))
            base = random_base(rng, int(rng.integers(1, 7)), n, ones=range(t % 3))
            ps = pairs_of(base)
            spans = sum(any(p[j] == 0 for p in base.tolist()) for j in range(n))
            dim = 2 * affine_dimension(base) + spans
            assert ps.hull_dimension() == dim == affine_dimension(ps.array)
            assert ps._pivots == array_pivots(ps)
            if t % 3:
                assert spans < n and dim < 2 * affine_dimension(base) + n


class TestLazyPoints:
    """A paired set builds its point array only when the array is read."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        rows = polytope._pair_rows

        def spy(base):
            calls.append(rows(base))
            return calls[-1]

        monkeypatch.setattr(polytope, "_pair_rows", spy)
        return calls

    def test_dimension_and_minimality_build_no_point(self, builds):
        ps = suites._lop_points(4)
        assert ps.hull_dimension() == 24 and ps.count == 483840
        system = lift_equation_system(EquationSystem(*lop.pick_one_system(4)))
        assert verify_minimal_system(ps, system)
        assert builds == []

    def test_array_is_built_once_on_read(self, builds):
        ps = suites._tsp_points(4)
        for q in facet_families(6, tsp.base_facets(4)):
            assert check_inequality(ps, q).valid
        assert builds == []
        ps.array
        ps.array
        assert [len(rows) for rows in builds] == [108]


class TestCheckInequality:
    # the 7-point set from the one-variable free model: hull dim 3,
    # every facet checkable by hand
    def facets_by_hand(self):
        return [
            Constraint([1, 1, -1], "<=", 1, "coupling"),
            Constraint([0, 0, 1], ">=", 0, "z_lo"),
            Constraint([0, 0, 1], "<=", 1, "z_hi"),
            Constraint([1, 0, 0], ">=", 0, "x_lo"),
            Constraint([0, 1, 0], ">=", 0, "y_lo"),
        ]

    def test_hand_checked_facets(self):
        ps = paired_points_free(1)
        for q in self.facets_by_hand():
            r = check_inequality(ps, q)
            assert r.valid and r.is_facet, q.label
            assert r.face_dimension == 2

    def test_coupling_tight_points(self):
        ps = paired_points_free(1)
        q = Constraint([1, 1, -1], "<=", 1, "coupling")
        r = check_inequality(ps, q)
        assert r.valid and r.tight_point_count == 3  # (0,1,0), (1,0,0), (1,1,1)
        assert r == brute_force_report(ps, q)

    def test_valid_but_not_facet(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Constraint([1, 1, 1], "<=", 3, "vertex_only"))
        assert r.valid and not r.is_facet
        assert r.face_dimension == 0

    def test_invalid_inequality(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Constraint([1, 0, 0], "<=", 0, "x_is_zero"))
        assert not r.valid
        assert not r.is_facet

    def test_empty_face(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Constraint([1, 1, 1], ">=", -1, "slack"))
        assert r.valid
        assert r.tight_point_count == 0
        assert r.face_dimension == -1

    def test_huge_coefficients(self):
        # 2^62 + 2^62 wraps in int64; the verdicts must not
        ps = paired_points_free(1)
        big = 1 << 62
        r = check_inequality(ps, Constraint([big, big, -big], "<=", big, "coupling_scaled"))
        assert r.valid and r.is_facet and r.tight_point_count == 3
        r = check_inequality(ps, Constraint([big, big, 0], "<=", big, "x_plus_y"))
        assert not r.valid and r.tight_point_count == 4

    @pytest.mark.parametrize(
        "a, b, dtype",
        [
            # sum |a| = 2**62 - 1: int64 columns; 2**62: Python integers
            ([1 << 61, -(1 << 60), -((1 << 60) - 4), 0, 3], -(1 << 60), np.int64),
            ([1 << 61, -(1 << 60), -((1 << 60) - 3), 0, 3], -(1 << 60), object),
            ([-((1 << 62) - 4), 1, -1, 1, 0], (1 << 62) - 1, np.int64),
            ([-((1 << 62) - 4), 1, -1, 1, 0], 1 << 62, object),
        ],
    )
    def test_row_values_at_the_int64_bound(self, a, b, dtype):
        # the five coefficients sit on x_1, y_2, z_3, x_2 and z_1 of the pair
        # grid over all eight points of {0,1}^3; X = B alpha and Y = B beta
        # are the values the face path adds up and compares with b
        row = [0] * 9
        for col, c in zip((0, 4, 8, 1, 6), a):
            row[col] = c
        ps = pairs_of(bpcore.bit_table(3))
        x, y = polytope._base_values(ps.base, row, b)
        assert x.dtype == y.dtype == dtype
        base = ps.base.tolist()
        assert x.tolist() == [sum(c * v for c, v in zip(row[:3], p)) for p in base]
        assert y.tolist() == [sum(c * v for c, v in zip(row[3:6], p)) for p in base]
        reference = [sum(c * v for c, v in zip(row, p)) for p in ps.array.tolist()]
        for sense in ("<=", ">="):
            r = check_inequality(ps, Constraint(row, sense, b))
            assert r.tight_point_count == sum(v == b for v in reference)
            assert r.valid == all(v <= b if sense == "<=" else v >= b for v in reference)
            assert r == brute_force_report(ps, Constraint(row, sense, b))

    def test_fractional_inequality(self):
        ps = paired_points_free(1)
        r = check_inequality(
            ps, Constraint([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)], "<=", Fraction(1, 2), "half")
        )
        assert r.is_facet  # same facet as the integer form

    def test_coordinate_relabeling_preserves_reports(self):
        # a permutation of the base coordinates, applied to the base points
        # and to the row in all three blocks, relabels the paired points
        rng = random.Random(31)
        base = random_base(np.random.default_rng(31), 6, 4, ones=[3])
        ps = pairs_of(base)
        rows = facet_families(4, []) + random_rows(rng, ps, 9)
        reports = [check_inequality(ps, q) for q in rows]
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            moved = pairs_of(base[:, perm])
            cols = [block * 4 + j for block in range(3) for j in perm]
            for q, want in zip(rows, reports):
                q = Constraint([q.coeffs[c] for c in cols], q.sense, q.rhs, q.label)
                assert check_inequality(moved, q) == want == brute_force_report(moved, q), q.label


class TestFaceRank:
    """check_inequality ranks a face the hull's way: one exact
    `_pivot_columns` call on the Gram matrix of the tight cells' corners,
    over the hull's pivot columns outside U_f (the columns free in some
    tight cell), so on at most dim - |U_f| columns.  A face tight at
    every point is the whole polytope and takes none.  Every case is
    checked against the exact rank of the whole tight point set, on tour
    n=5 (35,712 points, dim 20)."""

    @pytest.fixture(scope="class")
    def tour5(self):
        ps = suites._tsp_points(5)
        ps.hull_dimension()
        return ps

    @staticmethod
    def ranked(ps, q):
        """The report, the shape of each Gram matrix summed and the pivot
        columns of each exact rank taken."""
        grams, pivots = [], []

        def summing(points):
            grams.append(points.shape)
            return _gram(points)

        def eliminating(rows):
            pivots.append(_pivot_columns(rows))
            return pivots[-1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(polytope, "_gram", summing)
            m.setattr(polytope, "_pivot_columns", eliminating)
            r = check_inequality(ps, q)
        assert r == brute_force_report(ps, q, 20), q.label
        return r, grams, pivots

    def test_every_family_takes_the_subset(self, tour5):
        for q in facet_families(10, tsp.base_facets(5)):
            r, grams, pivots = self.ranked(tour5, q)
            assert r.is_facet, q.label
            # one corner per tight cell, far fewer than the tight points
            assert len(grams) == 1 and grams[0][0] < r.tight_point_count, q.label
            # one exact rank on the pivot columns outside U: |U| + width = dim
            width = grams[0][1]
            assert len(pivots) == 1 and width == 20 - (r.face_dimension - len(pivots[0])), q.label

    def test_tight_everywhere_takes_no_rank(self, tour5):
        rows, rhs = tsp.degree_system(5)
        r, grams, pivots = self.ranked(tour5, Constraint(paired(10, x=rows[0]), "<=", rhs[0], "degree_1[x]"))
        assert r.valid and r.tight_point_count == tour5.count
        assert r.face_dimension == 20 and not r.is_facet
        assert grams == pivots == []

    def test_lower_face_takes_one_exact_rank(self, tour5):
        # z_1 + z_2 >= 0 is tight where both vanish: two facets meet there
        r, grams, pivots = self.ranked(tour5, Constraint(paired(10, z=[1, 1] + [0] * 8), ">=", 0, "z_1_z_2"))
        assert r.valid and not r.is_facet and r.face_dimension < 19
        assert r.tight_point_count > 1000
        assert len(grams) == 1 and grams[0][0] < r.tight_point_count
        width = grams[0][1]
        assert len(pivots) == 1 and len(pivots[0]) < width - 1
        assert r.face_dimension == 20 - width + len(pivots[0])

    def test_fractional_row_takes_one_exact_rank(self, tour5):
        # x_12 / 2 + x_13 / 3 <= 5/6 is tight where vertex 1 sits between 2
        # and 3 on the x tour: a lower face, scaled to 3 x_12 + 2 x_13 <= 5
        a = [Fraction(0)] * 10
        a[tsp.edge_index(1, 2, 5)], a[tsp.edge_index(1, 3, 5)] = Fraction(1, 2), Fraction(1, 3)
        r, grams, pivots = self.ranked(tour5, Constraint(paired(10, x=a), "<=", Fraction(5, 6), "x_12_x_13_frac"))
        assert r.valid and not r.is_facet and 0 < r.tight_point_count < tour5.count
        assert len(grams) == 1 and len(pivots) == 1
        assert r.face_dimension == 20 - grams[0][1] + len(pivots[0]) < 19

    def test_small_face_sums_one_gram(self, tour5):
        # x and y both avoid the five edges off the tour 1-2-3-4-5, so both
        # are that tour and z is free on the other five: 32 points, dim 5.
        # That is one cell, whose five free columns are the whole rank.
        a = [0] * 10
        for i, j in ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)):
            a[tsp.edge_index(i, j, 5)] = 1
        r, grams, pivots = self.ranked(tour5, Constraint(paired(10, x=a, y=a), ">=", 0, "avoid_tour"))
        assert r.valid and r.tight_point_count == 32 and r.face_dimension == 5
        assert grams == [(1, 15)] and pivots == [[]]

    def test_invalid_row(self, tour5):
        # edges 12 and 13 share a tour whenever vertex 1 sits between 2 and 3
        a = [0] * 10
        a[tsp.edge_index(1, 2, 5)] = a[tsp.edge_index(1, 3, 5)] = 1
        r = self.ranked(tour5, Constraint(paired(10, x=a), "<=", 1, "x_12_x_13"))[0]
        assert not r.valid and not r.is_facet
        assert 0 < r.tight_point_count < tour5.count


def random_rows(rng, ps, k):
    """k seeded rows over the paired set's 3n columns: 2-3 nonzero z
    coefficients and up to three on x and y, with a right-hand side that
    is the largest value (a valid row), the value at a random point (often
    invalid) or one past the largest (an empty face); then the zero row,
    tight everywhere (the whole polytope)."""
    n = ps.dim_ambient // 3
    rows = []
    for t in range(k):
        a = [0] * (3 * n)
        for j in rng.sample(range(n), min(n, rng.choice((2, 3)))):
            a[2 * n + j] = rng.choice((-2, -1, 1, 2, 3))
        for j in rng.sample(range(2 * n), rng.randint(0, 3)):
            a[j] = rng.choice((-1, 1, 2))
        vals = ps.array.astype(np.int64) @ np.array(a, dtype=np.int64)
        b = [int(vals.max()), int(vals[rng.randrange(len(vals))]), int(vals.max()) + 1][t % 3]
        rows.append(Constraint(a, "<=", b, f"row_{t}"))
    return rows + [Constraint([0] * (3 * n), ">=", 0, "zero")]


def kinds(reports, count):
    """Which of invalid / empty / whole / facet / lower faces the reports reach."""
    out = set()
    for r in reports:
        if not r.valid:
            out.add("invalid")
        if r.face_dimension == -1:
            out.add("empty")
        elif r.tight_point_count == count:
            out.add("whole")
        else:
            out.add("facet" if r.face_dimension == r.polytope_dimension - 1 else "lower")
    return out


class TestSubCubeOracle:
    """check_inequality reads a face off the pair grid and never builds
    a point; brute_force_report reads it off the point array.  Both give
    the same report on every input."""

    @staticmethod
    def agree(ps, rows, pdim=None):
        pdim = affine_dimension(ps.array) if pdim is None else pdim
        reports = []
        for q in rows:
            reports.append(check_inequality(ps, q))
            assert reports[-1] == brute_force_report(ps, q, pdim), q.label
        return reports

    @pytest.fixture(scope="class")
    def ordering4(self):
        ps = suites._lop_points(4)
        return ps, affine_dimension(ps.array)

    @pytest.mark.parametrize("family,n", [("lop", 2), ("lop", 3), ("tsp", 4), ("tsp", 5)])
    def test_every_family(self, family, n):
        ps = suites._paired_points(suites.FAMILIES[family], n)
        self.agree(ps, facet_families(ps.dim_ambient // 3, suites.FAMILIES[family].module.base_facets(n)))

    def test_every_family_ordering4(self, ordering4):
        ps, pdim = ordering4
        self.agree(ps, facet_families(12, lop.base_facets(4)), pdim)

    def test_lifted_ordering_rows(self, ordering4):
        ps, pdim = ordering4
        rows = [lop.lift_inequality(q, 3) for q in facet_families(6, lop.base_facets(3))]
        assert len(rows) == 34
        assert all(r.is_facet for r in self.agree(ps, rows, pdim))

    def test_tour4_mixed_rows(self):
        self.agree(suites._tsp_points(4), suites._extra_tour4_inequalities())

    @pytest.mark.parametrize("family,n", [("lop", 3), ("tsp", 4), ("tsp", 5)])
    def test_random_z_rows(self, family, n):
        ps = suites._paired_points(suites.FAMILIES[family], n)
        reports = self.agree(ps, random_rows(random.Random(n), ps, 24))
        assert kinds(reports, ps.count) >= {"invalid", "empty", "whole", "lower"}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models(self, seed):
        # the models of test_random_models_equal_the_paired_scan
        rng = random.Random(seed)
        seen = set()
        for _ in range(10):
            bp = bpcore.random_binary_program(rng, max_n=6, max_rows=3)
            ps = enumerate_points(bp)
            if ps.count and bp.n > 1:
                rows = facet_families(bp.n, []) + random_rows(rng, ps, 6)
                seen |= kinds(self.agree(ps, rows), ps.count)
        assert seen >= {"invalid", "empty", "whole", "facet"}

    @pytest.mark.parametrize("family,n", [("lop", 3), ("tsp", 4)])
    def test_array_built_sets(self, family, n):
        # the family's base points as an array, shuffled and with repeated
        # rows, give the listed set: the same base points and the same faces
        paired = suites._paired_points(suites.FAMILIES[family], n)
        rng = np.random.default_rng(n)
        base = np.array(list(suites.FAMILIES[family].module.base_points(n)), dtype=np.uint8)
        ps = pairs_of(rng.permutation(np.concatenate([base, base[rng.integers(0, len(base), 5)]])))
        assert ps.base.tolist() == paired.base.tolist() and ps.loose.tolist() == paired.loose.tolist()
        assert ps.count == paired.count and ps.hull_dimension() == paired.hull_dimension()
        assert ps._pivots == paired._pivots == array_pivots(paired)
        assert ps.array.tolist() == paired.array.tolist()
        rows = facet_families(ps.dim_ambient // 3, suites.FAMILIES[family].module.base_facets(n))
        rows += random_rows(random.Random(n), paired, 12)
        for q, r in zip(rows, self.agree(ps, rows)):
            assert r == check_inequality(paired, q), q.label

    @pytest.mark.parametrize("seed", range(3))
    def test_random_arrays(self, seed):
        # seeded random base arrays, every other one with a coordinate fixed
        # at 1, against rows with random coefficients on all three blocks
        rng = np.random.default_rng(seed)
        seen = set()
        for t in range(8):
            ps = pairs_of(random_base(rng, int(rng.integers(1, 7)), int(rng.integers(2, 5)), ones=range(t % 2)))
            width = ps.dim_ambient
            rows = [
                Constraint(rng.integers(-2, 3, width).tolist(), sense, int(rng.integers(-2, 3)), "random")
                for sense in ("<=", ">=")
                for _ in range(6)
            ]
            rows += random_rows(random.Random(seed), ps, 6)
            seen |= kinds(self.agree(ps, rows), ps.count)
        assert seen >= {"invalid", "empty", "whole", "facet", "lower"}


class TestCapBoundsBuiltArrays:
    """max_points bounds the arrays a point set builds, each where it is
    built: the m x m pair grid when the base points are read, the grid
    cells of a face (TestFaceWork) and the point listing.  It does not
    bound the point count, so a set whose points exceed it still gives its
    hull, minimality and faces."""

    def test_ordering3_past_its_point_count(self):
        # m = 6 base points: 36 grid cells and at most 72 per family face,
        # under 100, though the 1,008 points are not
        ps, full = ordering3(100), ordering3()
        assert ps.count == full.count == 1008 > ps.max_points == 100
        assert ps.hull_dimension() == 12
        assert verify_minimal_system(ps, lift_equation_system(EquationSystem(*lop.pick_one_system(3))))
        rows = facet_families(6, lop.base_facets(3))
        assert [check_inequality(ps, q) for q in rows] == [check_inequality(full, q) for q in rows]
        with pytest.raises(CapExceededError, match="point listing of 1008 points exceeds max_points=100"):
            ps.array
        assert ps._array is None

    def test_pair_grid_is_bounded_at_m_squared(self):
        assert ordering3(36).hull_dimension() == 12
        with pytest.raises(CapExceededError, match="pair grid of 6 or more base points exceeds max_points=35"):
            ordering3(35)

    def test_only_distinct_base_points_count(self):
        # ordering n=3's 6 points listed twice still make a 6 x 6 grid
        bp = lop.build(lop.LopInstance.zero(3))
        twice = enumerate_points(bp, base_points=list(lop.base_points(3)) * 2, max_points=36)
        assert twice.count == 1008 and twice.hull_dimension() == 12
        # 7 distinct points, each listed three times, make a 7 x 7 grid
        seven = list(itertools.product((0, 1), repeat=3))[:7] * 3
        bp = BinaryProgram([0] * 3, [])
        with pytest.raises(CapExceededError, match="pair grid of 7 or more base points exceeds max_points=36"):
            enumerate_points(bp, base_points=seven, max_points=36)
        assert enumerate_points(bp, base_points=seven, max_points=49).base.shape == (7, 3)

    def test_listing_at_its_count(self):
        assert len(ordering3(1008).array) == 1008
        with pytest.raises(CapExceededError, match="point listing of 1008 points exceeds max_points=1007"):
            ordering3(1007).array


class TestBeyondEnumerationFaces:
    """Every family is certified past the point cap, where no point array
    fits: ordering n=5 (1.2 G points) and tour n=6 (31 M points)."""

    # (tight count, face dimension) of every family in facet_families order,
    # as runs of (repeats, report); computed by the earlier cube-splitting
    # face path and frozen here
    FROZEN = {
        "lop": [(80, (599961600, 39)), (20, (525662208, 39)), (20, (674260992, 39)), (20, (599961600, 39))],
        "tsp": [
            (30, (18671616, 32)),
            (30, (12447744, 32)),
            (40, (9335808, 32)),
            (30, (12447744, 32)),
            (15, (14029824, 32)),
            (15, (17089536, 32)),
            (15, (12447744, 32)),
        ],
    }

    @pytest.mark.parametrize("family,n,dim,families", [("lop", 5, 40, 140), ("tsp", 6, 33, 175)])
    def test_every_family_is_a_facet(self, family, n, dim, families):
        ps = family_points(family, n)
        assert ps.count > polytope.DEFAULT_MAX_POINTS
        rows = facet_families(ps.dim_ambient // 3, suites.FAMILIES[family].module.base_facets(n))
        reports = [check_inequality(ps, q) for q in rows]
        assert len(reports) == families
        assert all(r.valid and r.is_facet and r.polytope_dimension == dim for r in reports)
        assert all(0 < r.tight_point_count < ps.count for r in reports)
        faces = [(r.tight_point_count, r.face_dimension) for r in reports]
        assert faces == [face for repeats, face in self.FROZEN[family] for _ in range(repeats)]
        assert ps._array is None


class TestFaceWork:
    """A face costs m^2 2^|Z| grid cells, Z the row's nonzero z columns,
    and check_inequality refuses past the set's max_points, even when the
    points themselves are under it."""

    def test_all_z_row_past_the_cap(self):
        ps = ordering3(2000)
        assert ps.count == 1008 < ps.max_points == 2000
        cells = r"2304 grid cells \(36 pairs x 2\^6 z patterns\) exceeds max_points=2000"
        with pytest.raises(CapExceededError, match=cells):
            check_inequality(ps, Constraint(paired(6, z=[1] * 6), "<=", 6, "all_z"))
        # five z columns are 36 * 2^5 = 1,152 cells, under the cap
        q = Constraint(paired(6, z=[1] * 5 + [0]), "<=", 5, "five_z")
        assert check_inequality(ps, q) == brute_force_report(ps, q)
        # the default cap reads the all-z row
        q = Constraint(paired(6, z=[1] * 6), "<=", 6, "all_z")
        assert check_inequality(ordering3(), q) == brute_force_report(ps, q)

    def test_ordering4_all_z_row_at_the_default_cap(self):
        # 483,840 points, under the cap, but 576 * 2^12 = 2,359,296 cells
        ps = suites._lop_points(4)
        with pytest.raises(CapExceededError, match="2359296 grid cells"):
            check_inequality(ps, Constraint(paired(12, z=[1] * 12), "<=", 12, "all_z"))

    @pytest.mark.parametrize("chunk", [1, 100, polytope._ORDER_CHUNK])
    def test_patterns_cross_chunks(self, chunk, monkeypatch):
        # 36 pairs: at a chunk of 1 or 100 each pass takes one or two
        # patterns, so the cells of a row span several passes
        ps = ordering3()
        rows = random_rows(random.Random(chunk), ps, 12)
        monkeypatch.setattr(polytope, "_ORDER_CHUNK", chunk)
        TestSubCubeOracle.agree(ps, rows)


class TestEquationSystem:
    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            EquationSystem([[1, 1], [2, 2]], [1, 2])

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            EquationSystem([[1, 0]], [1, 2])

    def test_lift_doubles_rank(self):
        es = EquationSystem([[1, 1]], [1])
        lifted = lift_equation_system(es)
        assert lifted.matrix.nrows == 2
        assert lifted.matrix.ncols == 6
        # x block row then y block row, z block zeroed
        assert [v for v in lifted.matrix.rows[0]] == [1, 1, 0, 0, 0, 0]
        assert [v for v in lifted.matrix.rows[1]] == [0, 0, 1, 1, 0, 0]

    @pytest.mark.parametrize("system", [lop.pick_one_system(3), lop.pick_one_system(4), tsp.degree_system(5)])
    def test_lift_ranks_nothing(self, system, monkeypatch):
        # [M 0 0; 0 M 0] has rank 2 rank(M) by construction: the lift takes
        # no second rank, and the rank it skips is twice the base rank
        base = EquationSystem(*system)
        calls = []
        rank = RatMatrix.rank

        def counting(matrix):
            calls.append(matrix.nrows)
            return rank(matrix)

        monkeypatch.setattr(RatMatrix, "rank", counting)
        lifted = lift_equation_system(base)
        assert calls == []
        assert lifted.matrix.rank() == lifted.matrix.nrows == 2 * base.matrix.rank() == 2 * len(system[0])
        assert lifted.rhs == base.rhs + base.rhs

    def test_verify_minimal_system(self):
        inst = lop.LopInstance.zero(2)
        bp = lop.build(inst)
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(2)]
        ps = enumerate_points(bp, base_points=base)
        good = lift_equation_system(EquationSystem(*lop.pick_one_system(2)))
        assert verify_minimal_system(ps, good)
        # wrong right-hand side: no longer satisfied
        bad = lift_equation_system(EquationSystem([[1, 1]], [2]))
        assert not verify_minimal_system(ps, bad)

    def test_empty_system_of_a_full_dimensional_hull(self):
        # hull 9 of 9: the empty system is minimal, and a row no point set
        # of full dimension satisfies is not; an empty system has no width
        ps = enumerate_points(BinaryProgram([0, 0, 0], [Constraint([1, 1, 1], "<=", 2)]))
        assert ps.hull_dimension() == ps.dim_ambient == 9
        assert verify_minimal_system(ps, lift_equation_system(EquationSystem([], [])))
        assert not verify_minimal_system(ps, lift_equation_system(EquationSystem([[1, 1, 0]], [1])))


def minimal_per_point(ps, system):
    """verify_minimal_system by evaluating every row at every point."""
    for row, d in zip(system.matrix.rows, system.rhs):
        vals, b = point_values(ps.array, Constraint(row, "<=", d))
        if not (vals == b).all():
            return False
    return ps.hull_dimension() == ps.dim_ambient - system.matrix.nrows


class TestMinimalSystemByGram:
    """verify_minimal_system reads the rows off the base points: zero on U,
    B alpha and B beta constant, and the right-hand side at the first
    point; never the paired points.  Each verdict is also checked point by
    point."""

    @staticmethod
    def verdict(ps, rows, rhs):
        system = EquationSystem(rows, rhs)
        got = verify_minimal_system(ps, system)
        assert got == minimal_per_point(ps, system)
        return got

    def test_row_broken_at_one_point(self):
        # x1 + x2 = 1 holds at 010 and 100, the first base points, and fails
        # only at 111; x1 + x2 - x3 = 1 holds at all three, so the hull has
        # dimension 2 * 2 + 3 = 9 - 2 all the same
        ps = pairs_of([[0, 1, 0], [1, 0, 0], [1, 1, 1]])
        assert ps.hull_dimension() == affine_dimension(ps.array) == 7
        plane = [1, 1, -1]
        assert self.verdict(ps, [paired(3, x=plane), paired(3, y=plane)], [1, 1])
        assert not self.verdict(ps, [paired(3, x=[1, 1, 0]), paired(3, y=plane)], [1, 1])
        assert not self.verdict(ps, [paired(3, x=plane), paired(3, y=[1, 1, 0])], [1, 1])

    def test_rhs_off_at_every_point(self):
        # x1 + x2 is 1 at every base point, so only the right-hand side can fail
        ps = pairs_of([[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]])
        rows = [paired(3, x=[1, 1, 0]), paired(3, y=[1, 1, 0])]
        assert self.verdict(ps, rows, [1, 1])
        assert not self.verdict(ps, rows, [2, 1])
        assert not self.verdict(ps, rows, [1, 0])

    def test_fractional_rows(self):
        ps = pairs_of([[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]])
        half, third = Fraction(1, 2), Fraction(1, 3)
        y = paired(3, y=[1, 1, 0])
        assert self.verdict(ps, [paired(3, x=[half, half, 0]), y], [half, 1])
        # 2 x1 + 2 x2 = 3 after scaling: off at every point
        assert not self.verdict(ps, [paired(3, x=[third, third, 0]), y], [half, 1])
        # x1 + x2/2 = 1/2 holds at the first base point, 010, and fails at 10*
        assert not self.verdict(ps, [paired(3, x=[1, half, 0]), y], [half, 1])

    def test_z_rows(self):
        # column 1 is 1 at both base points, so z_1 = 1 at every point and
        # z_2 varies: dim = 2 * 1 + 1 = 6 - 3
        ps = pairs_of([[1, 0], [1, 1]])
        fixed = [paired(2, x=[1, 0]), paired(2, y=[1, 0])]
        assert ps.hull_dimension() == 3
        assert self.verdict(ps, fixed + [paired(2, z=[1, 0])], [1, 1, 1])
        assert self.verdict(ps, fixed + [paired(2, x=[1, 0], z=[2, 0])], [1, 1, 3])
        assert not self.verdict(ps, fixed + [paired(2, z=[1, 0])], [1, 1, 0])
        assert not self.verdict(ps, fixed + [paired(2, z=[0, 1])], [1, 1, 1])
        assert not self.verdict(ps, fixed + [paired(2, z=[1, 1])], [1, 1, 1])

    def test_agrees_with_per_point_on_tour5(self):
        ps = suites._tsp_points(5)
        good = lift_equation_system(EquationSystem(*tsp.degree_system(5)))
        assert verify_minimal_system(ps, good) and minimal_per_point(ps, good)
        rng = random.Random(3)
        seen = set()
        for _ in range(40):
            rows = [list(r) for r in good.matrix.rows]
            rhs = list(good.rhs)
            r, other = rng.sample(range(len(rows)), 2)
            kind = rng.choice(["coefficient", "rhs", "combine", "scale"])
            if kind == "coefficient":
                rows[r][rng.randrange(len(rows[r]))] += rng.choice([-1, 1, Fraction(1, 2)])
            elif kind == "rhs":
                rhs[r] += rng.choice([-1, 1, Fraction(-1, 3)])
            elif kind == "combine":  # adding another row keeps the system valid
                m = rng.choice([-2, 1, Fraction(1, 3)])
                rows[r] = [a + m * b for a, b in zip(rows[r], rows[other])]
                rhs[r] += m * rhs[other]
            else:
                m = rng.choice([Fraction(2, 7), -3])
                rows[r], rhs[r] = [m * a for a in rows[r]], m * rhs[r]
            try:
                system = EquationSystem(rows, rhs)
            except ValueError:  # the perturbation made the rows dependent
                continue
            verdict = verify_minimal_system(ps, system)
            assert verdict == minimal_per_point(ps, system), (kind, r)
            seen.add(verdict)
        assert seen == {True, False}


class TestCornerRankIdentity:
    """hull_dimension is 2 rank(B - b0) + |U|, U the z columns where some
    base point has a 0, and its pivot columns are those of the point
    array's Gram matrix; verify_minimal_system reads the same U and B.
    Checked against the point array on every family set the suites use,
    on seeded random models and on random base arrays."""

    @staticmethod
    def agree(ps):
        assert ps.count == len(ps.array)
        assert ps.hull_dimension() == affine_dimension(ps.array)
        assert ps._pivots == array_pivots(ps)
        arr = ps.array
        constant = [j for j in range(ps.dim_ambient) if (arr[:, j] == arr[0, j]).all()]
        valid = [([int(i == j) for i in range(ps.dim_ambient)], int(arr[0, j])) for j in constant]
        verdicts = []
        if valid:  # the constant columns: rows that hold at every point
            system = EquationSystem(*zip(*valid))
            verdicts.append(verify_minimal_system(ps, system))
            assert verdicts[-1] == minimal_per_point(ps, system)
        for j in sorted(set(range(ps.dim_ambient)) - set(constant)):
            # a column that varies makes v_j = (its value at p0) fail, on
            # its own and beside rows that hold
            row = [int(i == j) for i in range(ps.dim_ambient)]
            for rows in ([(row, int(arr[0, j]))], valid + [(row, int(arr[0, j]))]):
                system = EquationSystem(*zip(*rows))
                assert not verify_minimal_system(ps, system) and not minimal_per_point(ps, system)
        return verdicts

    @pytest.mark.parametrize(
        "family,n,system",
        [("lop", n, lop.pick_one_system) for n in (2, 3, 4)] + [("tsp", n, tsp.degree_system) for n in (4, 5)],
    )
    def test_families(self, family, n, system):
        ps = suites._paired_points(suites.FAMILIES[family], n)
        self.agree(ps)
        lifted = lift_equation_system(EquationSystem(*system(n)))
        assert verify_minimal_system(ps, lifted) and minimal_per_point(ps, lifted)

    def test_random_models(self):
        rng = random.Random(1729)
        models, verdicts = 0, set()
        while models < 40:
            bp = bpcore.random_binary_program(rng, max_n=6, max_rows=3)
            ps = enumerate_points(bp)
            if ps.count:
                verdicts |= set(self.agree(ps))
                models += 1
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    def test_cubes_free_anywhere(self, seed):
        # seeded random base arrays with columns fixed at 0 or 1 anywhere,
        # so the varying z columns sit among constant ones in every block
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            base = random_base(rng, int(rng.integers(1, 6)), n)
            fixed = rng.integers(0, 3, n)  # 0 or 1: the column's value; 2: random
            base[:, fixed == 0], base[:, fixed == 1] = 0, 1
            self.agree(pairs_of(base))

    def test_free_column_row_holding_at_every_corner(self):
        # the one pair (0, 0, z): x = 0, z = 0 holds at its first point and has
        # two rows for a hull of dimension 3 - 2, yet z is free
        ps = pairs_of([[0]])
        system = EquationSystem([[1, 0, 0], [0, 0, 1]], [0, 0])
        assert ps.hull_dimension() == 1 and ps.base.tolist() == [[0]] and ps.loose.tolist() == [[1]]
        assert not verify_minimal_system(ps, system) and not minimal_per_point(ps, system)
        assert verify_minimal_system(ps, EquationSystem([[1, 0, 0], [0, 1, 0]], [0, 0]))


class TestFacetFamilies:
    def test_counts(self):
        fams3 = facet_families(6, lop.base_facets(3))
        # two lifted copies of each base facet + two z bounds and one
        # coupling per coordinate
        assert len(fams3) == 2 * len(lop.base_facets(3)) + 3 * 6
        assert len(fams3) == 34
        fams5 = facet_families(10, tsp.base_facets(5))
        assert len(fams5) == 2 * len(tsp.base_facets(5)) + 3 * 10
        assert len(fams5) == 90

    def test_labels_unique(self):
        fams = facet_families(6, lop.base_facets(3))
        labels = [q.label for q in fams]
        assert len(set(labels)) == len(labels)

    def test_lifted_copies_act_on_their_block(self):
        fams = facet_families(2, lop.base_facets(2))
        by_label = {q.label: q for q in fams}
        qx = by_label["x_1_2_ge_0[x]"]
        qy = by_label["x_1_2_ge_0[y]"]
        assert qx.coeffs[0] == 1 and all(v == 0 for v in qx.coeffs[1:])
        assert qy.coeffs[2] == 1 and all(v == 0 for i, v in enumerate(qy.coeffs) if i != 2)


class TestDisjointPair:
    def test_free_model_is_universal(self):
        rep = check_disjoint_pair_condition(BinaryProgram([0, 0], []))
        assert rep.existential and rep.universal
        assert rep.universal_counterexample is None
        # the report stores the two vectors; the verdicts are read off them
        assert [f.name for f in dataclasses.fields(rep)] == ["existential_witness", "universal_counterexample"]

    def test_forced_overlap(self):
        bp = BinaryProgram([0, 0], [Constraint([1, 1], "=", 2, "all_on")])
        rep = check_disjoint_pair_condition(bp)
        assert not rep.existential
        assert not rep.universal
        assert rep.universal_counterexample == (1, 1)

    def test_tour_cases(self):
        assert not check_disjoint_pair_condition(tsp.build(tsp.TspInstance.zero(4))).existential
        rep5 = check_disjoint_pair_condition(tsp.build(tsp.TspInstance.zero(5)))
        assert rep5.existential and rep5.universal
        x, y = rep5.existential_witness
        assert all(a * b == 0 for a, b in zip(x, y))


def _no_unique(monkeypatch):
    """Make any np.unique call fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)


def strictly_increasing(arr, chunk=1 << 16):
    """Whether the rows of a 0/1 array are distinct and in increasing
    lexicographic order: at the first column where two consecutive rows
    differ, the earlier row has 0 and the later one 1.  O(rows * columns),
    chunk consecutive pairs of rows at a time."""
    if arr.shape[1] == 0:
        return arr.shape[0] < 2
    for lo in range(0, arr.shape[0] - 1, chunk):
        hi = min(lo + chunk, arr.shape[0] - 1)
        prev, nxt = arr[lo:hi], arr[lo + 1 : hi + 1]
        # argmax is 0 for equal rows, where nxt > prev fails as it should
        first = (prev != nxt).argmax(axis=1)[:, None]
        if not (np.take_along_axis(nxt, first, 1) > np.take_along_axis(prev, first, 1)).all():
            return False
    return True


class TestPointOrder:
    """enumerate_points keeps the base points sorted and distinct whatever
    order they come in, and the listing generates the paired points
    distinct and in lexicographic order by construction, with no sort and
    no check at run time; strictly_increasing checks it here."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(5)
        sorted_rows = np.unique(rng.integers(0, 2, (40, 4), dtype=np.uint8), axis=0)
        last_col = np.zeros((4, 3), dtype=np.uint8)
        last_col[1::2, -1] = 1  # rows 0/1 and 2/3 differ only in the last column
        yield "shuffled", rng.permutation(sorted_rows)
        yield "duplicates", np.repeat(sorted_rows, 2, axis=0)
        yield "sorted-with-one-duplicate", np.insert(sorted_rows, 7, sorted_rows[7], axis=0)
        yield "last-column", last_col
        yield "last-column-descending", last_col[::-1]
        yield "one-row", sorted_rows[:1]
        yield "zero-rows", np.zeros((0, 5), dtype=np.uint8)
        for k in range(20):
            yield f"random-{k}", rng.integers(0, 2, (rng.integers(2, 8), rng.integers(1, 4)), dtype=np.uint8)

    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    def test_matches_np_unique(self, chunk):
        # a chunk of 3 rows puts many consecutive points of the order check
        # across chunk borders
        for name, arr in self.cases():
            ps = pairs_of(arr)
            assert ps.base.tolist() == np.unique(arr, axis=0).tolist(), name
            assert ps.array.dtype == np.uint8 and ps.array.shape == (ps.count, 3 * arr.shape[1]), name
            assert strictly_increasing(ps.array, chunk), name
            assert ps.array.tolist() == ([list(p) for p in paired_listing(arr)] if len(arr) else []), name

    def test_order_check_refuses_swaps_and_repeats(self):
        rows = pairs_of(np.eye(3, dtype=np.uint8)).array
        assert strictly_increasing(rows) and strictly_increasing(rows[:1]) and strictly_increasing(rows[:0])
        for i in (0, 5, len(rows) - 2):
            swapped = rows.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            assert not strictly_increasing(swapped) and not strictly_increasing(swapped, 3)
        assert not strictly_increasing(np.insert(rows, 7, rows[7], axis=0))
        assert strictly_increasing(np.zeros((1, 0), dtype=np.uint8))
        assert not strictly_increasing(np.zeros((2, 0), dtype=np.uint8))

    @pytest.mark.parametrize("family,n", [("lop", 4), ("tsp", 5)])
    def test_family_listings_are_in_order(self, family, n):
        # ordering n=4: 483,840 points over 24 base points; tour n=5: 35,712 over 12
        ps = family_points(family, n)
        assert len(ps.array) == ps.count and strictly_increasing(ps.array)

    def test_sorted_distinct_input_is_not_resorted(self, monkeypatch):
        rows = np.unique(np.random.default_rng(1).integers(0, 2, (40, 5), dtype=np.uint8), axis=0)
        want = [list(p) for p in paired_listing(rows)]
        _no_unique(monkeypatch)
        ps = pairs_of(rows)
        assert ps.base.tolist() == rows.tolist() and ps.array.tolist() == want

    @pytest.mark.parametrize("family,n", [("lop", 2), ("lop", 3), ("tsp", 4), ("tsp", 5)])
    def test_family_points_need_no_sort(self, family, n, monkeypatch):
        expected = (suites.LOP_EXPECTED if family == "lop" else suites.TSP_EXPECTED)[n]
        _no_unique(monkeypatch)
        ps = suites._paired_points(suites.FAMILIES[family], n)
        assert ps.count == expected["points"]
        assert ps.hull_dimension() == expected["dim"]

    def test_raw_scan_needs_no_sort(self, monkeypatch):
        bp = tsp.build(tsp.TspInstance.zero(4))
        want = paired_scan(bp).tolist()
        _no_unique(monkeypatch)
        assert enumerate_points(bp).array.tolist() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_base_point_order_does_not_matter(self, seed, monkeypatch):
        bp = lop.build(lop.LopInstance.zero(3))
        base = list(lop.base_points(3))
        shuffled = base + base[:4]
        random.Random(seed).shuffle(shuffled)
        want = enumerate_points(bp, base_points=base).array
        _no_unique(monkeypatch)
        got = enumerate_points(bp, base_points=shuffled).array
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_raw_refusal_lists_no_tuples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_feasible called")

        monkeypatch.setattr(bpcore, "enumerate_feasible", refuse)
        # polytope reads feasible sets as blocks and no longer imports the tuple list
        assert not hasattr(polytope, "enumerate_feasible")
        with pytest.raises(CapExceededError, match="pair grid of 32 or more base points exceeds max_points=1000"):
            enumerate_points(BinaryProgram([1] * 7, []), max_points=1000)
