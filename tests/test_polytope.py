import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import bpcore, lop, polytope, suites, tsp
from diamopt.bpcore import BinaryProgram, Constraint
from diamopt.diameter import build as build_diameter
from diamopt.diameter import paired
from diamopt.errors import CapExceededError
from diamopt.polytope import (
    EquationSystem,
    Inequality,
    PointSet,
    check_disjoint_pair_condition,
    check_inequality,
    enumerate_points,
    facet_families,
    lift_equation_system,
    points_satisfying,
    verify_minimal_system,
)
from diamopt.ratlinalg import affine_dimension


def paired_points_free(n):
    """Paired point set of the model with no rows at all."""
    dp = build_diameter(BinaryProgram([0] * n, []), None, "conjugate")
    return enumerate_points(dp)


def paired_scan(dp):
    """The paired program's feasible set by the 2^(3n) scan of dp.derived,
    the reference that enumerate_points is checked against."""
    return np.concatenate([np.empty((0, dp.derived.n), dtype=np.uint8), *bpcore.feasible_blocks(dp.derived)])


class TestPointSet:
    def test_dedup_and_order(self):
        ps = PointSet([[1, 0], [0, 1], [1, 0], [0, 0]])
        assert ps.count == 3
        assert ps.array.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PointSet([[0, 2]])

    def test_hull_dimension_simple(self):
        square = PointSet([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert square.hull_dimension() == 2
        segment = PointSet([[0, 0], [1, 1]])
        assert segment.hull_dimension() == 1


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
        dp = build_diameter(lop.build(inst), None, "conjugate")
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(2)]
        structured = enumerate_points(dp, base_points=base)
        assert structured.array.tolist() == enumerate_points(dp).array.tolist() == paired_scan(dp).tolist()
        assert structured.count == 12

    def test_structured_equals_raw_ordering_n3(self):
        inst = lop.LopInstance.zero(3)
        dp = build_diameter(lop.build(inst), None, "conjugate")
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(3)]
        structured = enumerate_points(dp, base_points=base)
        assert structured.array.tolist() == enumerate_points(dp).array.tolist() == paired_scan(dp).tolist()
        assert structured.count == 1008

    def test_structured_equals_raw_tour_n4(self):
        inst = tsp.TspInstance.zero(4)
        dp = build_diameter(tsp.build(inst), None, "conjugate")
        base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(4)]
        structured = enumerate_points(dp, base_points=base)
        assert structured.array.tolist() == enumerate_points(dp).array.tolist() == paired_scan(dp).tolist()
        assert structured.count == 108

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_equal_the_paired_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            bp = bpcore.random_binary_program(rng, max_n=6, max_rows=3)
            dp = build_diameter(bp, None, "conjugate")
            assert enumerate_points(dp).array.tolist() == paired_scan(dp).tolist()

    def test_base_scan_reaches_past_the_paired_scan(self):
        # n = 9 fits the cap of 26, 3n = 27 does not: x1..x7 are pinned to 1,
        # and each of x8, x9 adds the 7 points of the one-variable case
        bp = BinaryProgram([0] * 9, [Constraint([1] * 7 + [0, 0], ">=", 7)])
        dp = build_diameter(bp, None, "conjugate")
        ps = enumerate_points(dp)
        assert ps.count == 49 and ps.hull_dimension() == 6
        with pytest.raises(CapExceededError, match=r"2\^9 scan refused \(cap 8\)"):
            enumerate_points(dp, cap=8)

    def test_max_points_cap(self):
        with pytest.raises(CapExceededError):
            paired_points_free_capped()


def paired_points_free_capped():
    dp = build_diameter(BinaryProgram([0] * 4, []), None, "conjugate")
    return enumerate_points(dp, max_points=10)


class TestCheckInequality:
    # the 7-point set from the one-variable free model: hull dim 3,
    # every facet checkable by hand
    def facets_by_hand(self):
        return [
            Inequality([1, 1, -1], 1, "<=", "coupling"),
            Inequality([0, 0, 1], 0, ">=", "z_lo"),
            Inequality([0, 0, 1], 1, "<=", "z_hi"),
            Inequality([1, 0, 0], 0, ">=", "x_lo"),
            Inequality([0, 1, 0], 0, ">=", "y_lo"),
        ]

    def test_hand_checked_facets(self):
        ps = paired_points_free(1)
        for q in self.facets_by_hand():
            r = check_inequality(ps, q)
            assert r.valid and r.is_facet, q.label
            assert r.face_dimension == 2

    def test_coupling_tight_points(self):
        ps = paired_points_free(1)
        sat, tight = points_satisfying(ps, Inequality([1, 1, -1], 1, "<=", "coupling"))
        assert bool(sat.all())
        assert int(tight.sum()) == 3  # (0,1,0), (1,0,0), (1,1,1)

    def test_valid_but_not_facet(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Inequality([1, 1, 1], 3, "<=", "vertex_only"))
        assert r.valid and not r.is_facet
        assert r.face_dimension == 0

    def test_invalid_inequality(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Inequality([1, 0, 0], 0, "<=", "x_is_zero"))
        assert not r.valid
        assert not r.is_facet

    def test_empty_face(self):
        ps = paired_points_free(1)
        r = check_inequality(ps, Inequality([1, 1, 1], -1, ">=", "slack"))
        assert r.valid
        assert r.tight_point_count == 0
        assert r.face_dimension == -1

    def test_huge_coefficients(self):
        # 2^62 + 2^62 wraps in int64; the verdicts must not
        ps = paired_points_free(1)
        big = 1 << 62
        r = check_inequality(ps, Inequality([big, big, -big], big, "<=", "coupling_scaled"))
        assert r.valid and r.is_facet and r.tight_point_count == 3
        r = check_inequality(ps, Inequality([big, big, 0], big, "<=", "x_plus_y"))
        assert not r.valid and r.tight_point_count == 4

    def test_fractional_inequality(self):
        ps = paired_points_free(1)
        r = check_inequality(
            ps, Inequality([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)], Fraction(1, 2), "<=", "half")
        )
        assert r.is_facet  # same facet as the integer form

    def test_coordinate_relabeling_preserves_reports(self):
        rng = random.Random(31)
        ps = paired_points_free(2)
        ineq = Inequality([1, 0, 1, 0, -1, 0], 1, "<=", "coupling_1")
        base = check_inequality(ps, ineq)
        for _ in range(5):
            perm = list(range(6))
            rng.shuffle(perm)
            arr = ps.array[:, perm]
            a = [Fraction(0)] * 6
            for new, old in enumerate(perm):
                a[new] = ineq.a[old]
            r = check_inequality(PointSet(arr), Inequality(a, ineq.a0, "<=", "relabeled"))
            assert r.valid == base.valid
            assert r.face_dimension == base.face_dimension
            assert r.tight_point_count == base.tight_point_count


class TestFaceRank:
    """A face with some point not tight has dimension at most dim - 1, so
    check_inequality ranks an odd-strided subset of it first and all of it
    only when the subset falls short; a face tight at every point is the
    whole polytope and takes no rank.  Every case is checked against the
    rank of the whole tight set, on tour n=5 (35,712 points, dim 20)."""

    @pytest.fixture(scope="class")
    def tour5(self):
        ps = suites._tsp_points(5)
        ps.hull_dimension()
        return ps

    @staticmethod
    def ranked(ps, q):
        """The report, and the row count of each rank it took."""
        calls = []

        def counting(points):
            calls.append(len(points))
            return affine_dimension(points)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(polytope, "affine_dimension", counting)
            r = check_inequality(ps, q)
        tight = points_satisfying(ps, q)[1]
        assert r.tight_point_count == int(tight.sum())
        assert r.face_dimension == (affine_dimension(ps.array[tight]) if tight.any() else -1), q.label
        return r, calls

    def test_every_family_takes_the_subset(self, tour5):
        for q in facet_families(10, tsp.base_facets(5)):
            r, calls = self.ranked(tour5, q)
            assert r.is_facet, q.label
            assert len(calls) == 1 and calls[0] < r.tight_point_count, q.label

    def test_tight_everywhere_takes_no_rank(self, tour5):
        rows, rhs = tsp.degree_system(5)
        r, calls = self.ranked(tour5, Inequality(paired(10, x=rows[0]), rhs[0], "<=", "degree_1[x]"))
        assert r.valid and r.tight_point_count == tour5.count
        assert r.face_dimension == 20 and not r.is_facet
        assert calls == []

    def test_lower_face_falls_back_to_the_whole_face(self, tour5):
        # z_1 + z_2 >= 0 is tight where both vanish: two facets meet there
        r, calls = self.ranked(tour5, Inequality(paired(10, z=[1, 1] + [0] * 8), 0, ">=", "z_1_z_2"))
        assert r.valid and not r.is_facet and r.face_dimension < 19
        assert r.tight_point_count > 1000
        assert len(calls) == 2 and calls[0] < calls[1] == r.tight_point_count

    def test_invalid_row(self, tour5):
        # edges 12 and 13 share a tour whenever vertex 1 sits between 2 and 3
        a = [0] * 10
        a[tsp.edge_index(1, 2, 5)] = a[tsp.edge_index(1, 3, 5)] = 1
        r, _ = self.ranked(tour5, Inequality(paired(10, x=a), 1, "<=", "x_12_x_13"))
        assert not r.valid and not r.is_facet
        assert 0 < r.tight_point_count < tour5.count


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

    def test_verify_minimal_system(self):
        inst = lop.LopInstance.zero(2)
        dp = build_diameter(lop.build(inst), None, "conjugate")
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(2)]
        ps = enumerate_points(dp, base_points=base)
        good = lift_equation_system(EquationSystem(*lop.pick_one_system(2)))
        assert verify_minimal_system(ps, good)
        # wrong right-hand side: no longer satisfied
        bad = lift_equation_system(EquationSystem([[1, 1]], [2]))
        assert not verify_minimal_system(ps, bad)


def minimal_per_point(ps, system):
    """verify_minimal_system by evaluating every row at every point."""
    rows = zip(system.matrix.rows, system.rhs)
    holds = all(points_satisfying(ps, Inequality(row, d, "<="))[1].all() for row, d in rows)
    return holds and ps.hull_dimension() == ps.dim_ambient - system.matrix.nrows


class TestMinimalSystemByGram:
    """verify_minimal_system reads a . p0 = b and a^T G a = 0, never the points."""

    def test_row_broken_at_one_point(self):
        # x1 + x2 = 1 holds at 010 and 100, the first point among them, and
        # fails only at 111; the hull has dimension 3 - 1 all the same
        ps = PointSet([[0, 1, 0], [1, 0, 0], [1, 1, 1]])
        system = EquationSystem([[1, 1, 0]], [1])
        assert ps.hull_dimension() == 2
        assert not verify_minimal_system(ps, system)
        assert not minimal_per_point(ps, system)

    def test_rhs_off_at_every_point(self):
        # x1 + x2 is 1 at every point, so a^T G a = 0 and only a . p0 = b fails
        ps = PointSet([[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]])
        assert verify_minimal_system(ps, EquationSystem([[1, 1, 0]], [1]))
        assert not verify_minimal_system(ps, EquationSystem([[1, 1, 0]], [2]))
        assert not verify_minimal_system(ps, EquationSystem([[1, 1, 0]], [0]))

    def test_fractional_rows(self):
        ps = PointSet([[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]])
        half = Fraction(1, 2)
        assert verify_minimal_system(ps, EquationSystem([[half, half, 0]], [half]))
        # 2 x1 + 2 x2 = 3 after scaling: off at every point
        third = Fraction(1, 3)
        assert not verify_minimal_system(ps, EquationSystem([[third, third, 0]], [half]))
        # x1 + x2/2 = 1/2 holds at the first point, 010, and fails at 10*
        assert not verify_minimal_system(ps, EquationSystem([[1, half, 0]], [half]))

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
        assert qx.a[0] == 1 and all(v == 0 for v in qx.a[1:])
        assert qy.a[2] == 1 and all(v == 0 for i, v in enumerate(qy.a) if i != 2)


class TestDisjointPair:
    def test_free_model_is_universal(self):
        rep = check_disjoint_pair_condition(BinaryProgram([0, 0], []))
        assert rep.existential and rep.universal
        assert rep.universal_counterexample is None

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


class TestPointOrder:
    """PointSet keeps sorted distinct rows without sorting, and point
    enumeration produces them so."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(5)
        sorted_rows = np.unique(rng.integers(0, 2, (300, 9), dtype=np.uint8), axis=0)
        last_col = np.zeros((4, 6), dtype=np.uint8)
        last_col[1::2, -1] = 1  # rows 0/1 and 2/3 differ only in the last column
        yield "shuffled", rng.permutation(sorted_rows)
        yield "duplicates", np.repeat(sorted_rows, 2, axis=0)
        yield "sorted-with-one-duplicate", np.insert(sorted_rows, 7, sorted_rows[7], axis=0)
        yield "last-column", last_col
        yield "last-column-descending", last_col[::-1]
        yield "one-row", sorted_rows[:1]
        yield "zero-rows", np.zeros((0, 5), dtype=np.uint8)
        for k in range(20):
            yield f"random-{k}", rng.integers(0, 2, (rng.integers(2, 60), rng.integers(1, 5)), dtype=np.uint8)

    @pytest.mark.parametrize("chunk", [3, polytope._ORDER_CHUNK])
    def test_matches_np_unique(self, chunk, monkeypatch):
        # a chunk of 3 rows puts many consecutive pairs across chunk borders
        monkeypatch.setattr(polytope, "_ORDER_CHUNK", chunk)
        for name, arr in self.cases():
            ps = PointSet(arr)
            want = np.unique(arr, axis=0) if len(arr) else arr
            assert ps.array.dtype == np.uint8, name
            assert ps.array.tolist() == want.tolist(), name

    def test_sorted_distinct_input_is_not_resorted(self, monkeypatch):
        rows = np.unique(np.random.default_rng(1).integers(0, 2, (200, 8), dtype=np.uint8), axis=0)
        _no_unique(monkeypatch)
        assert PointSet(rows).array.tolist() == rows.tolist()

    @pytest.mark.parametrize("family,n", [("lop", 2), ("lop", 3), ("tsp", 4), ("tsp", 5)])
    def test_family_points_need_no_sort(self, family, n, monkeypatch):
        expected = (suites.LOP_EXPECTED if family == "lop" else suites.TSP_EXPECTED)[n]
        _no_unique(monkeypatch)
        ps = suites._paired_points(suites.FAMILIES[family], n)
        assert ps.count == expected["points"]
        assert ps.hull_dimension() == expected["dim"]

    def test_raw_scan_needs_no_sort(self, monkeypatch):
        dp = build_diameter(tsp.build(tsp.TspInstance.zero(4)), None, "conjugate")
        want = paired_scan(dp).tolist()
        _no_unique(monkeypatch)
        assert enumerate_points(dp).array.tolist() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_base_point_order_does_not_matter(self, seed, monkeypatch):
        dp = build_diameter(lop.build(lop.LopInstance.zero(3)), None, "conjugate")
        base = list(lop.base_points(3))
        shuffled = base + base[:4]
        random.Random(seed).shuffle(shuffled)
        want = enumerate_points(dp, base_points=base).array
        _no_unique(monkeypatch)
        got = enumerate_points(dp, base_points=shuffled).array
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_raw_refusal_lists_no_tuples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_feasible called")

        monkeypatch.setattr(bpcore, "enumerate_feasible", refuse)
        # polytope reads feasible sets as blocks and no longer imports the tuple list
        assert not hasattr(polytope, "enumerate_feasible")
        dp = build_diameter(BinaryProgram([1] * 7, []), None, "conjugate")
        with pytest.raises(CapExceededError, match="point enumeration exceeds max_points=1000"):
            enumerate_points(dp, max_points=1000)
