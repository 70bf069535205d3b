import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import bpcore, lop, polytope, suites, tsp
from diamopt.bpcore import BinaryProgram, Constraint
from diamopt.diameter import build as build_diameter
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


def paired_points_free(n):
    """Paired point set of the model with no rows at all."""
    dp = build_diameter(BinaryProgram([0] * n, []), None, "conjugate")
    return enumerate_points(dp)


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

    def test_structured_equals_raw_ordering_n2(self):
        inst = lop.LopInstance.zero(2)
        dp = build_diameter(lop.build(inst), None, "conjugate")
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(2)]
        structured = enumerate_points(dp, base_points=base)
        raw = enumerate_points(dp)
        assert structured.array.tolist() == raw.array.tolist()
        assert structured.count == 12

    def test_structured_equals_raw_ordering_n3(self):
        inst = lop.LopInstance.zero(3)
        dp = build_diameter(lop.build(inst), None, "conjugate")
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(3)]
        structured = enumerate_points(dp, base_points=base)
        raw = enumerate_points(dp)
        assert structured.array.tolist() == raw.array.tolist()
        assert structured.count == 1008

    def test_structured_equals_raw_tour_n4(self):
        inst = tsp.TspInstance.zero(4)
        dp = build_diameter(tsp.build(inst), None, "conjugate")
        base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(4)]
        structured = enumerate_points(dp, base_points=base)
        raw = enumerate_points(dp)
        assert structured.array.tolist() == raw.array.tolist()
        assert structured.count == 108

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
        base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(4)]
        structured = enumerate_points(dp, base_points=base).array.tolist()
        _no_unique(monkeypatch)
        assert enumerate_points(dp).array.tolist() == structured

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
