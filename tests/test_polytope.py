import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import lop, tsp
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
