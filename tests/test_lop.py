import itertools
import random
from fractions import Fraction

import pytest

from diamopt import lop
from diamopt.bpcore import enumerate_feasible
from diamopt.errors import ParseError
from diamopt.polytope import check_inequality, enumerate_points
from diamopt.ratlinalg import RatMatrix


def brute_kendall(p, q):
    """Discordant pair count, straight from the definition."""
    n = len(p)
    count = 0
    for i, j in itertools.combinations(range(1, n + 1), 2):
        a = p[i - 1] < p[j - 1]
        b = q[i - 1] < q[j - 1]
        if a != b:
            count += 1
    return count


class TestPairs:
    def test_ordered_pairs_row_major(self):
        assert lop.ordered_pairs(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]

    def test_pair_index_inverse(self):
        for n in (2, 3, 4, 5):
            for k, pair in enumerate(lop.ordered_pairs(n)):
                assert lop.pair_index(*pair, n) == k


class TestIncidence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_all_permutations(self, n):
        for p in lop.all_permutations(n):
            x = lop.perm_to_incidence(p)
            assert lop.incidence_to_perm(x, n) == p

    def test_known_incidence(self):
        # items 1,2,3 ranked 2,1,3: item 2 first, then 1, then 3
        x = lop.perm_to_incidence((2, 1, 3))
        pairs = lop.ordered_pairs(3)
        as_dict = dict(zip(pairs, x))
        assert as_dict[(2, 1)] == 1 and as_dict[(1, 2)] == 0
        assert as_dict[(1, 3)] == 1 and as_dict[(2, 3)] == 1

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            lop.perm_to_incidence((1, 1, 3))
        with pytest.raises(ValueError):
            lop.incidence_to_perm((1, 1, 0, 0, 0, 0), 3)


class TestKendall:
    def test_matches_brute_force(self):
        rng = random.Random(23)
        for n in (3, 5, 7):
            items = list(range(1, n + 1))
            for _ in range(20):
                p = tuple(rng.sample(items, n))
                q = tuple(rng.sample(items, n))
                assert lop.kendall_tau(p, q) == brute_kendall(p, q)

    def test_reversal_is_maximal(self):
        p = (1, 2, 3, 4)
        assert lop.kendall_tau(p, (4, 3, 2, 1)) == 6

    def test_half_hamming_identity(self):
        for p in lop.all_permutations(4):
            for q in lop.all_permutations(4):
                xp, xq = lop.perm_to_incidence(p), lop.perm_to_incidence(q)
                ham = sum(a != b for a, b in zip(xp, xq))
                assert ham == 2 * lop.kendall_tau(p, q)


class TestModel:
    @pytest.mark.parametrize("n,dicycles", [(3, 2), (4, 8)])
    def test_row_counts(self, n, dicycles):
        bp = lop.build(lop.LopInstance.zero(n))
        picks = [c for c in bp.constraints if c.label.startswith("pick_")]
        cycles = [c for c in bp.constraints if c.label.startswith("cyc_")]
        assert len(picks) == n * (n - 1) // 2
        assert len(cycles) == dicycles

    @pytest.mark.parametrize("n", [3, 4])
    def test_feasible_set_is_exactly_the_permutations(self, n):
        bp = lop.build(lop.LopInstance.zero(n))
        want = sorted(lop.perm_to_incidence(p) for p in lop.all_permutations(n))
        assert sorted(enumerate_feasible(bp)) == want

    def test_objective_matches_weights(self):
        inst = lop.LopInstance(3, {(1, 2): Fraction(4), (2, 1): Fraction(-1), (1, 3): Fraction(2)})
        # order 1,2,3: pairs (1,2),(1,3),(2,3) active
        assert lop.objective_value(inst, (1, 2, 3)) == 6
        # order 2,1,3: pairs (2,1),(1,3),(2,3) active
        assert lop.objective_value(inst, (2, 1, 3)) == 1

    def test_optimal_permutations_brute_force(self):
        rng = random.Random(29)
        for _ in range(10):
            weights = {
                pair: Fraction(rng.randint(-4, 4)) for pair in lop.ordered_pairs(4)
            }
            inst = lop.LopInstance(4, weights)
            best = max(lop.objective_value(inst, p) for p in lop.all_permutations(4))
            want = [p for p in lop.all_permutations(4) if lop.objective_value(inst, p) == best]
            assert lop.optimal_permutations(inst) == want


class TestDiameterKendall:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_n3(self, seed):
        rng = random.Random(600 + seed)
        weights = {pair: Fraction(rng.randint(-3, 3)) for pair in lop.ordered_pairs(3)}
        assert lop.verify_diameter_kendall(lop.LopInstance(3, weights))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances_n4(self, seed):
        rng = random.Random(640 + seed)
        weights = {pair: Fraction(rng.randint(-3, 3)) for pair in lop.ordered_pairs(4)}
        assert lop.verify_diameter_kendall(lop.LopInstance(4, weights))

    def test_all_ties_instance(self):
        # zero weights: any two reversed orders are optimal and maximally far
        assert lop.verify_diameter_kendall(lop.LopInstance.zero(3))


class TestFacetsAndLifting:
    def test_base_facet_counts(self):
        assert len(lop.trivial_facets(3)) == 6
        assert len(lop.dicycle_facets(3)) == 2
        assert len(lop.base_facets(4)) == 12 + 8

    def test_pick_one_system_rank(self):
        rows, rhs = lop.pick_one_system(4)
        assert len(rows) == 6
        assert all(v == 1 for v in rhs)
        assert RatMatrix(rows).rank() == 6

    def test_lift_inequality_embedding(self):
        from diamopt.bpcore import Constraint

        # n=2 pairs are (1,2), (2,1); blocks x, y, z over 6 coordinates
        q = Constraint([1, 2, 3, 4, 5, 6], "<=", 7, "probe")
        lifted = lop.lift_inequality(q, 2)
        assert len(lifted.coeffs) == 3 * 6  # three blocks over the n=3 pairs
        pairs3 = lop.ordered_pairs(3)
        i12, i21 = pairs3.index((1, 2)), pairs3.index((2, 1))
        want = [Fraction(0)] * 18
        want[i12], want[i21] = 1, 2
        want[6 + i12], want[6 + i21] = 3, 4
        want[12 + i12], want[12 + i21] = 5, 6
        assert list(lifted.coeffs) == want
        assert lifted.rhs == q.rhs
        assert lifted.sense == q.sense
        assert lifted.label == q.label

    def test_lifted_dicycle_is_still_facet(self):
        inst = lop.LopInstance.zero(3)
        base = [lop.perm_to_incidence(p) for p in lop.all_permutations(3)]
        ps = enumerate_points(lop.build(inst), base_points=base)
        from diamopt.polytope import facet_families

        q = facet_families(2, lop.base_facets(2))[0]
        r = check_inequality(ps, lop.lift_inequality(q, 2))
        assert r.is_facet


class TestIo:
    def test_json_instance(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"n": 3, "weights": [[1, 2, 5], [2, 1, [1, 2]]]}')
        inst = lop.load_lop(str(path))
        assert inst.n_items == 3
        assert inst.weights[(1, 2)] == 5
        assert inst.weights[(2, 1)] == Fraction(1, 2)

    def test_matrix_text(self, tmp_path):
        path = tmp_path / "w.mat"
        path.write_text("# toy\n3\n0 1 2\n3 0 4\n5 6 0\n")
        inst = lop.load_lop(str(path))
        assert inst.weights[(1, 2)] == 1
        assert inst.weights[(3, 2)] == 6
        assert (1, 1) not in inst.weights

    def test_bad_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("3\n0 1\n")
        with pytest.raises(ParseError):
            lop.load_lop(str(path))
