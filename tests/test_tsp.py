import itertools
import random
from fractions import Fraction

import pytest

from diamopt import tsp
from diamopt.bpcore import enumerate_feasible
from diamopt.errors import CapExceededError, ParseError
from diamopt.ratlinalg import RatMatrix


class TestEdges:
    def test_lexicographic(self):
        assert tsp.edges(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_edge_index_inverse(self):
        for n in (3, 4, 5, 6):
            for k, e in enumerate(tsp.edges(n)):
                assert tsp.edge_index(*e, n) == k
                assert tsp.edge_index(e[1], e[0], n) == k  # order-insensitive


class TestTours:
    def test_canonical_form_collapses_symmetries(self):
        t = (1, 3, 5, 2, 4)
        rotations = [t[k:] + t[:k] for k in range(5)]
        for r in rotations + [tuple(reversed(r)) for r in rotations]:
            assert tsp.canonical_tour(r) == tsp.canonical_tour(t)

    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 12), (6, 60)])
    def test_all_tours_count(self, n, count):
        tours = tsp.all_tours(n)
        assert len(tours) == count
        assert len(set(tours)) == count

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_incidence_round_trip(self, n):
        for t in tsp.all_tours(n):
            x = tsp.tour_to_incidence(t)
            assert sum(x) == n
            assert tsp.incidence_to_tour(x, n) == t

    def test_two_triangles_rejected(self):
        # 2-regular but disconnected: not a tour
        x = [0] * len(tsp.edges(6))
        for e in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]:
            x[tsp.edge_index(*e, 6)] = 1
        with pytest.raises(ValueError):
            tsp.incidence_to_tour(x, 6)


class TestModel:
    @pytest.mark.parametrize("n,subtours", [(4, 10), (5, 25)])
    def test_row_counts(self, n, subtours):
        bp = tsp.build(tsp.TspInstance.zero(n))
        deg = [c for c in bp.constraints if c.name.startswith("deg_")]
        sub = [c for c in bp.constraints if c.name.startswith("sub_")]
        assert len(deg) == n
        assert len(sub) == subtours

    @pytest.mark.parametrize("n", [4, 5])
    def test_feasible_set_is_exactly_the_tours(self, n):
        bp = tsp.build(tsp.TspInstance.zero(n))
        want = sorted(tsp.tour_to_incidence(t) for t in tsp.all_tours(n))
        assert sorted(enumerate_feasible(bp)) == want

    def test_build_cap(self):
        with pytest.raises(CapExceededError):
            tsp.build(tsp.TspInstance.zero(11))

    def test_minimization_by_negated_costs(self):
        costs = {(1, 2): 1, (1, 3): 5, (1, 4): 5, (2, 3): 5, (2, 4): 5, (3, 4): 1}
        inst = tsp.TspInstance(4, {k: Fraction(v) for k, v in costs.items()})
        best = tsp.optimal_tours(inst)
        want = min(tsp.all_tours(4), key=lambda t: tsp.tour_cost(inst, t))
        assert want in best
        assert all(
            tsp.tour_cost(inst, t) == tsp.tour_cost(inst, best[0]) for t in best
        )

    def test_optimal_tours_brute_force(self):
        rng = random.Random(37)
        for _ in range(10):
            costs = {e: Fraction(rng.randint(1, 9)) for e in tsp.edges(5)}
            inst = tsp.TspInstance(5, costs)
            lo = min(tsp.tour_cost(inst, t) for t in tsp.all_tours(5))
            want = [t for t in tsp.all_tours(5) if tsp.tour_cost(inst, t) == lo]
            assert tsp.optimal_tours(inst) == want


class TestDiscordance:
    def test_known_pair(self):
        t1 = (1, 2, 3, 4, 5)
        t2 = (1, 3, 5, 2, 4)
        d = tsp.discordant_edges(t1, t2)
        assert d == frozenset(tsp.tour_edges(t1))  # edge-disjoint tours
        assert len(tsp.discordant_edges(t1, t1)) == 0

    def test_symmetric_count(self):
        for t1 in tsp.all_tours(5):
            for t2 in tsp.all_tours(5):
                assert len(tsp.discordant_edges(t1, t2)) == len(
                    tsp.discordant_edges(t2, t1)
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_diameter_matches_discordance_n5(self, seed):
        rng = random.Random(500 + seed)
        costs = {e: Fraction(rng.randint(1, 6)) for e in tsp.edges(5)}
        assert tsp.verify_diameter_discordant(tsp.TspInstance(5, costs))

    def test_diameter_matches_discordance_n6(self):
        rng = random.Random(561)
        costs = {e: Fraction(rng.randint(1, 4)) for e in tsp.edges(6)}
        assert tsp.verify_diameter_discordant(tsp.TspInstance(6, costs))

    def test_zero_cost_diameter_is_twice_n_when_disjoint_tours_exist(self):
        assert tsp.verify_diameter_discordant(tsp.TspInstance.zero(5))


class TestDisjointTours:
    def test_small_cases_have_none(self):
        assert tsp.find_disjoint_tour((1, 2, 3)) is None
        for t in tsp.all_tours(4):
            assert tsp.find_disjoint_tour(t) is None

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_found_tours_are_disjoint(self, n):
        rng = random.Random(70 + n)
        tours = tsp.all_tours(n) if n <= 5 else None
        for _ in range(10):
            if tours is not None:
                t = rng.choice(tours)
            else:
                rest = list(range(2, n + 1))
                rng.shuffle(rest)
                t = tsp.canonical_tour((1, *rest))
            other = tsp.find_disjoint_tour(t)
            assert other is not None
            assert tsp.canonical_tour(other) == other
            assert not (set(tsp.tour_edges(t)) & set(tsp.tour_edges(other)))


class TestFacets:
    def test_base_facet_count(self):
        # nonnegativity per edge plus subtour rows for sizes 2..n-2
        assert len(tsp.base_facets(5)) == 10 + 20

    def test_subtour_sizes(self):
        labels = [q.label for q in tsp.subtour_facets(5)]
        assert all(l.startswith("sub_") for l in labels)
        assert len(labels) == 20

    def test_degree_system_rank(self):
        rows, rhs = tsp.degree_system(5)
        assert len(rows) == 5
        assert all(v == 2 for v in rhs)
        assert RatMatrix(rows).rank() == 5


class TestIo:
    def test_json_instance(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"n": 4, "costs": [[1, 2, 3], [3, 4, [1, 2]]]}')
        inst = tsp.load_tsp(str(path))
        assert inst.costs[(1, 2)] == 3
        assert inst.costs[(3, 4)] == Fraction(1, 2)

    def test_tsplib_full_matrix(self, tmp_path):
        text = "\n".join(
            [
                "NAME: toy",
                "TYPE: TSP",
                "DIMENSION: 4",
                "EDGE_WEIGHT_TYPE: EXPLICIT",
                "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
                "EDGE_WEIGHT_SECTION",
                "0 1 2 3",
                "1 0 4 5",
                "2 4 0 6",
                "3 5 6 0",
                "EOF",
            ]
        )
        path = tmp_path / "toy.tsp"
        path.write_text(text)
        inst = tsp.load_tsp(str(path))
        assert inst.n == 4
        assert inst.costs[(1, 2)] == 1
        assert inst.costs[(3, 4)] == 6

    def test_tsplib_asymmetric_rejected(self, tmp_path):
        text = "\n".join(
            [
                "DIMENSION: 3",
                "EDGE_WEIGHT_TYPE: EXPLICIT",
                "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
                "EDGE_WEIGHT_SECTION",
                "0 1 2",
                "9 0 3",
                "2 3 0",
                "EOF",
            ]
        )
        path = tmp_path / "bad.tsp"
        path.write_text(text)
        with pytest.raises(ParseError):
            tsp.load_tsp(str(path))

    def test_coordinate_instances_rejected(self, tmp_path):
        text = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n"
        path = tmp_path / "coords.tsp"
        path.write_text(text)
        with pytest.raises(ParseError):
            tsp.load_tsp(str(path))


def test_tour_pair_oracle_n5():
    """Conjugate solve against straight tour-pair enumeration, random costs."""
    rng = random.Random(77)
    from diamopt.diameter import build as build_diameter, solve_diameter

    for _ in range(3):
        costs = {e: Fraction(rng.randint(1, 5)) for e in tsp.edges(5)}
        inst = tsp.TspInstance(5, costs)
        opt = tsp.optimal_tours(inst)
        want = max(
            len(tsp.discordant_edges(a, b)) for a in opt for b in opt
        )
        dp = build_diameter(tsp.build(inst), None, "conjugate")
        res = solve_diameter(dp, constant_norm=5)
        assert res.diameter == 2 * want
