import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import bpcore, diameter, lop, tsp
from diamopt.bpcore import (
    POOL_LIMIT,
    BinaryProgram,
    Constraint,
    enumerate_optimal_set,
    is_feasible,
    random_binary_program,
    solve_bnb,
    solve_enumerate,
)
from diamopt.diameter import (
    build,
    choose_epsilon,
    diameter_by_enumeration,
    paired_optimum,
    paired_search,
    result_to_dict,
    score_dtype,
    solve_diameter,
    theoretical_epsilon,
)
from diamopt.errors import CapExceededError, DiamoptError, InfeasibleModelError
from diamopt.modelio import lp_string, parse_lp


def feasible_random_model(rng, **kw):
    while True:
        bp = random_binary_program(rng, **kw)
        if solve_bnb(bp).status == "optimal":
            return bp


class TestEpsilon:
    def test_integer_rule(self):
        bp = BinaryProgram([3, -2, 0, 5], [])
        eps = choose_epsilon(bp)
        assert type(eps) is Fraction and eps == Fraction(1, 8)

    def test_rational_rule_scales_by_lcm(self):
        bp = BinaryProgram([Fraction(1, 6), Fraction(3, 4)], [])
        # lcm(6, 4) = 12, n = 2
        assert choose_epsilon(bp) == Fraction(1, 2 * 2 * 12)

    def test_theoretical_gap(self):
        # optima at value 5, runner-up at 3: gap 2 over n=2
        bp = BinaryProgram([5, 3], [Constraint([1, 1], "<=", 1)])
        assert theoretical_epsilon(bp) == Fraction(2, 2)

    def test_theoretical_when_all_values_tie(self):
        bp = BinaryProgram([0, 0], [])
        eps = theoretical_epsilon(bp)
        assert type(eps) is Fraction and eps == 1

    def test_theoretical_on_infeasible_model_raises(self):
        bp = BinaryProgram([1, 1], [Constraint([1, 1], ">=", 3)])
        with pytest.raises(InfeasibleModelError):
            theoretical_epsilon(bp)

    @pytest.mark.parametrize("seed", range(6))
    def test_theoretical_gap_matches_brute_force(self, seed):
        bp = feasible_random_model(random.Random(seed), max_n=8, max_rows=4)
        values = sorted(
            {bp.objective_of(x) for x in itertools.product((0, 1), repeat=bp.n) if is_feasible(bp, x)}
        )
        want = (values[-1] - values[-2]) / bp.n if len(values) > 1 else 1
        assert theoretical_epsilon(bp) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_theoretical_gap_on_rational_objective_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        bp = feasible_random_model(rng, max_n=8, max_rows=3)
        bp = BinaryProgram([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12))) for _ in bp.c], bp.constraints)
        values = sorted(
            {bp.objective_of(x) for x in itertools.product((0, 1), repeat=bp.n) if is_feasible(bp, x)}
        )
        want = (values[-1] - values[-2]) / bp.n if len(values) > 1 else 1
        assert theoretical_epsilon(bp) == want

    def test_theoretical_gap_beyond_int64(self):
        # objective sums past 2^62 are taken in Python integers
        bp = BinaryProgram([2**70, 2**70 - 3, Fraction(1, 5)], [Constraint([1, 1, 0], "<=", 1)])
        assert theoretical_epsilon(bp) == Fraction(1, 5) / 3


class TestBuild:
    def test_shape_full(self):
        bp = BinaryProgram([1, 2, 3], [Constraint([1, 1, 1], "<=", 2, "cap")])
        dp = build(bp, None, "full")
        assert dp.variant == "full"
        assert dp.derived.n == 9
        assert len(dp.derived.constraints) == 2 * 1 + 2 * 3
        assert dp.derived.variable_names[:4] == ("x_1_x", "x_2_x", "x_3_x", "x_1_y")
        names = [c.name for c in dp.derived.constraints]
        assert names[:2] == ["cap_x", "cap_y"]
        assert "pair_ub_x_2" in names and "pair_lb_x_2" in names

    def test_shape_conjugate(self):
        bp = BinaryProgram([1, 2, 3], [Constraint([1, 1, 1], "<=", 2)])
        dp = build(bp, None, "conjugate")
        assert dp.variant == "conjugate"
        assert len(dp.derived.constraints) == 2 + 3

    def test_objective_carries_penalty(self):
        bp = BinaryProgram([4, 7], [])
        dp = build(bp, Fraction(1, 10), "full")
        assert dp.derived.c == (4, 7, 4, 7, Fraction(-1, 10), Fraction(-1, 10))

    def test_epsilon_choice_is_respected(self):
        bp = BinaryProgram([1], [])
        dp = build(bp, Fraction(1, 5), "full")
        assert dp.epsilon == Fraction(1, 5)

    def test_bad_inputs(self):
        bp = BinaryProgram([1], [])
        with pytest.raises(ValueError):
            build(bp, Fraction(0), "full")
        with pytest.raises(ValueError):
            build(bp, None, "medium")


class TestSolve:
    def test_unique_optimum_gives_zero(self):
        bp = BinaryProgram([3, 2], [Constraint([1, 1], "<=", 1)])
        res = solve_diameter(build(bp))
        assert res.diameter == 0
        assert res.x_star == res.y_star == (1, 0)

    def test_disjoint_ties_give_full_distance(self):
        bp = BinaryProgram([3, 3, 3, 3], [Constraint([1, 1, 1, 1], "<=", 2)])
        res = solve_diameter(build(bp))
        assert res.diameter == 4
        assert sorted((sum(res.x_star), sum(res.y_star))) == [2, 2]

    def test_infeasible_base(self):
        bp = BinaryProgram([1], [Constraint([1], ">=", 2)])
        with pytest.raises(InfeasibleModelError):
            solve_diameter(build(bp))

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    def test_z_semantics_on_random_models(self, variant):
        rng = random.Random(7 if variant == "full" else 8)
        for _ in range(20):
            bp = feasible_random_model(rng, max_n=7, max_rows=4)
            dp = build(bp, None, variant)
            res = solve_diameter(dp)
            # z is read off the pair, and is the z of the paired program's largest optimum
            assert res.x_star + res.y_star + res.z_star == solve_bnb(dp.derived).best.assignment
            if variant == "full":
                assert res.diameter == bp.n - sum(res.z_star)
                assert res.diameter_upper_bound is None
            else:
                assert res.diameter <= res.diameter_upper_bound

    def test_full_variant_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(30):
            bp = feasible_random_model(rng, max_n=8, max_rows=4)
            res = solve_diameter(build(bp))
            opt = {s.assignment for s in enumerate_optimal_set(bp)}
            assert res.x_star in opt and res.y_star in opt
            assert res.diameter == diameter_by_enumeration(bp)

    def test_constant_norm_pins_conjugate_distance(self):
        rng = random.Random(13)
        for _ in range(15):
            bp = feasible_random_model(rng, max_n=7, max_rows=3)
            # force every feasible point to the same squared norm
            k = rng.randint(1, bp.n - 1)
            rows = list(bp.constraints) + [Constraint([1] * bp.n, "=", k, "norm")]
            pinned = BinaryProgram(bp.c, rows)
            if solve_bnb(pinned).status != "optimal":
                continue
            res = solve_diameter(build(pinned, None, "conjugate"), constant_norm=k)
            assert res.diameter == diameter_by_enumeration(pinned)
            assert res.diameter == 2 * (k - sum(res.z_star))

    def test_relabeling_variables_preserves_diameter(self):
        rng = random.Random(17)
        for _ in range(10):
            bp = feasible_random_model(rng, max_n=7, max_rows=3)
            perm = list(range(bp.n))
            rng.shuffle(perm)
            c2 = [bp.c[j] for j in perm]
            rows2 = [
                Constraint(tuple(con.coeffs[j] for j in perm), con.sense, con.rhs)
                for con in bp.constraints
            ]
            d1 = solve_diameter(build(bp)).diameter
            d2 = solve_diameter(build(BinaryProgram(c2, rows2))).diameter
            assert d1 == d2

    def test_oversized_epsilon_can_break_optimality(self):
        # the penalty rules exist for a reason: epsilon = 2 drags the pair
        # apart at the cost of base optimality
        bp = BinaryProgram([1, 0], [])
        res = solve_diameter(build(bp, Fraction(2), "full"))
        opt = {s.assignment for s in enumerate_optimal_set(bp)}
        assert res.x_star not in opt or res.y_star not in opt

    def test_cross_check_runs_under_cap(self, monkeypatch):
        # the check runs exactly when 3n <= cap
        caps = []
        check = diameter.paired_optimum
        monkeypatch.setattr(diameter, "paired_optimum", lambda dp, cap: caps.append(cap) or check(dp, cap))
        bp = BinaryProgram([2, 1], [Constraint([1, 1], "<=", 1)])
        for cap in (None, 26, 6, 5):
            assert solve_diameter(build(bp), cap=cap).diameter == 0
        assert caps == [26, 26, 6]

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    def test_cross_check_catches_a_wrong_objective(self, variant, monkeypatch):
        bp = BinaryProgram([3, 3, 3, 3], [Constraint([1, 1, 1, 1], "<=", 2)])
        solve = diameter.solve_bnb

        def first_leaf_only(model, **kw):
            # a pool search that stops at its first leaf
            rep = solve(model, **kw)
            return dataclasses.replace(rep, pool=rep.pool[:1])

        monkeypatch.setattr(diameter, "solve_bnb", first_leaf_only)
        with pytest.raises(DiamoptError, match="solver disagreement"):
            solve_diameter(build(bp, None, variant))
        # with 3n above the cap the check does not run, and the one half
        # left is paired with itself
        assert solve_diameter(build(bp, None, variant), cap=3 * bp.n - 1).diameter == 0

    def test_cross_check_budget_is_the_paired_scan_budget(self):
        # zero objective: all 16 points are candidates, 16^2 = 2^8 pairs
        dp = build(BinaryProgram([0] * 4, []))
        assert paired_optimum(dp, cap=8) == 0
        with pytest.raises(CapExceededError, match=r"16\^2 candidate pairs exceed 2\^7"):
            paired_optimum(dp, cap=7)
        with pytest.raises(CapExceededError, match=r"2\^4 scan refused"):
            paired_optimum(dp, cap=3)

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3), 2, 7])
    def test_paired_optimum_matches_the_paired_scan(self, eps, variant):
        rng = random.Random(31)
        for k in range(12):
            bp = random_binary_program(rng, max_n=5, max_rows=3)
            if k % 3 == 0:
                bp = BinaryProgram([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in bp.c], bp.constraints)
            dp = build(bp, eps, variant)
            scan = solve_enumerate(dp.derived)
            assert paired_optimum(dp) == (scan.best.objective_value if scan.best else None)

    def test_a_result_stores_only_the_pair(self):
        names = [f.name for f in dataclasses.fields(diameter.DiverseOptimaResult)]
        assert names == ["x_star", "y_star", "variant", "epsilon", "base_objective"]
        res = diameter.DiverseOptimaResult((1, 1, 0, 0), (1, 0, 1, 0), "conjugate", Fraction(1, 8), Fraction(0))
        assert (res.z_star, res.diameter, res.diameter_upper_bound) == ((1, 0, 0, 0), 2, 3)
        res = dataclasses.replace(res, variant="full")
        assert (res.z_star, res.diameter, res.diameter_upper_bound) == ((1, 0, 0, 1), 2, None)

    def test_result_dict_shape(self):
        bp = BinaryProgram([1, 1], [])
        d = result_to_dict(solve_diameter(build(bp, None, "conjugate")))
        assert set(d) == {
            "variant",
            "epsilon",
            "x",
            "y",
            "z",
            "diameter",
            "base_objective",
            "diameter_upper_bound",
        }
        assert d["epsilon"] == {"num": 1, "den": 4}
        full = result_to_dict(solve_diameter(build(bp)))
        assert "diameter_upper_bound" not in full


def random_models(seed, count):
    """Seeded random models with n <= 5, a third of them with rational
    objectives; some are infeasible."""
    rng = random.Random(seed)
    for k in range(count):
        bp = random_binary_program(rng, max_n=5, max_rows=3)
        if k % 3 == 0:
            bp = BinaryProgram([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in bp.c], bp.constraints)
        yield bp


def largest_optimum(bp):
    return max(s.assignment for s in enumerate_optimal_set(bp))


class TestTieBreak:
    """solve_bnb returns the lexicographically largest optimum, and the
    base-optimum cuts of solve_diameter keep it."""

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3), 7])
    def test_bnb_returns_the_largest_optimum(self, eps, variant):
        for bp in random_models(41, 120):
            for model in (bp, build(bp, eps, variant).derived):
                rep = solve_bnb(model)
                if rep.status == "optimal":
                    assert rep.best.assignment == largest_optimum(model)
                else:
                    assert solve_enumerate(model).status == "infeasible"

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3), 7])
    def test_cuts_move_no_pair(self, eps, variant):
        for bp in random_models(43, 60):
            if solve_bnb(bp).status != "optimal":
                continue
            dp = build(bp, eps, variant)
            res = solve_diameter(dp)
            assert res.x_star + res.y_star + res.z_star == largest_optimum(dp.derived)


def paired_nodes(dp):
    """Nodes of the fallback's paired solve on dp, and of its base solve."""
    base = solve_bnb(dp.base)
    return paired_search(dp, base.best.objective_value).nodes_explored, base.nodes_explored


def pool_search(monkeypatch, dp):
    """Solve dp and return the report of its one pool search."""
    solve, reports = diameter.solve_bnb, []

    def recorded(model, **kw):
        reports.append(solve(model, **kw))
        return reports[-1]

    monkeypatch.setattr(diameter, "solve_bnb", recorded)
    solve_diameter(dp)
    assert len(reports) == 1
    return reports[0]


def pool_nodes(monkeypatch, dp):
    return pool_search(monkeypatch, dp).nodes_explored


def ordering6(seed):
    """Ordering n=6 with weights in [-4, 4] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    weights = {p: rng.randint(-4, 4) for p in lop.ordered_pairs(6)}
    return build(lop.build(lop.LopInstance(6, weights)))


def tour7(seed):
    """Tour n=7 with costs in [1, 6] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    costs = {e: rng.randint(1, 6) for e in tsp.edges(7)}
    return build(tsp.build(tsp.TspInstance(7, costs)))


class TestNodeCounts:
    """One guard per pruning device; each fails without its device."""

    def test_forced_penalties_on_zero_cost_tours(self):
        # every tour is optimal, so the base-optimum cuts cut nothing and the
        # forced columns carry the search: 4,455 paired nodes, 80,877
        # without them
        paired, _ = paired_nodes(build(tsp.build(tsp.TspInstance.zero(6))))
        assert paired < 10_000

    def test_base_optimum_cuts_on_a_weighted_ordering(self):
        # ordering n=6, seed 1, weights in [-4, 4]: 2,306 paired and 937
        # base nodes; without the cuts 17,362 paired nodes, and 140,864
        # without the forced columns as well
        paired, base = paired_nodes(ordering6(1))
        assert paired + base < 10_000

    def test_pool_search_on_a_weighted_ordering(self, monkeypatch):
        # the same ordering takes 1,068 pool nodes, and no paired search
        assert pool_nodes(monkeypatch, ordering6(1)) < 10_000

    def test_cardinality_rows_on_a_weighted_ordering_and_tour(self, monkeypatch):
        # the pick-one and degree rows bound the pool search: 1,068 nodes
        # for the ordering and 449 for tour n=7, seed 1, costs in [1, 6];
        # 990 and 1,483 without them (on the ordering the forced columns
        # alone, charged on every column once no row covers it, do better)
        assert pool_nodes(monkeypatch, ordering6(1)) < 5_000
        assert pool_nodes(monkeypatch, tour7(1)) < 600

    def test_lp_round_trip_keeps_the_cardinality_rows(self, monkeypatch):
        # lp_string writes the pick-one rows as = rows, so the bound still
        # reads them after parse_lp: 1,068 pool nodes either way (990 when
        # they came back as <= pairs)
        dp = ordering6(1)
        back = build(parse_lp(lp_string(dp.base)[0]))
        assert back.base.constraints == dp.base.constraints
        assert pool_nodes(monkeypatch, back) == pool_nodes(monkeypatch, dp) == 1068

    def test_forced_columns_on_orderings(self, monkeypatch):
        # fixing x_ij forces x_ji = 1 - x_ij at once, so a broken 3-dicycle
        # row is seen at the column that breaks it: 1,068 pool nodes on the
        # weighted ordering and 10,649 on the zero-cost ordering n=6 (every
        # ordering optimal); 4,450 and 45,987 with only negative-cost
        # columns forced to 1
        assert pool_nodes(monkeypatch, ordering6(1)) < 1_500
        assert pool_nodes(monkeypatch, build(lop.build(lop.LopInstance.zero(6)))) < 15_000

    @pytest.mark.parametrize(
        "family, seed, nodes, pool",
        [
            (ordering6, 1, 1068, ["623541"]),
            (ordering6, 5, 456, ["251346"]),
            (ordering6, 9, 425, ["243651", "342651"]),
            (tour7, 1, 449, ["1275436", "1274536", "1527436"]),
            (tour7, 2, 126, ["1276453", "1354276"]),
            (tour7, 3, 203, ["1267345", "1264375"]),
        ],
        ids=["ordering6-1", "ordering6-5", "ordering6-9", "tour7-1", "tour7-2", "tour7-3"],
    )
    def test_benchmark_pool_searches_exactly(self, monkeypatch, family, seed, nodes, pool):
        # the six searches of the diverse-pairs benchmark at solve_diameter's
        # slack, pinned: a change that keeps every answer but visits other
        # nodes shows here (pools as rankings, ranks of items 1..6, or tours)
        rep = pool_search(monkeypatch, family(seed))
        incidence = lop.perm_to_incidence if family is ordering6 else tsp.tour_to_incidence
        assert rep.nodes_explored == nodes
        assert rep.pool == tuple(incidence(tuple(map(int, p))) for p in pool)


class TestTwoPhases:
    """The pool path and the paired fallback return the same optimum."""

    @pytest.mark.parametrize("variant", ["full", "conjugate"])
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3), 2, 7])
    def test_pool_path_matches_the_paired_solve(self, eps, variant):
        rng = random.Random(47)
        for k in range(40):
            bp = feasible_random_model(rng, max_n=7, max_rows=4)
            if k % 3 == 0:
                bp = BinaryProgram([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12))) for _ in bp.c], bp.constraints)
            dp = build(bp, eps, variant)
            res = solve_diameter(dp)
            want = solve_bnb(dp.derived).best.assignment
            assert res.x_star + res.y_star + res.z_star == want
            assert paired_search(dp, solve_bnb(bp).best.objective_value).best.assignment == want

    def test_a_pool_past_the_limit_takes_the_paired_search(self, monkeypatch):
        # zero objective, n = 20: all 2^20 points are optimal halves
        dp = build(BinaryProgram([0] * 20, []))
        assert solve_bnb(dp.base, slack=0).pool is None
        search, calls = diameter.paired_search, []

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(diameter, "paired_search", counted)
        res = solve_diameter(dp)
        assert len(calls) == 1
        # the largest optimum of the paired program: x all ones, y its complement
        assert res.x_star + res.y_star + res.z_star == solve_bnb(dp.derived).best.assignment
        assert res.x_star == (1,) * 20 and res.y_star == (0,) * 20 and res.diameter == 20

    def test_a_pool_at_the_limit_is_scored(self, monkeypatch):
        # zero objective, n = 13: 2^13 = POOL_LIMIT optimal halves
        dp = build(BinaryProgram([0] * 13, []))
        assert len(solve_bnb(dp.base, slack=0).pool) == POOL_LIMIT
        monkeypatch.setattr(diameter, "paired_search", None)
        res = solve_diameter(dp)
        assert res.x_star == (1,) * 13 and res.y_star == (0,) * 13 and res.diameter == 13

    @pytest.mark.parametrize("k", [0, 31, 62, 64, 100])
    def test_scaled_coefficients_agree_on_every_path(self, k):
        # past 2^62 the scores must take Python integers, as the scans do
        rng = random.Random(53 + k)
        for _ in range(6):
            bp = feasible_random_model(rng, max_n=5, max_rows=3)
            bp = BinaryProgram(
                [ci * 2**k for ci in bp.c],
                [Constraint([a * 2**k for a in con.coeffs], con.sense, con.rhs * 2**k) for con in bp.constraints],
            )
            enum, bnb = solve_enumerate(bp), solve_bnb(bp)
            assert enum.best.objective_value == bnb.best.objective_value
            for variant in ("full", "conjugate"):
                dp = build(bp, None, variant)
                assert score_dtype(dp) is (object if k >= 62 and any(bp.c) else np.int64)
                res = solve_diameter(dp)
                pair = res.x_star + res.y_star + res.z_star
                fallback = paired_search(dp, bnb.best.objective_value).best
                assert fallback.assignment == solve_bnb(dp.derived).best.assignment == pair
                value = dp.derived.objective_of(pair)
                assert fallback.objective_value == value == solve_enumerate(dp.derived).best.objective_value


def tour(n, seed=None):
    """Tour n with zero costs, or costs in [1, 2] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return tsp.build(tsp.TspInstance(n, {e: 0 if seed is None else rng.randint(1, 2) for e in tsp.edges(n)}))


def ordering(n, seed=None):
    """Ordering n with zero weights, or weights in [0, 1] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return lop.build(lop.LopInstance(n, {p: 0 if seed is None else rng.randint(0, 1) for p in lop.ordered_pairs(n)}))


def recorded_searches(monkeypatch):
    """The programs paired_search is called on, from now on."""
    search, programs = diameter.paired_search, []
    monkeypatch.setattr(diameter, "paired_search", lambda dp, v: programs.append(dp) or search(dp, v))
    return programs


class TestConjugateTwin:
    """Past POOL_LIMIT a full solve whose = rows pin every feasible norm to
    k, 2k < n, runs the conjugate program at 2*eps and gives the full answer."""

    @pytest.mark.parametrize(
        "model, k",
        [
            (tour(6), 6),
            (tour(6, 1), 6),
            (tour(6, 2), 6),
            (tour(7), 7),
            (tour(7, 1), 7),
            (tour(7, 2), 7),
            (ordering(5), 10),
            (ordering(5, 1), 10),
            (ordering(6), 15),
        ],
        ids=["tour6", "tour6-1", "tour6-2", "tour7", "tour7-1", "tour7-2", "ordering5", "ordering5-1", "ordering6"],
    )
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3)])
    def test_the_fallback_gives_the_pool_pair(self, monkeypatch, model, k, eps):
        dp = build(model, eps)
        pool = solve_diameter(dp, constant_norm=k)
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 0)
        programs = recorded_searches(monkeypatch)
        res = solve_diameter(dp, constant_norm=k)
        assert len(programs) == 1
        assert (res.x_star, res.y_star) == (pool.x_star, pool.y_star)

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("eps", [None, Fraction(1, 3), 2])
    def test_the_converted_value_passes_the_cross_check(self, monkeypatch, seed, eps):
        # tour n=6 has 15 columns, so cap=45 runs paired_optimum on the full
        # program; a twin value left unconverted is off by eps*(15 - 12)
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 0)
        checks = []
        check = diameter.paired_optimum
        monkeypatch.setattr(diameter, "paired_optimum", lambda dp, cap: checks.append(check(dp, cap)) or checks[-1])
        dp = build(tour(6, seed), eps)
        res = solve_diameter(dp, constant_norm=6, cap=45)
        assert checks == [dp.derived.objective_of(res.x_star + res.y_star + res.z_star)]

    def test_the_twin_runs_only_where_2k_is_below_n(self, monkeypatch):
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 0)
        programs = recorded_searches(monkeypatch)
        dp = build(tour(6))
        twin = solve_diameter(dp)
        # the same tour with each degree row written as a <=/>= pair: no =
        # row is left to pin the norm, so the full program itself
        rows = []
        for con in dp.base.constraints:
            rows += [(con.coeffs, s, con.rhs) for s in ("<=", ">=")] if con.sense == "=" else [con]
        pairs = build(BinaryProgram(dp.base.c, rows))
        full = solve_diameter(pairs)
        # on orderings 2k = n: the full program itself
        lp = build(ordering(5))
        solve_diameter(lp)
        assert [(p.variant, p.epsilon) for p in programs] == [
            ("conjugate", 2 * dp.epsilon),
            ("full", pairs.epsilon),
            ("full", lp.epsilon),
        ]
        assert programs[1] is pairs and programs[2] is lp
        assert (twin.x_star, twin.y_star) == (full.x_star, full.y_star)

    def test_a_raw_lp_tour_takes_the_twin(self, monkeypatch):
        # the LP text keeps the degree rows as = rows, so the norm is read
        # off the model itself, with no front end to vouch for it
        front = solve_diameter(build(tour(8)))
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 0)
        programs = recorded_searches(monkeypatch)
        dp = build(parse_lp(lp_string(tour(8))[0]))
        res = solve_diameter(dp)
        assert [(p.variant, p.epsilon) for p in programs] == [("conjugate", 2 * dp.epsilon)]
        assert (res.x_star, res.y_star) == (front.x_star, front.y_star) and res.diameter == 16

    def test_pinned_random_models(self, monkeypatch):
        # the identity needs only |x| = |y| = k, so it holds on raw models
        # pinned to norm k, rational objectives included; n <= 8, so the
        # cross-check runs on each
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 0)
        rng = random.Random(59)
        solved = 0
        while solved < 12:
            bp = feasible_random_model(rng, max_n=8, max_rows=3)
            if bp.n < 3:
                continue
            k = rng.randint(1, (bp.n - 1) // 2)
            c = bp.c if solved % 2 else [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in bp.c]
            pinned = BinaryProgram(c, list(bp.constraints) + [Constraint([1] * bp.n, "=", k, "norm")])
            if solve_bnb(pinned).status != "optimal":
                continue
            solved += 1
            dp = build(pinned, rng.choice([None, Fraction(1, 3), 2]))
            res = solve_diameter(dp, constant_norm=k)
            assert res.x_star + res.y_star + res.z_star == solve_bnb(dp.derived).best.assignment


class TestPinnedNorm:
    """|x| when the = rows give every feasible point that norm, else None."""

    @pytest.mark.parametrize(
        "model, k",
        [(ordering(n), n * (n - 1) // 2) for n in range(3, 7)]
        + [(tour(n), n) for n in range(4, 9)]
        + [
            (BinaryProgram([1, 2, 3, 4, 5], [([1] * 5, "=", 3), ([1, 1, 0, 0, 0], "<=", 1)]), 3),
            (BinaryProgram([0] * 6, [([Fraction(1, 2)] * 6, "=", 1)]), 2),
            (BinaryProgram([1, 1, 1], [([1, 1, 0], "=", 1)]), None),
            (BinaryProgram([1, 1, 1], [([1, 1, 1], "<=", 2)]), None),
        ],
        ids=[f"ordering{n}" for n in range(3, 7)]
        + [f"tour{n}" for n in range(4, 9)]
        + ["sum-is-k", "rational-half-sum", "two-of-three", "no-equality"],
    )
    def test_the_equality_rows_decide(self, model, k):
        assert diameter._pinned_norm(model, solve_bnb(model).best.assignment) == k


class TestLazyDerived:
    def test_the_pool_path_never_builds_the_paired_program(self):
        # ordering n=3 is cross-checked by default, tour n=5 is not
        for bp in (lop.build(lop.LopInstance.zero(3)), tsp.build(tsp.TspInstance.zero(5))):
            dp = build(bp)
            solve_diameter(dp)
            assert "derived" not in vars(dp)
            assert dp.derived.n == 3 * bp.n and "derived" in vars(dp)

    def test_equality_ignores_the_cached_program(self):
        bp = BinaryProgram([1, 2], [Constraint([1, 1], "<=", 1)])
        a, b = build(bp), build(bp)
        a.derived
        assert a == b and a != build(bp, None, "conjugate")
