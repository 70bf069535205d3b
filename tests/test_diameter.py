import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import diameter, lop, tsp
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
    INTEGER_RULE,
    RATIONAL_RULE,
    EpsilonChoice,
    build,
    choose_epsilon,
    diameter_by_enumeration,
    paired_optimum,
    paired_search,
    result_to_dict,
    score_dtype,
    solve_diameter,
    theoretical_epsilon,
    verify_z_semantics,
)
from diamopt.errors import CapExceededError, DiamoptError, InfeasibleModelError


def feasible_random_model(rng, **kw):
    while True:
        bp = random_binary_program(rng, **kw)
        if solve_bnb(bp).status == "optimal":
            return bp


class TestEpsilon:
    def test_integer_rule(self):
        bp = BinaryProgram([3, -2, 0, 5], [])
        eps = choose_epsilon(bp)
        assert eps.value == Fraction(1, 8)
        assert eps.justification == INTEGER_RULE

    def test_rational_rule_scales_by_lcm(self):
        bp = BinaryProgram([Fraction(1, 6), Fraction(3, 4)], [])
        eps = choose_epsilon(bp)
        # lcm(6, 4) = 12, n = 2
        assert eps.value == Fraction(1, 2 * 2 * 12)
        assert eps.justification == RATIONAL_RULE

    def test_theoretical_gap(self):
        # optima at value 5, runner-up at 3: gap 2 over n=2
        bp = BinaryProgram([5, 3], [Constraint([1, 1], "<=", 1)])
        eps = theoretical_epsilon(bp)
        assert eps.value == Fraction(2, 2)

    def test_theoretical_when_all_values_tie(self):
        bp = BinaryProgram([0, 0], [])
        assert theoretical_epsilon(bp).value == 1

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
        assert theoretical_epsilon(bp).value == want

    @pytest.mark.parametrize("seed", range(6))
    def test_theoretical_gap_on_rational_objective_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        bp = feasible_random_model(rng, max_n=8, max_rows=3)
        bp = BinaryProgram([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12))) for _ in bp.c], bp.constraints)
        values = sorted(
            {bp.objective_of(x) for x in itertools.product((0, 1), repeat=bp.n) if is_feasible(bp, x)}
        )
        want = (values[-1] - values[-2]) / bp.n if len(values) > 1 else 1
        assert theoretical_epsilon(bp) == EpsilonChoice(Fraction(want), "theoretical")

    def test_theoretical_gap_beyond_int64(self):
        # objective sums past 2^62 are taken in Python integers
        bp = BinaryProgram([2**70, 2**70 - 3, Fraction(1, 5)], [Constraint([1, 1, 0], "<=", 1)])
        assert theoretical_epsilon(bp).value == Fraction(1, 5) / 3


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
        assert dp.epsilon_rule == "user-supplied"

    def test_epsilon_choice_is_respected(self):
        bp = BinaryProgram([1], [])
        dp = build(bp, EpsilonChoice(Fraction(1, 5), "handpicked"), "full")
        assert dp.epsilon == Fraction(1, 5)
        assert dp.epsilon_rule == "handpicked"

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
            res = solve_diameter(build(bp, None, variant))
            assert verify_z_semantics(res)
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


def pool_nodes(monkeypatch, dp):
    """Solve dp and return the nodes of its one pool search."""
    solve, nodes = diameter.solve_bnb, []

    def counted(model, **kw):
        rep = solve(model, **kw)
        nodes.append(rep.nodes_explored)
        return rep

    monkeypatch.setattr(diameter, "solve_bnb", counted)
    solve_diameter(dp)
    assert len(nodes) == 1
    return nodes[0]


def ordering6_seed1():
    rng = random.Random(1)
    weights = {p: rng.randint(-4, 4) for p in lop.ordered_pairs(6)}
    return build(lop.build(lop.LopInstance(6, weights)))


class TestNodeCounts:
    """One guard per pruning device; each fails without its device."""

    def test_forced_penalties_on_zero_cost_tours(self):
        # every tour is optimal, so the base-optimum cuts cut nothing and the
        # forced z penalties carry the search: 80,877 paired nodes without them
        paired, _ = paired_nodes(build(tsp.build(tsp.TspInstance.zero(6))))
        assert paired < 10_000

    def test_base_optimum_cuts_on_a_weighted_ordering(self):
        # ordering n=6, seed 1, weights in [-4, 4]: 12,847 paired and 6,148
        # base nodes; without the cuts 118,673 paired nodes, and 454,144
        # without either device
        paired, base = paired_nodes(ordering6_seed1())
        assert paired + base < 50_000

    def test_pool_search_on_a_weighted_ordering(self, monkeypatch):
        # the same ordering takes 7,374 pool nodes, and no paired search
        assert pool_nodes(monkeypatch, ordering6_seed1()) < 10_000


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
