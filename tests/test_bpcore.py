import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt.bpcore import (
    BinaryProgram,
    Constraint,
    enumerate_feasible,
    enumerate_optimal_set,
    feasible_blocks,
    is_feasible,
    random_binary_program,
    solve_bnb,
    solve_enumerate,
)
from diamopt.errors import CapExceededError, InfeasibleModelError


def brute_feasible(bp):
    """Independent oracle: straight itertools scan, no vectorization."""
    out = []
    for bits in itertools.product((0, 1), repeat=bp.n):
        ok = True
        for con in bp.constraints:
            lhs = sum(a * v for a, v in zip(con.coeffs, bits))
            if con.sense == "<=":
                ok = lhs <= con.rhs
            elif con.sense == "=":
                ok = lhs == con.rhs
            else:
                ok = lhs >= con.rhs
            if not ok:
                break
        if ok:
            out.append(bits)
    return out


class TestModel:
    def test_default_names(self):
        bp = BinaryProgram([1, 2], [Constraint([1, 1], "<=", 1)])
        assert bp.variable_names == ("x_1", "x_2")
        assert bp.constraints[0].name == "c1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BinaryProgram([1, 2], [], ["a", "a"])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinaryProgram([1, 2], [Constraint([1], "<=", 1)])

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            BinaryProgram([1], [Constraint([1], "<", 1)])

    def test_objective_of_is_exact(self):
        bp = BinaryProgram([Fraction(1, 3), Fraction(1, 6)], [])
        assert bp.objective_of((1, 1)) == Fraction(1, 2)

    def test_is_feasible(self):
        bp = BinaryProgram([0, 0], [Constraint([1, 1], "=", 1)])
        assert is_feasible(bp, (1, 0))
        assert not is_feasible(bp, (1, 1))


class TestEnumerate:
    def test_knapsack(self):
        bp = BinaryProgram([3, 3, 2], [Constraint([1, 1, 1], "<=", 2)])
        rep = solve_enumerate(bp)
        assert rep.status == "optimal"
        assert rep.best.objective_value == 6
        assert rep.best.assignment == (1, 1, 0)

    def test_infeasible(self):
        bp = BinaryProgram([1], [Constraint([1], ">=", 2)])
        rep = solve_enumerate(bp)
        assert rep.status == "infeasible"
        assert rep.best is None
        with pytest.raises(InfeasibleModelError):
            enumerate_optimal_set(bp)

    def test_tie_break_is_lexicographic(self):
        bp = BinaryProgram([1, 1], [Constraint([1, 1], "<=", 1)])
        assert solve_enumerate(bp).best.assignment == (0, 1)

    def test_cap_enforced(self):
        bp = BinaryProgram([0] * 30, [])
        with pytest.raises(CapExceededError):
            solve_enumerate(bp, cap=20)

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_set_matches_brute_force(self, seed):
        rng = random.Random(seed)
        bp = random_binary_program(rng, max_n=8, max_rows=4)
        assert enumerate_feasible(bp) == brute_feasible(bp)

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_blocks_are_the_feasible_set_in_order(self, seed):
        bp = random_binary_program(random.Random(seed), max_n=8, max_rows=4)
        blocks = list(feasible_blocks(bp))
        assert all(b.dtype == np.uint8 and b.shape[1] == bp.n for b in blocks)
        assert [tuple(r) for b in blocks for r in b.tolist()] == brute_feasible(bp)

    def test_feasible_blocks_are_bounded(self):
        # 2^18 free assignments arrive in 2^16-row blocks, so a reader can stop early
        sizes = [len(b) for b in feasible_blocks(BinaryProgram([0] * 18, []))]
        assert sizes == [1 << 16] * 4

    @pytest.mark.parametrize("lead", [1, 2])
    def test_ties_across_the_block_boundary(self, lead):
        # n = 17 is two 2^16-row blocks split at x_1: with lead 1 the optima
        # straddle the boundary, with lead 2 the second block beats the first
        n = 17
        c = [lead, 1, 1] + [-1] * (n - 3)
        bp = BinaryProgram(c, [Constraint([1, 1, 1] + [0] * (n - 3), "<=", 2)])
        feasible = [x for x in itertools.product((0, 1), repeat=n) if sum(x[:3]) <= 2]
        scored = [(sum(ci for ci, v in zip(c, x) if v), x) for x in feasible]
        best = max(v for v, _ in scored)
        want = [x for v, x in scored if v == best]
        assert [x[0] for x in want] == ([0, 1, 1] if lead == 1 else [1, 1])
        rep = solve_enumerate(bp)
        assert rep.best.assignment == want[0] and rep.best.objective_value == best
        assert rep.nodes_explored == 1 << n
        assert [s.assignment for s in enumerate_optimal_set(bp)] == want

    def test_optimal_set_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(10):
            bp = random_binary_program(rng, max_n=7, max_rows=3)
            points = brute_feasible(bp)
            if not points:
                continue
            best = max(bp.objective_of(p) for p in points)
            want = [p for p in points if bp.objective_of(p) == best]
            got = [s.assignment for s in enumerate_optimal_set(bp)]
            assert got == want
            assert all(s.objective_value == best for s in enumerate_optimal_set(bp))

    def test_rational_objective(self):
        bp = BinaryProgram(
            [Fraction(2, 3), Fraction(1, 2)], [Constraint([1, 1], "<=", 1)]
        )
        rep = solve_enumerate(bp)
        assert rep.best.objective_value == Fraction(2, 3)
        assert rep.best.assignment == (1, 0)

    @pytest.mark.parametrize("k", [62, 64, 70])
    def test_huge_coefficients_match_brute_force(self, k):
        # 2^k + 2^k does not fit in int64, so the scan must not use it
        bp = BinaryProgram([1, 1], [Constraint([2**k, 2**k], "<=", 2**k)])
        assert enumerate_feasible(bp) == brute_feasible(bp) == [(0, 0), (0, 1), (1, 0)]
        rep = solve_enumerate(bp)
        assert is_feasible(bp, rep.best.assignment)
        assert rep.best.objective_value == solve_bnb(bp).best.objective_value == 1
        free = BinaryProgram([2**k, 2**k, -1], [])
        assert solve_enumerate(free).best.assignment == (1, 1, 0)
        assert [s.assignment for s in enumerate_optimal_set(free)] == [(1, 1, 0)]


class TestBranchAndBound:
    def test_agrees_on_handmade_models(self):
        models = [
            BinaryProgram([3, 3, 2], [Constraint([1, 1, 1], "<=", 2)]),
            BinaryProgram([1], [Constraint([1], ">=", 2)]),
            BinaryProgram([-1, -1], [Constraint([1, 1], ">=", 1)]),
            BinaryProgram([0, 0, 0], [Constraint([2, -3, 1], "=", -1)]),
        ]
        for bp in models:
            a, b = solve_bnb(bp), solve_enumerate(bp)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.best.objective_value == b.best.objective_value

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_on_random_models(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(25):
            bp = random_binary_program(rng, max_n=12, max_rows=6)
            a, b = solve_bnb(bp), solve_enumerate(bp)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.best.objective_value == b.best.objective_value
                assert is_feasible(bp, a.best.assignment)
                assert bp.objective_of(a.best.assignment) == a.best.objective_value

    def test_rational_rows(self):
        bp = BinaryProgram(
            [1, 1, 1],
            [Constraint([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], "<=", Fraction(1, 2))],
        )
        a, b = solve_bnb(bp), solve_enumerate(bp)
        assert a.best.objective_value == b.best.objective_value == 2

    def test_explores_fewer_nodes_than_scan(self):
        bp = BinaryProgram(list(range(1, 19)), [Constraint([1] * 18, "<=", 1)])
        rep = solve_bnb(bp)
        assert rep.best.objective_value == 18
        assert rep.nodes_explored < 2**18

    def test_deep_model(self):
        # the search keeps its own stack, so depth is not bounded by Python's
        # recursion limit: one path of 2000 ones, every 0 branch cut
        rep = solve_bnb(BinaryProgram([1] * 2000, []))
        assert rep.status == "optimal" and rep.best.assignment == (1,) * 2000
        assert rep.nodes_explored == 2001

    def test_forced_penalty_is_charged_before_its_column(self):
        # max -sum(z) over (x | z) with x_i <= z_i: every x_i = 1 forces its
        # z_i's -1 into the bound as soon as x_i is fixed, so x prefixes are
        # cut long before the z block; with the penalty charged only when
        # z_i is branched on, the search visits all 2^k x prefixes (20,464
        # nodes for k = 12), against 247 with it
        k = 12
        rows = [Constraint([int(j == i) - int(j == k + i) for j in range(2 * k)], "<=", 0) for i in range(k)]
        rep = solve_bnb(BinaryProgram([0] * k + [-1] * k, rows))
        assert rep.best.assignment == (0,) * (2 * k) and rep.best.objective_value == 0
        assert rep.nodes_explored < 1 << k
