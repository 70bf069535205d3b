import itertools
import random
from fractions import Fraction

import pytest

from diamopt.bpcore import (
    BinaryProgram,
    Constraint,
    default_enum_cap,
    enumerate_feasible,
    enumerate_optimal_set,
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

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("DIAMOPT_ENUM_CAP", "4")
        assert default_enum_cap() == 4
        bp = BinaryProgram([0] * 5, [])
        with pytest.raises(CapExceededError):
            solve_enumerate(bp)

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_set_matches_brute_force(self, seed):
        rng = random.Random(seed)
        bp = random_binary_program(rng, max_n=8, max_rows=4)
        assert enumerate_feasible(bp) == brute_feasible(bp)

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
