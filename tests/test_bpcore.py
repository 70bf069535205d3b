import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from diamopt import bpcore, lop, tsp
from diamopt.bpcore import (
    POOL_LIMIT,
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
from diamopt.modelio import lp_string


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
        assert bp.constraints[0].label == "c1"

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

    @pytest.mark.parametrize("seed", range(4))
    def test_fraction_and_int_rows_are_one_model(self, seed):
        # integer values given as Fraction(k) are held as the ints k, so the
        # two spellings of a model scale, solve and print alike
        rng = random.Random(300 + seed)
        for _ in range(25):
            ints = random_binary_program(rng, max_n=10, max_rows=5)
            fracs = BinaryProgram(
                [Fraction(v) for v in ints.c],
                [Constraint(tuple(map(Fraction, r.coeffs)), r.sense, Fraction(r.rhs), r.label) for r in ints.constraints],
            )
            assert {type(v) for r in fracs.constraints for v in (*r.coeffs, r.rhs)} | set(map(type, fracs.c)) == {int}
            assert fracs.scaled() == ints.scaled()
            for slack in (-1, 3):
                assert solve_bnb(fracs, slack) == solve_bnb(ints, slack)
            assert lp_string(fracs)[0].encode() == lp_string(ints)[0].encode()

    def test_int_rows_make_no_fraction(self, monkeypatch):
        # the ordering and tour builders write int rows, and scaling them
        # creates no Fraction
        def refuse(cls, *args, **kw):
            raise AssertionError(f"Fraction{args} made")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        for bp in (lop.build(lop.LopInstance(5, {(1, 2): 3, (4, 1): -2})), tsp.build(tsp.TspInstance(6, {(1, 2): 5}))):
            c_int, rows, _ = bp.scaled()
            assert c_int is bp.c and all(a is con.coeffs for (a, _, _), con in zip(rows, bp.constraints))


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

    def test_forced_zero_is_charged_before_its_column(self):
        # max sum(z) over (x | z) with x_i + z_i <= 1: every x_i = 1 forces
        # z_i = 0 and takes its +1 out of the bound at once; charged only
        # when z_i is branched on, the search again visits all 2^k x
        # prefixes (20,464 nodes for k = 12), against 247
        k = 12
        rows = [Constraint([int(j in (i, k + i)) for j in range(2 * k)], "<=", 1) for i in range(k)]
        rep = solve_bnb(BinaryProgram([0] * k + [1] * k, rows))
        assert rep.best.assignment == (0,) * k + (1,) * k and rep.best.objective_value == k
        assert rep.nodes_explored < 1 << k


class TestForcedColumns:
    """A row's last column is forced once the row's other columns are
    fixed and only one of its values meets the row; a column forced both
    ways cuts the node."""

    @pytest.mark.parametrize("lead", [0, 11])
    def test_conflict_at_the_root(self, lead):
        # x_j = 1 and x_j = 0 after `lead` free columns: both rows decide
        # x_j at the root, so the search stops there (2^lead nodes and more
        # when the conflict waits for column j)
        n = lead + 1
        rows = [Constraint([int(j == lead) for j in range(n)], "=", v) for v in (1, 0)]
        bp = BinaryProgram([0] * n, rows)
        assert solve_enumerate(bp).status == "infeasible"
        for slack in (-1, 0):
            rep = solve_bnb(bp, slack=slack)
            assert (rep.status, rep.best, rep.nodes_explored, rep.pool) == ("infeasible", None, 1, None)

    def test_conflict_below_the_root(self):
        # x_1 + x_3 = 1 and x_2 + x_3 = 1: x_1 != x_2 forces x_3 both ways,
        # so those nodes are cut when x_2 is fixed (7 nodes, 9 when x_3 is
        # branched on there)
        rows = [Constraint([1, 0, 1], "=", 1), Constraint([0, 1, 1], "=", 1)]
        rep = solve_bnb(BinaryProgram([0, 0, 0], rows), slack=0)
        assert rep.pool == ((1, 1, 0), (0, 0, 1)) and rep.nodes_explored == 7

    @pytest.mark.parametrize("seed", range(4))
    def test_equality_heavy_models_match_brute_force(self, seed):
        # short = rows over a few columns force and conflict at many depths
        rng = random.Random(120 + seed)
        statuses = set()
        for _ in range(40):
            n = rng.randint(2, 10)
            c = [rng.randint(-5, 5) for _ in range(n)]
            rows = []
            for _ in range(rng.randint(1, 6)):
                cols = rng.sample(range(n), rng.randint(1, min(n, 4)))
                a = [rng.choice((-3, -2, -1, 1, 2, 3)) if j in cols else 0 for j in range(n)]
                lo, hi = sum(v for v in a if v < 0), sum(v for v in a if v > 0)
                rows.append(Constraint(a, rng.choice(("=", "=", "<=", ">=")), rng.randint(lo, hi)))
            bp = BinaryProgram(c, rows)
            c_int = bp.scaled()[0]
            value = {x: sum(ci for ci, xi in zip(c_int, x) if xi) for x in brute_feasible(bp)}
            enum = solve_enumerate(bp)
            statuses.add(enum.status)
            for slack in (-1, 0, 2):
                rep = solve_bnb(bp, slack=slack)
                assert rep.status == enum.status
                if not value:
                    assert rep.best is None and rep.pool is None
                    continue
                top = max(value.values())
                assert rep.best.assignment == max(x for x, v in value.items() if v == top)
                assert rep.best.objective_value == enum.best.objective_value
                if slack >= 0:
                    assert list(rep.pool) == sorted((x for x, v in value.items() if v >= top - slack), reverse=True)
        assert statuses == {"optimal", "infeasible"}


class TestPool:
    """solve_bnb with a slack: every feasible point within the slack of the
    optimum, on the scaled objective, in decreasing lexicographic order."""

    @pytest.mark.parametrize("slack", [0, 1, 5])
    def test_pool_is_the_near_optimal_set(self, slack):
        rng = random.Random(60 + slack)
        for _ in range(40):
            bp = random_binary_program(rng, max_n=9, max_rows=4)
            rep, plain = solve_bnb(bp, slack=slack), solve_bnb(bp)
            assert rep.status == plain.status and rep.best == plain.best
            if rep.status != "optimal":
                assert rep.pool is None
                continue
            c_int = bp.scaled()[0]
            value = {x: sum(ci for ci, xi in zip(c_int, x) if xi) for x in brute_feasible(bp)}
            top = max(value.values())
            assert list(rep.pool) == sorted((x for x, v in value.items() if v >= top - slack), reverse=True)
            assert plain.pool is None

    def test_a_pool_past_its_limit_is_dropped(self, monkeypatch):
        bp = BinaryProgram([0] * 4, [])  # 16 optimal points
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 16)
        assert len(solve_bnb(bp, slack=0).pool) == 16
        monkeypatch.setattr(bpcore, "POOL_LIMIT", 15)
        rep = solve_bnb(bp, slack=0)
        assert rep.pool is None and rep.best.assignment == (1, 1, 1, 1)

    @pytest.mark.parametrize("limit", [1, 3, 8])
    def test_the_search_goes_on_past_the_limit(self, limit, monkeypatch):
        # after the pool is dropped the search still finds the largest optimum
        monkeypatch.setattr(bpcore, "POOL_LIMIT", limit)
        rng = random.Random(67)
        for _ in range(60):
            bp = random_binary_program(rng, max_n=9, max_rows=3)
            rep = solve_bnb(bp, slack=4)
            assert rep.best == solve_bnb(bp).best
            assert rep.pool is None or len(rep.pool) <= limit

    def test_zero_objective_past_the_limit_is_fast(self):
        # 2^60 optimal points: the pool stops at its limit, not at 2^60
        rep = solve_bnb(BinaryProgram([0] * 60, []), slack=0)
        assert rep.pool is None and rep.best.assignment == (1,) * 60
        assert rep.nodes_explored < 4 * POOL_LIMIT


def cardinality_program(rng):
    """Small seeded model mixing rows solve_bnb bounds by cardinality with
    random rows: pick-one rows, two = rows sharing a column (degree-like), a
    row with t = 2, a rational row that scales to integers, and a row whose
    last column is covered and costs less than 0."""
    n = rng.randint(5, 10)
    c = [rng.randint(-5, 5) for _ in range(n)]

    def row(cols, coeff=1):
        return [coeff if j in cols else 0 for j in range(n)]

    rows = []
    perm = rng.sample(range(n), n)
    for i, j in zip(perm[::2], perm[1::2]):
        if rng.random() < 0.5:
            rows.append(Constraint(row({i, j}), "=", 1))
    if rng.random() < 0.7:
        s = rng.sample(range(n), 5)
        rows.append(Constraint(row(s[:3]), "=", rng.randint(1, 2)))
        rows.append(Constraint(row(s[2:]), "=", rng.randint(1, 2)))
    if rng.random() < 0.5:
        rows.append(Constraint(row(rng.sample(range(n), 3), 2), "=", 4))
    if rng.random() < 0.5:
        cols = rng.sample(range(n), 4)
        rows.append(Constraint(row(cols, Fraction(1, 3)), "=", Fraction(rng.randint(1, 3), 3)))
    if rng.random() < 0.7:
        # j is in a cardinality row and ends a <= row, so the <= row can
        # force x_j while its negative cost is read from its shares
        j = rng.randrange(2, n)
        rows.append(Constraint(row({j, rng.randrange(j)}), "=", 1))
        c[j] = -rng.randint(1, 5)
        a = [rng.randint(-3, 3) if k < j else 0 for k in range(n)]
        a[j] = rng.choice((-2, -1, 1, 2))
        lo, hi = sum(v for v in a if v < 0), sum(v for v in a if v > 0)
        rows.append(Constraint(a, "<=", rng.randint(lo, hi)))
    if rng.random() < 0.5:
        a = [rng.randint(-4, 4) for _ in range(n)]
        lo, hi = sum(v for v in a if v < 0), sum(v for v in a if v > 0)
        rows.append(Constraint(a, rng.choice(("<=", ">=")), rng.randint(lo, hi)))
    return BinaryProgram(c, rows)


class TestCardinalityBound:
    """solve_bnb's bound over = rows with one coefficient t: exactly b/t of
    a row's free columns are 1, so its free columns' value is at most the
    sum of that many largest shares."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pool_and_best_match_brute_force(self, seed):
        rng = random.Random(80 + seed)
        engaged = 0
        for _ in range(30):
            bp = cardinality_program(rng)
            c_int, rows, _ = bp.scaled()
            engaged += bool(bpcore._cardinality_rows(c_int, rows))
            value = {x: sum(ci for ci, xi in zip(c_int, x) if xi) for x in brute_feasible(bp)}
            enum = solve_enumerate(bp)
            for slack in (-1, 0, 3):
                rep = solve_bnb(bp, slack=slack)
                assert rep.status == enum.status
                if not value:
                    assert rep.best is None and rep.pool is None
                    continue
                top = max(value.values())
                assert rep.best.objective_value == enum.best.objective_value
                assert rep.best.assignment == max(x for x, v in value.items() if v == top)
                if slack >= 0:
                    assert list(rep.pool) == sorted((x for x, v in value.items() if v >= top - slack), reverse=True)
        assert engaged >= 20

    def test_ordering_bound(self):
        # a pick-one row per pair: every node's bound is its prefix plus
        # max(w_ij, w_ji) over the pairs left, so once the first leaf is in
        # only better prefixes are extended: 807 nodes, 8,007,355 without
        # the rows in the bound
        rng = random.Random(5)
        pairs = list(itertools.combinations(range(8), 2))
        c = [rng.randint(1, 9) for _ in range(2 * len(pairs))]
        rows = [Constraint([int(j in (2 * k, 2 * k + 1)) for j in range(len(c))], "=", 1) for k in range(len(pairs))]
        rep = solve_bnb(BinaryProgram(c, rows))
        assert rep.best.objective_value == sum(max(c[2 * k], c[2 * k + 1]) for k in range(len(pairs)))
        assert rep.nodes_explored < 1_000

    def test_zero_cost_rows_are_left_out(self):
        bp = tsp.build(tsp.TspInstance.zero(7))
        assert bpcore._cardinality_rows(*bp.scaled()[:2]) == []
        # the node counts of the search without the bound
        assert [solve_bnb(bp, slack=s).nodes_explored for s in (-1, 0)] == [22, 3800]

    def test_a_row_past_the_table_limit_is_left_out(self, monkeypatch):
        bp = BinaryProgram([3, 1, 2, 5], [Constraint([1, 1, 1, 1], "=", 2)])
        assert bpcore._cardinality_rows(*bp.scaled()[:2]) == [(0, 1, [0, 1, 2, 3])]
        monkeypatch.setattr(bpcore, "CARD_TABLE_LIMIT", 11)  # 4 columns x 3 entries
        assert bpcore._cardinality_rows(*bp.scaled()[:2]) == []
        assert solve_bnb(bp).best.assignment == (1, 0, 0, 1)
