"""End-to-end acceptance checks.

Each test is one named claim about the library, printed as a single PASS
line on success.  Expected values are frozen from independent enumeration
(raw 0/1 scans, straight itertools/bitmask oracles); nothing here trusts
the code path it is checking.

Run with -v for one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from diamopt import lop, tsp
from diamopt.bpcore import (
    Constraint,
    is_feasible,
    random_binary_program,
    solve_bnb,
    solve_enumerate,
    enumerate_optimal_set,
)
from diamopt.diameter import (
    build as build_diameter,
    choose_epsilon,
    diameter_by_enumeration,
    solve_diameter,
)
from diamopt.polytope import (
    EquationSystem,
    check_inequality,
    enumerate_points,
    facet_families,
    lift_equation_system,
    verify_minimal_system,
)


def _ok(msg):
    print(f"PASS  {msg}")


def lop_points(n):
    base = [lop.perm_to_incidence(p) for p in lop.all_permutations(n)]
    return enumerate_points(lop.build(lop.LopInstance.zero(n)), base_points=base)


def tsp_points(n):
    base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(n)]
    return enumerate_points(tsp.build(tsp.TspInstance.zero(n)), base_points=base)


def test_c01_ordering_hull_dimensions():
    t0 = time.monotonic()
    ps2 = lop_points(2)
    assert ps2.count == 12
    assert ps2.hull_dimension() == 4
    ps3 = lop_points(3)
    assert ps3.count == 1008
    assert ps3.hull_dimension() == 12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(f"criterion 1: ordering hull dimensions n=2 -> 4, n=3 -> 12 ({elapsed:.2f}s)")


def test_c01b_ordering_hull_dimension_n4():
    ps4 = lop_points(4)
    assert ps4.count == 483840
    assert ps4.hull_dimension() == 24
    _ok("criterion 1: ordering n=4 -> 483840 points, dimension 24")


def test_c02_tour_hull_dimensions():
    t0 = time.monotonic()
    ps4 = tsp_points(4)
    assert ps4.count == 108
    assert ps4.hull_dimension() == 10
    ps5 = tsp_points(5)
    assert ps5.count == 35712
    assert ps5.hull_dimension() == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(f"criterion 2: tour hull dimensions n=4 -> 10, n=5 -> 20 ({elapsed:.2f}s)")


def test_c03_minimal_equation_systems():
    for n in (2, 3):
        system = lift_equation_system(EquationSystem(*lop.pick_one_system(n)))
        assert verify_minimal_system(lop_points(n), system)
    for n in (4, 5):
        system = lift_equation_system(EquationSystem(*tsp.degree_system(n)))
        assert verify_minimal_system(tsp_points(n), system)
    _ok("criterion 3: lifted equation systems are minimal (ordering n=2,3; tour n=4,5)")


def test_c04_facet_families_certified():
    t0 = time.monotonic()
    ps3 = lop_points(3)
    fams3 = facet_families(6, lop.base_facets(3))
    assert len(fams3) == 34
    for q in fams3:
        assert check_inequality(ps3, q).is_facet, q.label
    ps5 = tsp_points(5)
    fams5 = facet_families(10, tsp.base_facets(5))
    assert len(fams5) == 90
    for q in fams5:
        assert check_inequality(ps5, q).is_facet, q.label
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(f"criterion 4: all 34 + 90 facet families certified ({elapsed:.1f}s)")


def test_c05_extra_tour_inequalities_are_facets():
    es = tsp.edges(4)
    ix = {e: k for k, e in enumerate(es)}
    m = len(es)

    def mixed(zedge, label):
        a = [Fraction(0)] * (3 * m)
        a[ix[(1, 2)]] += 1
        a[ix[(1, 3)]] += 1
        a[m + ix[(1, 2)]] += 1
        a[m + ix[(2, 4)]] += 1
        a[2 * m + ix[zedge]] += 1
        return Constraint(tuple(a), ">=", Fraction(3), label)

    ps4 = tsp_points(4)
    for q in (mixed((2, 3), "mixed_z_2_3"), mixed((1, 4), "mixed_z_1_4")):
        r = check_inequality(ps4, q)
        assert r.valid, q.label
        assert r.is_facet, q.label
        assert r.face_dimension == 9
    _ok("criterion 5: both mixed x/y/z tour inequalities at n=4 are valid facets")


def test_c06_epsilon_rule_never_disturbs_optimality():
    rng = random.Random(20240601)
    done = failures = 0
    while done < 50:
        bp = random_binary_program(rng, max_n=10, max_rows=6)
        if solve_bnb(bp).status != "optimal":
            continue
        done += 1
        eps = choose_epsilon(bp)
        assert eps == Fraction(1, 2 * bp.n)  # integer data
        res = solve_diameter(build_diameter(bp, eps, "full"))
        opt = {s.assignment for s in enumerate_optimal_set(bp)}
        if (
            res.x_star not in opt
            or res.y_star not in opt
            or res.diameter != diameter_by_enumeration(bp)
        ):
            failures += 1
    assert failures == 0
    _ok("criterion 6: 50 random models, 1/(2n) penalty, halves optimal and distance exact")


def test_c07_ordering_diameter_equals_kendall():
    rng = random.Random(424242)
    for _ in range(20):
        weights = {pair: Fraction(rng.randint(-4, 4)) for pair in lop.ordered_pairs(4)}
        assert lop.verify_diameter_kendall(lop.LopInstance(4, weights))
    _ok("criterion 7: 20 random orderings n=4, diameter = 2 * max Kendall tau")


def test_c08_tour_diameter_equals_discordance():
    rng = random.Random(515151)
    for k in range(20):
        n = 5 if k % 2 == 0 else 6
        costs = {e: Fraction(rng.randint(1, 6)) for e in tsp.edges(n)}
        assert tsp.verify_diameter_discordant(tsp.TspInstance(n, costs))
    _ok("criterion 8: 20 random tours n=5,6, diameter = 2 * max discordant edges")


def test_c09_disjoint_tour_construction():
    for t in tsp.all_tours(4):
        assert tsp.find_disjoint_tour(t) is None
    for t in tsp.all_tours(5):
        other = tsp.find_disjoint_tour(t)
        assert other is not None
        assert not (set(tsp.tour_edges(t)) & set(tsp.tour_edges(other)))
    rng = random.Random(99)
    for n in (6, 7):
        for _ in range(20):
            rest = list(range(2, n + 1))
            rng.shuffle(rest)
            t = tsp.canonical_tour((1, *rest))
            other = tsp.find_disjoint_tour(t)
            assert other is not None
            assert not (set(tsp.tour_edges(t)) & set(tsp.tour_edges(other)))
    _ok("criterion 9: edge-disjoint second tours (none at n=4, found at n=5,6,7)")


def test_c10_facets_lift_from_n2_to_n3():
    ps2, ps3 = lop_points(2), lop_points(3)
    fams = facet_families(2, lop.base_facets(2))
    assert len(fams) == 10
    for q in fams:
        assert check_inequality(ps2, q).is_facet, q.label
        assert check_inequality(ps3, lop.lift_inequality(q, 2)).is_facet, q.label
    _ok("criterion 10: all 10 paired ordering facets at n=2 lift to facets at n=3")


def test_c11_solvers_agree():
    rng = random.Random(314159)
    for _ in range(100):
        bp = random_binary_program(rng, max_n=12, max_rows=6)
        a, b = solve_bnb(bp), solve_enumerate(bp)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.best.objective_value == b.best.objective_value
            assert is_feasible(bp, a.best.assignment)
    _ok("criterion 11: branch-and-bound agrees with exhaustive scan on 100 random models")
