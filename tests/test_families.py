"""Each front end solves exactly the rows it certifies, the paired program
solves exactly the coupling rows and lifted systems that are certified, and
the CLI looks families up without listing base points it does not use."""

import itertools

import pytest

from diamopt import lop, tsp
from diamopt.bpcore import Constraint
from diamopt.cli import main
from diamopt.diameter import build as build_diameter
from diamopt.polytope import EquationSystem, facet_families, lift_equation_system


@pytest.mark.parametrize("n", [3, 4])
def test_ordering_model_rows_are_the_certified_rows(n):
    rows, rhs = lop.pick_one_system(n)
    names = [f"pick_{i}_{j}" for i, j in itertools.combinations(range(1, n + 1), 2)]
    want = [Constraint(a, "=", b, name) for a, b, name in zip(rows, rhs, names)]
    want += lop.dicycle_facets(n)
    assert list(lop.build(lop.LopInstance.zero(n)).constraints) == want


@pytest.mark.parametrize("n", [4, 5])
def test_tour_model_rows_are_the_certified_rows(n):
    rows, rhs = tsp.degree_system(n)
    want = [Constraint(a, "=", b, f"deg_{v}") for v, (a, b) in enumerate(zip(rows, rhs), start=1)]
    want += tsp.subtour_facets(n, range(2, n))
    assert list(tsp.build(tsp.TspInstance.zero(n)).constraints) == want


PAIRED_CASES = [
    (lop, lop.LopInstance.zero, lop.pick_one_system, 3),
    (lop, lop.LopInstance.zero, lop.pick_one_system, 4),
    (tsp, tsp.TspInstance.zero, tsp.degree_system, 4),
    (tsp, tsp.TspInstance.zero, tsp.degree_system, 5),
]
PAIRED_IDS = ["ordering3", "ordering4", "tour4", "tour5"]


def _solved_rows(module, zero, n):
    base = module.build(zero(n))
    return base.n, build_diameter(base, None, "conjugate").derived.constraints


@pytest.mark.parametrize("module, zero, system, n", PAIRED_CASES, ids=PAIRED_IDS)
def test_certified_couplings_are_the_solved_couplings(module, zero, system, n):
    width, rows = _solved_rows(module, zero, n)
    certified = [(q.coeffs, q.sense, q.rhs) for q in facet_families(width, module.base_facets(n)) if q.label.startswith("pair_ub_")]
    solved = [(c.coeffs, c.sense, c.rhs) for c in rows if c.label.startswith("pair_ub_")]
    assert len(solved) == width
    assert certified == solved


@pytest.mark.parametrize("module, zero, system, n", PAIRED_CASES, ids=PAIRED_IDS)
def test_lifted_system_is_the_solved_equations(module, zero, system, n):
    _, rows = _solved_rows(module, zero, n)
    lifted = lift_equation_system(EquationSystem(*system(n)))
    equations = [c for c in rows if c.sense == "="]
    assert [c.coeffs for c in equations] == list(lifted.matrix.rows)
    assert [c.rhs for c in equations] == list(lifted.rhs)


class NoListing(Exception):
    pass


def _refuse(n):
    raise NoListing(f"listed the base points of n={n}")


@pytest.fixture
def tours_unlisted(monkeypatch):
    monkeypatch.setattr(tsp, "all_tours", _refuse)


@pytest.fixture
def orderings_unlisted(monkeypatch):
    monkeypatch.setattr(lop, "all_permutations", _refuse)


def test_diameter_lists_no_base_points(tours_unlisted, capsys):
    assert main(["diameter", "--problem", "tsp", "--n", "5"]) == 0
    assert "diameter: 10" in capsys.readouterr().out


def test_cap_refuses_before_listing_base_points(tours_unlisted, capsys):
    assert main(["dim", "--problem", "tsp", "--n", "11"]) == 4
    assert "cap exceeded" in capsys.readouterr().err


def _cap_refuses_after_few_points(monkeypatch, capsys, module, to_incidence, argv):
    # 2,000,000 points are refused once isqrt(2,000,000) + 1 = 1,415 base
    # points are read, with no list of them all made first
    calls = 0
    real = getattr(module, to_incidence)

    def counted(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(module, to_incidence, counted)
    assert main(argv) == 4
    assert "cap exceeded" in capsys.readouterr().err
    assert calls <= 1415


def test_cap_refuses_after_few_tours(tours_unlisted, monkeypatch, capsys):
    _cap_refuses_after_few_points(monkeypatch, capsys, tsp, "tour_to_incidence", ["dim", "--problem", "tsp", "--n", "10"])


def test_cap_refuses_after_few_orderings(orderings_unlisted, monkeypatch, capsys):
    # 12! = 479,001,600 orderings: listing them all first would exhaust memory
    _cap_refuses_after_few_points(monkeypatch, capsys, lop, "perm_to_incidence", ["dim", "--problem", "lop", "--n", "12"])


@pytest.mark.parametrize("n", range(2, 7))
def test_ordering_base_points_are_the_listing(n):
    assert list(lop.base_points(n)) == [lop.perm_to_incidence(p) for p in lop.all_permutations(n)]


@pytest.mark.parametrize("n", range(3, 8))
def test_tour_base_points_are_the_listing(n):
    assert list(tsp.base_points(n)) == [tsp.tour_to_incidence(t) for t in tsp.all_tours(n)]
