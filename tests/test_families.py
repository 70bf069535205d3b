"""Each front end solves exactly the rows it certifies, and the CLI looks
families up without listing base points it does not use."""

import itertools

import pytest

from diamopt import lop, tsp
from diamopt.bpcore import Constraint
from diamopt.cli import main


def _as_constraints(facets):
    return [Constraint(f.a, f.sense, f.a0, f.label) for f in facets]


@pytest.mark.parametrize("n", [3, 4])
def test_ordering_model_rows_are_the_certified_rows(n):
    rows, rhs = lop.pick_one_system(n)
    names = [f"pick_{i}_{j}" for i, j in itertools.combinations(range(1, n + 1), 2)]
    want = [Constraint(a, "=", b, name) for a, b, name in zip(rows, rhs, names)]
    want += _as_constraints(lop.dicycle_facets(n))
    assert list(lop.build(lop.LopInstance.zero(n)).constraints) == want


@pytest.mark.parametrize("n", [4, 5])
def test_tour_model_rows_are_the_certified_rows(n):
    rows, rhs = tsp.degree_system(n)
    want = [Constraint(a, "=", b, f"deg_{v}") for v, (a, b) in enumerate(zip(rows, rhs), start=1)]
    want += _as_constraints(tsp.subtour_facets(n, range(2, n)))
    assert list(tsp.build(tsp.TspInstance.zero(n)).constraints) == want


class NoListing(Exception):
    pass


@pytest.fixture
def tours_unlisted(monkeypatch):
    def refuse(n):
        raise NoListing(f"listed the tours of n={n}")

    monkeypatch.setattr(tsp, "all_tours", refuse)


def test_diameter_lists_no_base_points(tours_unlisted, capsys):
    assert main(["diameter", "--problem", "tsp", "--n", "5"]) == 0
    assert "diameter: 10" in capsys.readouterr().out


def test_cap_refuses_before_listing_base_points(tours_unlisted, capsys):
    assert main(["dim", "--problem", "tsp", "--n", "11"]) == 4
    assert "cap exceeded" in capsys.readouterr().err
