"""Named verification suites, and the table of model families they share
with the CLI.

Each suite returns a list of claim records: plain dicts with a "claim"
string, an "ok" bool, and enough numbers to see what was computed against
what was expected.  The CLI renders them; the acceptance tests assert on
them.  Expected values are frozen here from independent enumeration, not
read off any solver output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

from . import lop, tsp
from .bpcore import Constraint, enumerate_optimal_set, random_binary_program, solve_bnb
from .diameter import (
    build as build_diameter,
    choose_epsilon,
    diameter_by_enumeration,
    paired,
    solve_diameter,
)
from .modelio import PairWeights
from .polytope import (
    EquationSystem,
    check_disjoint_pair_condition,
    check_inequality,
    enumerate_points,
    facet_families,
    lift_equation_system,
    verify_minimal_system,
)


@dataclass(frozen=True)
class Family:
    """One front end, as the CLI and the suites use it.

    `module.build(instance)` and `module.base_points(n)` are looked up on
    the module at each call, so a wrapper installed on the module attribute
    sees every call.  The norm every feasible point shares is not listed:
    solve_diameter reads it off the model's = rows.
    """

    module: ModuleType
    instance: type[PairWeights]  # its zero(n) and load(path) make the instance
    decode: Callable  # (incidence vector, n) -> ranking or tour
    pair_key: str  # JSON field of the decoded pair
    pair_label: str  # text prefix of each decoded half
    sep: str  # joins a decoded half in text


FAMILIES = {
    "lop": Family(lop, lop.LopInstance, lop.incidence_to_perm, "permutations", "ranks", " "),
    "tsp": Family(tsp, tsp.TspInstance, tsp.incidence_to_tour, "tours", "tour", "-"),
}

# hull dimensions and point counts pinned by independent scans: raw 0/1
# enumeration against the constraint rows for the small cases, structured
# pair generation cross-checked against those scans for the rest
LOP_EXPECTED = {2: {"dim": 4, "points": 12}, 3: {"dim": 12, "points": 1008}, 4: {"dim": 24, "points": 483840}}
TSP_EXPECTED = {4: {"dim": 10, "points": 108}, 5: {"dim": 20, "points": 35712}}


def _paired_points(family: Family, n: int):
    """Paired-copy point set of the family's size-n model."""
    return enumerate_points(family.module.build(family.instance.zero(n)), base_points=family.module.base_points(n))


def _lop_points(n: int):
    return _paired_points(FAMILIES["lop"], n)


def _tsp_points(n: int):
    return _paired_points(FAMILIES["tsp"], n)


def suite_dimensions() -> list[dict]:
    cases = [("ordering", n, _lop_points, LOP_EXPECTED, "pick-one", lop.pick_one_system) for n in (2, 3, 4)]
    cases += [("tour", n, _tsp_points, TSP_EXPECTED, "degree", tsp.degree_system) for n in (4, 5)]
    records = []
    for title, n, points, expected, system_name, system in cases:
        ps = points(n)
        checks = [
            ("point count", expected[n]["points"], ps.count),
            ("hull dimension", expected[n]["dim"], ps.hull_dimension()),
        ]
        minimal = verify_minimal_system(ps, lift_equation_system(EquationSystem(*system(n))))
        checks.append((f"lifted {system_name} system is minimal", True, minimal))
        for what, want, got in checks:
            claim = f"{title} n={n}: {what}"
            records.append({"claim": claim, "expected": want, "computed": got, "ok": got == want})
    return records


def _extra_tour4_inequalities():
    """Two mixed rows on tour n=4: x on edges 12, 13, y on 12, 24, and one z."""

    def edge_vector(*es):
        a = [0] * 6
        for i, j in es:
            a[tsp.edge_index(i, j, 4)] += 1
        return a

    x, y = edge_vector((1, 2), (1, 3)), edge_vector((1, 2), (2, 4))
    return [
        Constraint(paired(6, x, y, edge_vector((i, j))), ">=", 3, f"mixed_z_{i}_{j}")
        for i, j in ((2, 3), (1, 4))
    ]


def _facet_records(title: str, ps, inequalities) -> list[dict]:
    records = []
    for q in inequalities:
        r = check_inequality(ps, q)
        records.append(
            {
                "claim": f"{title}: {q.label}",
                "valid": r.valid,
                "face_dimension": r.face_dimension,
                "polytope_dimension": r.polytope_dimension,
                "ok": r.is_facet,
            }
        )
    return records


def suite_facets() -> list[dict]:
    records = _facet_records("ordering n=3 facet", _lop_points(3), facet_families(6, lop.base_facets(3)))
    records += _facet_records("tour n=5 facet", _tsp_points(5), facet_families(10, tsp.base_facets(5)))
    records += _facet_records("tour n=4 extra facet", _tsp_points(4), _extra_tour4_inequalities())
    conditions = [
        ("ordering n=3", lop.build(lop.LopInstance.zero(3)), True, True),
        ("tour n=4", tsp.build(tsp.TspInstance.zero(4)), False, False),
        ("tour n=5", tsp.build(tsp.TspInstance.zero(5)), True, True),
    ]
    for label, bp, want_exist, want_univ in conditions:
        rep = check_disjoint_pair_condition(bp)
        ok = rep.existential == want_exist and rep.universal == want_univ
        records.append(
            {
                "claim": f"{label}: disjoint-support conditions",
                "existential": rep.existential,
                "universal": rep.universal,
                "expected": [want_exist, want_univ],
                "ok": ok,
            }
        )
    return records


def suite_epsilon(trials: int = 50, seed: int = 1729) -> list[dict]:
    """Random integer models: the 1/(2n) penalty never disturbs optimality.

    Each trial solves the full-variant program and checks both halves
    against the enumerated optimal set and the distance against the
    enumerated diameter.
    """
    rng = random.Random(seed)
    records = []
    made = 0
    while made < trials:
        bp = random_binary_program(rng, max_n=10, max_rows=6)
        if solve_bnb(bp).status != "optimal":
            continue
        made += 1
        eps = choose_epsilon(bp)
        dp = build_diameter(bp, eps, "full")
        res = solve_diameter(dp)
        opt = {s.assignment for s in enumerate_optimal_set(bp)}
        oracle = diameter_by_enumeration(bp)
        ok = res.x_star in opt and res.y_star in opt and res.diameter == oracle
        records.append(
            {
                "claim": f"epsilon trial {made}: n={bp.n}, rows={len(bp.constraints)}",
                "epsilon": f"{eps.numerator}/{eps.denominator}",
                "diameter": res.diameter,
                "enumerated": oracle,
                "halves_optimal": res.x_star in opt and res.y_star in opt,
                "ok": ok,
            }
        )
    return records


def suite_lifting() -> list[dict]:
    records = []
    cache = {}
    for n, m in ((2, 3), (3, 4)):
        for k in (n, m):
            if k not in cache:
                cache[k] = _lop_points(k)
        small, big = cache[n], cache[m]
        for q in facet_families(n * (n - 1), lop.base_facets(n)):
            before = check_inequality(small, q)
            after = check_inequality(big, lop.lift_inequality(q, n))
            ok = before.is_facet and after.is_facet
            records.append(
                {
                    "claim": f"ordering facet lifts {n}->{m}: {q.label}",
                    "facet_before": before.is_facet,
                    "facet_after": after.is_facet,
                    "ok": ok,
                }
            )
    return records


SUITES = {
    "dimensions": suite_dimensions,
    "facets": suite_facets,
    "epsilon": suite_epsilon,
    "lifting": suite_lifting,
}


def run_suite(name: str, trials: int = 50, seed: int = 1729) -> list[dict]:
    """Run one suite; trials and seed are the epsilon suite's."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name == "epsilon":
        return suite_epsilon(trials, seed)
    return SUITES[name]()
