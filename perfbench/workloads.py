"""The benchmark's workloads.

A workload has three parts:

    inputs(seed)        set-up: everything the seed decides
    run(inp, item)      one timed pass, making the calls the matching
                        ``diamopt`` CLI command makes; ``item(label, fn, *args)``
                        times one item and returns ``fn(*args)``
    check(inp, out)     oracle verdicts [(item id, ok)], run after the pass
                        and outside its timed region

Passes call the library through module attributes (``polytope.check_inequality``)
or through ``suites`` helpers, whose imported names the tracer also wraps, so
that the tracer's wrappers see every call.  Each pass rebuilds its models and
point sets, because a CLI user pays for them on every call; reusing them would
turn ``PointSet._hull_dim`` and ``BinaryProgram._scaled`` into cache hits.
"""

from __future__ import annotations

import itertools
import random

from diamopt import bpcore, diameter, lop, modelio, polytope, suites, tsp

# diverse-pairs instance seeds.  Node counts differ by 100x between random
# instances, so the instances are fixed and --seed only shuffles their order.
# Of instance seeds 0-11 of each family, these are the three whose node count
# was nearest the median of the twelve when the benchmark was defined (ordering
# 0.45-0.62 M nodes, tour 0.11-0.17 M), so the item median sits among solves of
# similar cost and a pass takes 10-14 s on a 2-vCPU x86 VM.
PAIRS_LOP_SEEDS = (1, 5, 9)
PAIRS_TSP_SEEDS = (1, 2, 3)

# Two seeded raw LP models per pass take the path of ``diamopt diameter
# --problem raw``: parse, then the default cross-check, a 2^(3n) exhaustive
# scan, so the parser and the scan stay measured.  With n=7 a model costs about
# as much as one instance solve, so the item median stays among solves of
# similar cost.  The scan stops a block early once no assignment in it is left
# feasible; rows are loose (the right-hand side within 2 of the row's extreme)
# so that exit rarely fires and a model's cost depends on n alone.  Rows are
# inequalities only, because the LP writer splits an equality into two rows.
RAW_MODELS = 2
RAW_N = 7
RAW_ROWS = 3


# ---------------------------------------------------------------- certify-facets


def facets_inputs(seed):
    return {"seed": seed}


def facets_run(inp, item):
    """``diamopt verify facets``: 126 facet certificates and 3 disjoint checks."""
    sets = {"ordering n=3": suites._lop_points(3), "tour n=5": suites._tsp_points(5), "tour n=4": suites._tsp_points(4)}
    dims = {key: ps.hull_dimension() for key, ps in sets.items()}
    work = [("ordering n=3", q) for q in polytope.facet_families(6, lop.base_facets(3))]
    work += [("tour n=5", q) for q in polytope.facet_families(10, tsp.base_facets(5))]
    work += [("tour n=4", q) for q in suites._extra_tour4_inequalities()]
    random.Random(inp["seed"]).shuffle(work)
    reports = []
    for key, q in work:
        label = f"{key}: {q.label}"
        reports.append((label, item(label, polytope.check_inequality, sets[key], q)))
    models = {
        "ordering n=3": lop.build(lop.LopInstance.zero(3)),
        "tour n=4": tsp.build(tsp.TspInstance.zero(4)),
        "tour n=5": tsp.build(tsp.TspInstance.zero(5)),
    }
    disjoint = {k: item(f"{k}: disjoint", polytope.check_disjoint_pair_condition, bp) for k, bp in models.items()}
    counts = {key: ps.count for key, ps in sets.items()}
    return {"counts": counts, "dims": dims, "reports": reports, "disjoint": disjoint}


def _family(key):
    family, n = key.split(" n=")
    return family, int(n)


def _expected(key):
    family, n = _family(key)
    return (suites.LOP_EXPECTED if family == "ordering" else suites.TSP_EXPECTED)[n]


def _disjoint_by_brute_force(key):
    """(existential, universal) support-disjointness over the listed orderings
    or tours, not over the model's enumerated feasible set."""
    family, n = _family(key)
    if family == "ordering":
        points = [lop.perm_to_incidence(p) for p in lop.all_permutations(n)]
    else:
        points = [tsp.tour_to_incidence(t) for t in tsp.all_tours(n)]
    supports = [{i for i, v in enumerate(p) if v} for p in points]
    partnered = [any(not (s & t) for t in supports) for s in supports]
    return any(partnered), all(partnered)


def facets_check(inp, out):
    verdicts = []
    for key, count in out["counts"].items():
        exp = _expected(key)
        verdicts.append((f"{key}: points", count == exp["points"]))
        verdicts.append((f"{key}: dimension", out["dims"][key] == exp["dim"]))
    verdicts += [(label, r.valid and r.is_facet) for label, r in out["reports"]]
    for key, rep in out["disjoint"].items():
        verdicts.append((f"{key}: disjoint", (rep.existential, rep.universal) == _disjoint_by_brute_force(key)))
    return verdicts


# ---------------------------------------------------------------- hull-ordering4


def hull_inputs(seed):
    return {"seed": seed}


def _hull_ordering4():
    """``diamopt dim --problem lop --n 4`` plus the lifted pick-one minimality check."""
    ps = suites._lop_points(4)
    dim = ps.hull_dimension()
    system = polytope.lift_equation_system(polytope.EquationSystem(*lop.pick_one_system(4)))
    return {"points": ps.count, "dim": dim, "minimal": polytope.verify_minimal_system(ps, system)}


def hull_run(inp, item):
    return item("ordering n=4", _hull_ordering4)


def hull_check(inp, out):
    exp = suites.LOP_EXPECTED[4]
    return [
        ("ordering n=4: points", out["points"] == exp["points"]),
        ("ordering n=4: dimension", out["dim"] == exp["dim"]),
        ("ordering n=4: pick-one system minimal", out["minimal"] is True),
    ]


# ---------------------------------------------------------------- diverse-pairs


def _raw_model(rng, n):
    """A random integer model with loose rows, feasible by construction:
    every row holds at a hidden 0/1 point."""
    hidden = [rng.randint(0, 1) for _ in range(n)]
    c = [rng.randint(-5, 5) for _ in range(n)]
    rows = []
    for _ in range(RAW_ROWS):
        a = [rng.randint(-4, 4) for _ in range(n)]
        at = sum(ai for ai, xi in zip(a, hidden) if xi)
        if rng.random() < 0.5:
            rows.append((a, "<=", max(at, sum(v for v in a if v > 0) - rng.randint(0, 2))))
        else:
            rows.append((a, ">=", min(at, sum(v for v in a if v < 0) + rng.randint(0, 2))))
    return bpcore.BinaryProgram(c, rows)


def pairs_inputs(seed):
    items = []
    for s in PAIRS_LOP_SEEDS:
        rng = random.Random(s)
        items.append(("lop", f"lop seed {s}", {p: rng.randint(-4, 4) for p in lop.ordered_pairs(6)}))
    for s in PAIRS_TSP_SEEDS:
        rng = random.Random(s)
        items.append(("tsp", f"tsp seed {s}", {e: rng.randint(1, 6) for e in tsp.edges(7)}))
    rng = random.Random(seed)
    for k in range(RAW_MODELS):
        bp = _raw_model(rng, RAW_N)
        items.append(("raw", f"raw model {k}", (bp, modelio.lp_string(bp)[0])))
    rng.shuffle(items)
    return {"items": items}


def _diameter_full(family, weights):
    """``diamopt diameter --problem lop|tsp --variant full`` on one instance."""
    if family == "lop":
        bp = lop.build(lop.LopInstance(6, weights))
    else:
        bp = tsp.build(tsp.TspInstance(7, weights))
    dp = diameter.build(bp, None, "full")
    return diameter.solve_diameter(dp, constant_norm=None, cap=None)


def _diameter_raw(text):
    """``diamopt diameter --problem raw --instance model.lp``: parse, full variant,
    default cross-check against the exhaustive scan."""
    bp = modelio.parse_lp(text)
    dp = diameter.build(bp, None, "full")
    return diameter.solve_diameter(dp, constant_norm=None, cap=None)


def pairs_run(inp, item):
    return [
        item(label, _diameter_raw, data[1]) if kind == "raw" else item(label, _diameter_full, kind, data)
        for kind, label, data in inp["items"]
    ]


def _brute_force(kind, data):
    """(optimal incidence vectors, diameter) by enumeration: twice the largest
    Kendall tau or discordant edge count for orderings and tours, the
    enumerated optimal set for raw models."""
    if kind == "lop":
        opts = lop.optimal_permutations(lop.LopInstance(6, data))
        best = max(lop.kendall_tau(p, q) for p, q in itertools.combinations_with_replacement(opts, 2))
        return {lop.perm_to_incidence(p) for p in opts}, 2 * best
    if kind == "tsp":
        opts = tsp.optimal_tours(tsp.TspInstance(7, data))
        best = max(len(tsp.discordant_edges(a, b)) for a, b in itertools.combinations_with_replacement(opts, 2))
        return {tsp.tour_to_incidence(t) for t in opts}, 2 * best
    bp = data[0]
    return {s.assignment for s in bpcore.enumerate_optimal_set(bp)}, diameter.diameter_by_enumeration(bp)


def pairs_check(inp, out):
    verdicts = []
    for (kind, label, data), res in zip(inp["items"], out):
        opt, diam = _brute_force(kind, data)
        verdicts.append((label, res.x_star in opt and res.y_star in opt and res.diameter == diam))
    return verdicts


WORKLOADS = {
    "certify-facets": (facets_inputs, facets_run, facets_check),
    "hull-ordering4": (hull_inputs, hull_run, hull_check),
    "diverse-pairs": (pairs_inputs, pairs_run, pairs_check),
}
