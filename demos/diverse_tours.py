"""Two cheapest tours that share as few edges as possible.

Six cities, twelve cheap roads forming two edge-disjoint rings, three
expensive chords.  Sixteen tours tie at the optimal cost; instead of
returning one of them arbitrarily, a single solve returns a pair at
maximum Hamming distance: completely edge-disjoint backups.
"""

from fractions import Fraction

from diamopt import tsp
from diamopt.diameter import build as build_diameter, solve_diameter

ring_one = (1, 2, 3, 4, 5, 6)
ring_two = (1, 3, 5, 2, 6, 4)

costs = {e: Fraction(5) for e in tsp.edges(6)}
for t in (ring_one, ring_two):
    for e in tsp.tour_edges(t):
        costs[e] = Fraction(1)

inst = tsp.TspInstance(6, costs)
opt = tsp.optimal_tours(inst)
print(f"tours tied at the optimum: {len(opt)} (cost {tsp.tour_cost(inst, opt[0])})")

dp = build_diameter(tsp.build(inst), None, "conjugate")
res = solve_diameter(dp)

t1 = tsp.incidence_to_tour(res.x_star, 6)
t2 = tsp.incidence_to_tour(res.y_star, 6)

print(f"tour one         : {'-'.join(map(str, t1))}")
print(f"tour two         : {'-'.join(map(str, t2))}")
print(f"shared edges     : {len(set(tsp.tour_edges(t1)) & set(tsp.tour_edges(t2)))}")
print(f"squared distance : {res.diameter} (the maximum possible is {2 * 6})")

assert tsp.tour_cost(inst, t1) == tsp.tour_cost(inst, t2)
assert res.diameter == 12

# the same guarantee exists combinatorially: for any tour on >= 5 cities
# an edge-disjoint second tour can be constructed directly
backup = tsp.find_disjoint_tour(t1)
print(f"constructed backup: {'-'.join(map(str, backup))} (edge-disjoint by construction)")
