"""Two best rankings that disagree on as many pairs as possible.

For linear orderings the squared distance between incidence vectors is
twice the Kendall tau distance, so maximizing one maximizes the other.
"""

from fractions import Fraction

from diamopt import lop
from diamopt.diameter import build as build_diameter, solve_diameter

# preferences among four items; (i, j) weight is the payoff for ranking
# i before j.  Antisymmetric weights make reversals interesting.
weights = {}
for (i, j), w in {
    (1, 2): 2, (2, 1): -2,
    (3, 4): 1, (4, 3): -1,
    (1, 3): 0, (3, 1): 0,
}.items():
    weights[(i, j)] = Fraction(w)

inst = lop.LopInstance(4, weights)
bp = lop.build(inst)

res = solve_diameter(build_diameter(bp, None, "conjugate"))

p1 = lop.incidence_to_perm(res.x_star, 4)
p2 = lop.incidence_to_perm(res.y_star, 4)
tau = lop.kendall_tau(p1, p2)

print(f"objective value  : {res.base_objective}")
print(f"ranking one      : {p1}  (rank of item 1..4)")
print(f"ranking two      : {p2}")
print(f"kendall tau      : {tau} discordant pairs")
print(f"squared distance : {res.diameter} = 2 * tau")

assert res.diameter == 2 * tau
assert lop.objective_value(inst, p1) == lop.objective_value(inst, p2)

# independent confirmation by scanning all 24 permutations
assert lop.verify_diameter_kendall(inst)
print("verified against the full permutation scan")
