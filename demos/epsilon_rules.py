"""How the z-penalty is chosen, and what goes wrong without the rule.

The penalty must be small enough that trading base objective for extra
distance never pays.  One rule gives 1/(2nL), L the least common multiple
of the objective's denominators (1 for an integer objective); enumerating
the optimality gap gives the tight threshold.
"""

import random
from fractions import Fraction

from diamopt.bpcore import BinaryProgram, Constraint, enumerate_optimal_set, random_binary_program, solve_bnb
from diamopt.diameter import (
    build as build_diameter,
    choose_epsilon,
    solve_diameter,
    theoretical_epsilon,
)

print("rule: epsilon = 1/(2nL), L the lcm of the objective's denominators")
int_model = BinaryProgram([3, 3, 2, 2], [Constraint([1, 1, 1, 1], "<=", 2)])
print(f"integer objective, n=4   -> L = 1,  epsilon {choose_epsilon(int_model)}")

rat_model = BinaryProgram([Fraction(1, 6), Fraction(3, 4)], [])
print(f"denominators 6 and 4     -> L = 12, epsilon {choose_epsilon(rat_model)}")

print(f"enumerated optimality gap -> epsilon {theoretical_epsilon(int_model)}  (the tight threshold)")

# a penalty above the threshold buys distance with base objective: on
# max x1 the pair (1, .), (0, .) is "far" but half of it is not optimal
print()
bad = BinaryProgram([1, 0], [])
res = solve_diameter(build_diameter(bad, Fraction(2), "full"))
opt = {s.assignment for s in enumerate_optimal_set(bad)}
print(f"epsilon 2 on max x1      -> pair {res.x_star}, {res.y_star}")
print(f"  halves optimal: {res.x_star in opt}, {res.y_star in opt}  (penalty too large)")

# the rule value never does this, no matter the instance
rng = random.Random(2024)
checked = 0
while checked < 200:
    bp = random_binary_program(rng, max_n=8, max_rows=5)
    if solve_bnb(bp).status != "optimal":
        continue
    checked += 1
    res = solve_diameter(build_diameter(bp))
    opt = {s.assignment for s in enumerate_optimal_set(bp)}
    assert res.x_star in opt and res.y_star in opt
print()
print(f"rule epsilon kept both halves optimal on {checked} random models")
