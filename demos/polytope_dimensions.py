"""Dimensions of the paired-copy polytopes, computed exactly.

For each front end the feasible (x, y, z) triples are enumerated and the
affine hull dimension comes from an exact integer rank.  The pattern:
ambient 3n, equation system of rank 2r, dimension 3n - 2r, with r the
rank of the base equations (pick-one rows for orderings, degree rows for
tours).
"""

from diamopt import lop, tsp
from diamopt.polytope import (
    EquationSystem,
    enumerate_points,
    lift_equation_system,
    verify_minimal_system,
)

print("ordering polytopes")
for n in (2, 3):
    base = [lop.perm_to_incidence(p) for p in lop.all_permutations(n)]
    ps = enumerate_points(lop.build(lop.LopInstance.zero(n)), base_points=base)
    system = lift_equation_system(EquationSystem(*lop.pick_one_system(n)))
    minimal = verify_minimal_system(ps, system)
    print(
        f"  n={n}: {ps.count:>6} points in R^{ps.dim_ambient:<3}"
        f" dimension {ps.hull_dimension():>3}"
        f"  ({system.matrix.nrows} equations, minimal: {minimal})"
    )

print("tour polytopes")
for n in (4, 5):
    base = [tsp.tour_to_incidence(t) for t in tsp.all_tours(n)]
    ps = enumerate_points(tsp.build(tsp.TspInstance.zero(n)), base_points=base)
    system = lift_equation_system(EquationSystem(*tsp.degree_system(n)))
    minimal = verify_minimal_system(ps, system)
    print(
        f"  n={n}: {ps.count:>6} points in R^{ps.dim_ambient:<3}"
        f" dimension {ps.hull_dimension():>3}"
        f"  ({system.matrix.nrows} equations, minimal: {minimal})"
    )

print()
print("dimension = ambient - 2 * (base equation rank) in every case above:")
print("  ordering n: 2n(n-1) - 2*C(n,2) = hull dimension")
print("  tour n    : 3*C(n,2) - 2*n     = hull dimension")
