"""Facet certification by definition: validity plus tight-face dimension.

Every inherited inequality family is certified against the full point set
of the paired ordering polytope at n=3, then two genuinely mixed x/y/z
inequalities are certified on the tour polytope at n=4; those two are not
inherited from either copy, so they show the paired polytopes have more
structure than two products glued together.
"""

from fractions import Fraction

from diamopt import lop, tsp
from diamopt.bpcore import Constraint
from diamopt.diameter import paired
from diamopt.polytope import check_inequality, enumerate_points, facet_families

base = [lop.perm_to_incidence(p) for p in lop.all_permutations(3)]
ps3 = enumerate_points(lop.build(lop.LopInstance.zero(3)), base_points=base)

fams = facet_families(6, lop.base_facets(3))
certified = sum(check_inequality(ps3, q).is_facet for q in fams)
print(f"ordering n=3: {certified}/{len(fams)} facet families certified")
print(f"  polytope dimension {ps3.hull_dimension()}, {ps3.count} points")

sample = fams[0]
report = check_inequality(ps3, sample)
print(
    f"  example {sample.label!r}: valid={report.valid},"
    f" tight on {report.tight_point_count} points,"
    f" face dimension {report.face_dimension}/{report.polytope_dimension}"
)

# the two mixed inequalities at n=4: one tour fixing edges 12, 13, the
# other fixing 12, 24, coupled through a z variable
print()
print("tour n=4 mixed inequalities")
tours = [tsp.tour_to_incidence(t) for t in tsp.all_tours(4)]
ps4 = enumerate_points(tsp.build(tsp.TspInstance.zero(4)), base_points=tours)


def edge_vector(*es):
    a = [Fraction(0)] * 6
    for i, j in es:
        a[tsp.edge_index(i, j, 4)] += 1
    return a


for zedge in [(2, 3), (1, 4)]:
    a = paired(6, edge_vector((1, 2), (1, 3)), edge_vector((1, 2), (2, 4)), edge_vector(zedge))
    q = Constraint(a, ">=", Fraction(3), f"mixed_z_{zedge[0]}_{zedge[1]}")
    r = check_inequality(ps4, q)
    print(
        f"  {q.label}: valid={r.valid}, facet={r.is_facet},"
        f" tight on {r.tight_point_count} of {ps4.count} points"
    )
