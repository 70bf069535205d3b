"""diamopt: exact diverse-optima solves for binary programs, with
polyhedral certification of the underlying polytopes.

The workflow has three layers.  bpcore models and solves binary programs
exactly.  diameter pairs two copies of a model so that one solve returns
two maximally distant optimal solutions.  polytope certifies dimensions
and facets of the convex hull of the paired feasible set, with lop and
tsp supplying the linear ordering and symmetric tour front ends.
"""

from .bpcore import (
    BinaryProgram,
    Constraint,
    Solution,
    SolveReport,
    enumerate_feasible,
    enumerate_optimal_set,
    is_feasible,
    random_binary_program,
    solve_bnb,
    solve_enumerate,
)
from .diameter import (
    DiameterProgram,
    DiverseOptimaResult,
    EpsilonChoice,
    choose_epsilon,
    diameter_by_enumeration,
    result_to_dict,
    solve_diameter,
    theoretical_epsilon,
    verify_z_semantics,
)
from .errors import CapExceededError, DiamoptError, InfeasibleModelError, ParseError
from .modelio import (
    load_model_json,
    load_model_lp,
    lp_string,
    model_from_dict,
    model_to_dict,
    parse_lp,
    write_lp,
)
from .polytope import (
    DisjointPairReport,
    EquationSystem,
    FacetReport,
    Inequality,
    PointSet,
    check_disjoint_pair_condition,
    check_inequality,
    enumerate_points,
    facet_families,
    lift_equation_system,
    verify_minimal_system,
)
from .ratlinalg import RatMatrix, affine_dimension, as_rational

__all__ = [
    "BinaryProgram",
    "CapExceededError",
    "Constraint",
    "DiameterProgram",
    "DiamoptError",
    "DisjointPairReport",
    "DiverseOptimaResult",
    "EpsilonChoice",
    "EquationSystem",
    "FacetReport",
    "Inequality",
    "InfeasibleModelError",
    "ParseError",
    "PointSet",
    "RatMatrix",
    "Solution",
    "SolveReport",
    "affine_dimension",
    "as_rational",
    "check_disjoint_pair_condition",
    "check_inequality",
    "choose_epsilon",
    "diameter_by_enumeration",
    "enumerate_feasible",
    "enumerate_optimal_set",
    "enumerate_points",
    "facet_families",
    "is_feasible",
    "lift_equation_system",
    "load_model_json",
    "load_model_lp",
    "lp_string",
    "model_from_dict",
    "model_to_dict",
    "parse_lp",
    "random_binary_program",
    "result_to_dict",
    "solve_bnb",
    "solve_diameter",
    "solve_enumerate",
    "theoretical_epsilon",
    "verify_minimal_system",
    "verify_z_semantics",
    "write_lp",
]

__version__ = "0.1.0"
