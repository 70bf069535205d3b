"""Every library refusal of a bad argument names what is wrong, and the CLI
branches the other tests pass by answer as they should: solve by
enumeration, a solver disagreement, and a row that is not valid."""

import json
from fractions import Fraction

import numpy as np
import pytest

from diamopt import cli, lop, tsp
from diamopt.bpcore import BinaryProgram, Constraint, is_feasible, solve_bnb
from diamopt.diameter import build, solve_diameter, verify_listed_diameter
from diamopt.errors import DiamoptError, ParseError
from diamopt.modelio import decimal_form, lp_string
from diamopt.polytope import EquationSystem, enumerate_points, facet_families, verify_minimal_system
from diamopt.ratlinalg import RatMatrix, affine_dimension

TSPLIB_HEADER_AFTER_WEIGHTS = """DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_SECTION
0 1 2
1 0 3
2 3 0
EDGE_WEIGHT_FORMAT: UPPER_ROW
EOF
"""


def _ordering3_points():
    return enumerate_points(lop.build(lop.LopInstance.zero(3)))


# a call, and what it must give: an exception type and a piece of its
# message, or (exception None) the value it returns
LIBRARY = {
    "bpcore-no-variables": (lambda: BinaryProgram([]), ValueError, "need at least one variable"),
    "bpcore-feasible-length": (lambda: is_feasible(BinaryProgram([1, 1]), (1,)), ValueError, "length mismatch"),
    "bpcore-feasible-not-binary": (lambda: is_feasible(BinaryProgram([1, 1]), (1, 2)), ValueError, "must be 0/1"),
    "bpcore-bad-sense": (lambda: Constraint((1,), "<", 0), ValueError, "bad sense '<'"),
    # a tuple row is made a Constraint, and refused the same way
    "bpcore-tuple-bad-sense": (lambda: BinaryProgram([1], [((1,), "<", 0)]), ValueError, "bad sense '<'"),
    "lop-pair-index": (lambda: lop.pair_index(2, 2, 3), ValueError, "bad pair (2, 2) for n=3"),
    "lop-weight-out-of-range": (lambda: lop.LopInstance(3, {(1, 4): 1}), ValueError, "pair (1, 4) out of range"),
    "lop-incidence-length": (
        lambda: lop.incidence_to_perm((0, 1), 3), ValueError, "2 coordinates do not form an ordered-pair vector",
    ),
    "lop-kendall-sizes": (lambda: lop.kendall_tau((1, 2), (1, 2, 3)), ValueError, "rankings of different sizes"),
    "lop-verify-too-large": (
        lambda: lop.verify_diameter_kendall(lop.LopInstance.zero(7)), ValueError, "n <= 6 only",
    ),
    "lop-lift-width": (
        lambda: lop.lift_inequality(Constraint((1,) * 6, "<=", 1), 3), ValueError, "expected 18 coordinates",
    ),
    "tsp-edge-index": (lambda: tsp.edge_index(2, 2, 3), ValueError, "bad edge (2, 2) for n=3"),
    "tsp-cost-out-of-range": (lambda: tsp.TspInstance(3, {(1, 4): 1}), ValueError, "edge (1, 4) out of range"),
    "tsp-canonical-tour": (lambda: tsp.canonical_tour((1, 2)), ValueError, "is not a tour of 1..2"),
    "tsp-incidence-length": (
        lambda: tsp.incidence_to_tour((1, 1), 3), ValueError, "2 coordinates do not form an edge vector",
    ),
    "tsp-incidence-not-2-regular": (
        lambda: tsp.incidence_to_tour((1, 1, 0, 0, 0, 0), 4), ValueError, "vector is not 2-regular",
    ),
    "tsp-verify-too-large": (
        lambda: tsp.verify_diameter_discordant(tsp.TspInstance.zero(9)), ValueError, "n <= 8 only",
    ),
    # a header line ends the weights, and is read as a header
    "tsp-tsplib-header-after-weights": (
        lambda: tsp.tsp_from_tsplib(TSPLIB_HEADER_AFTER_WEIGHTS), ParseError, "EDGE_WEIGHT_FORMAT UPPER_ROW unsupported",
    ),
    "polytope-minimal-system-width": (
        lambda: verify_minimal_system(_ordering3_points(), EquationSystem(*lop.pick_one_system(3))),
        ValueError,
        "system width disagrees with the point set",
    ),
    "polytope-facet-family-width": (
        lambda: facet_families(2, [Constraint((1,), "<=", 0)]), ValueError, "base facet 0 has width 1, expected 2",
    ),
    "ratlinalg-ragged": (lambda: RatMatrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "ratlinalg-1d-array": (lambda: affine_dimension(np.array([1, 0])), ValueError, "expected a 2-D array"),
    "ratlinalg-empty-array": (
        lambda: affine_dimension(np.empty((0, 3), dtype=np.uint8)), ValueError, "affine hull of no points",
    ),
    "ratlinalg-mixed-dimension": (lambda: affine_dimension([[1, 0], [1]]), ValueError, "points of mixed dimension"),
    "modelio-inexact-rhs": (
        lambda: lp_string(BinaryProgram([1], [Constraint([1], "<=", Fraction(1, 3), "r")]))[1],
        None,
        ["right-hand side 1/3 of r is inexact in decimal"],
    ),
    # below the rounding digits a nonzero value prints as 0.0, flagged inexact
    "modelio-decimal-underflow": (lambda: decimal_form(Fraction(1, 3 * 10**13)), None, ("0.0", False)),
    # both halves of the pair (1, 1) have norm 2, not 1
    "diameter-broken-norm-promise": (
        lambda: solve_diameter(build(BinaryProgram([1, 1], [])), constant_norm=1),
        DiamoptError,
        "constant-norm promise broken: |x|=2, |y|=2, claimed 1",
    ),
    # ordering n=3 listed as one ranking: the solved pair is not in the list
    "diameter-unlisted-half": (
        lambda: verify_listed_diameter(
            lop.build(lop.LopInstance.zero(3)), [(1, 2, 3)], lop.perm_to_incidence, lop.kendall_tau
        ),
        None,
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_refusal(case):
    call, exc, want = LIBRARY[case]
    if exc is None:
        assert call() == want
        return
    with pytest.raises(exc) as info:
        call()
    assert want in str(info.value)


TWO_LP = "Maximize\n obj: 3 x + 2 y\nSubject To\n c1: x + y <= 1\nBinary\n x y\nEnd\n"
# x_1_2 <= 0 on the x block of ordering n=3: the rankings with 1 before 2 break it
X12_ZERO = [{"a": [1] + [0] * 17, "a0": 0, "sense": "<=", "label": "x_1_2[x]<=0"}]


def _disagree(bp, cap):
    """An enumeration that finds another optimum value than bnb."""
    return solve_bnb(BinaryProgram([1] * bp.n, bp.constraints))


# argv with {f} standing for the file, the file's name and content, a stand-in for
# cli.solve_enumerate (or None), the exit code, and the exact stdout or a
# piece of stderr
CLI = {
    "solve-by-enumeration": (
        "solve {f} --method enum", "two.lp", TWO_LP, None, 0,
        "status: optimal\nobjective: 3\nassignment: 10\non: x\nnodes: 4\n", "",
    ),
    "solve-both-disagree": (
        "solve {f} --method both", "two.lp", TWO_LP, _disagree, 1,
        "", "verification failed: solver disagreement between bnb and enumeration",
    ),
    "check-facet-not-valid": (
        "check-facet {f} --problem lop --n 3", "q.json", json.dumps(X12_ZERO), None, 1,
        "NOT VALID  x_1_2[x]<=0\n", "",
    ),
    # a Constraint admits =, but check-facet certifies inequalities only
    "check-facet-equality": (
        "check-facet {f} --problem lop --n 3", "q.json", json.dumps([dict(X12_ZERO[0], sense="=")]), None, 3,
        "", "bad sense '='",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_branch(case, tmp_path, monkeypatch, capsys):
    argv, name, content, enumerate_stand_in, code, want_out, want_err = CLI[case]
    path = tmp_path / name
    path.write_text(content)
    if enumerate_stand_in:
        monkeypatch.setattr(cli, "solve_enumerate", enumerate_stand_in)
    assert cli.main(argv.format(f=path).split()) == code
    out, err = capsys.readouterr()
    assert out == want_out
    assert want_err in err and "Traceback" not in err
