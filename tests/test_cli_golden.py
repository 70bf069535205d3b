"""Byte-level pins of CLI reports.

Each case runs one command in-process and compares its exit code and the
sha256 of its stdout with a recorded value, so any change to a report's
bytes, however small, fails here.  A change that alters a report on purpose
records the new digest and says why.
"""

import hashlib
import json

import pytest

from diamopt import lop, tsp
from diamopt.bpcore import enumerate_optimal_set
from diamopt.cli import main
from diamopt.diameter import build, diameter_by_enumeration, solve_diameter
from diamopt.modelio import parse_lp
from diamopt.polytope import facet_families

ORDERING_MATRIX = "4\n0 1 2 0\n3 0 1/2 1\n0 0 0 2  # c\n1 1 1 0\n"

TOUR_TSPLIB = """NAME: t5
TYPE: TSP
DIMENSION: 5
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 7 6 5 11
7 0 10 9 8
6 10 0 6 12
5 9 6 0 9
11 8 12 9 0
EOF
"""

# With epsilon = 7 the solved pairs of this model leave its optimal set (its
# only optimum is 101100): the cross-check compares paired objective values,
# so these solves still pass it and keep their reports.
RAW_MODEL = """Maximize
 obj: - x_1 + 3 x_2 + 3 x_4 - 4 x_5 - 2 x_6
Subject To
 c1: 3 x_1 - 2 x_2 + 4 x_3 - x_4 + 2 x_5 - 4 x_6 = 6
Binary
 x_1 x_2 x_3 x_4 x_5 x_6
End
"""

# argv with {tmp} standing for the case's tmp_path, the exit code, and the
# sha256 of stdout
CASES = {
    "check-facet-ordering3-json": ("check-facet {tmp}/ordering3.json --problem lop --n 3 --format json", 0, "69dcdb888bed75d9ca4af217bdfa7c66423bea709483fb4ab0dd372e4064f359"),
    "check-facet-tour4": ("check-facet {tmp}/tour4.json --problem tsp --n 4", 1, "50794025fe5d90f775a77be152d40b965746376beeec2dc682a936ca35f74114"),
    "diameter-lop3-json": ("diameter --problem lop --n 3 --format json", 0, "c8aaedc75159724f7efdb1161a538a6c4174dd7abd28ddaf34a55950021f9129"),
    "diameter-lop3-theoretical-json": ("diameter --problem lop --n 3 --theoretical-epsilon --format json", 0, "1e63ae19dd86c2d08caae71b82865b6ca82a7c3aefd53d43d21d633dc1b1e4da"),
    "diameter-raw-eps7": ("diameter --problem raw --instance {tmp}/raw.lp --epsilon 7", 0, "2ccec5dba8a08d07131bb47e6beb4ff5ef10bd9f3b44a37af11fb4c54c8b1311"),
    "diameter-raw-eps7-conjugate-json": ("diameter --problem raw --instance {tmp}/raw.lp --epsilon 7 --variant conjugate --format json", 0, "48b31512ccbaa7e27e9f2bd6c58905922f75faea00887438a20b44059e225c4d"),
    "diameter-ordering-matrix": ("diameter --problem lop --instance {tmp}/ord.txt", 0, "08ea19d086017197f3c79616d7bcdafc39a883ffa07da8d5ffb9de059fcee1c1"),
    "diameter-tsp5-conjugate": ("diameter --problem tsp --n 5 --variant conjugate", 0, "849db0f6d6eec9c18f9b124380e8e5755dd1569f54afe9a8e5c24803279b5c83"),
    "diameter-tsp5-theoretical": ("diameter --problem tsp --n 5 --theoretical-epsilon", 0, "0c5f122f2bc0aae6a7221217ccf9bc53b9b047b001cdd05a9190fcb3c44432c8"),
    "diameter-tsp7": ("diameter --problem tsp --n 7", 0, "e7f3320892748a0326c4d4f1202d881f07832c1497a2c8fc95986a271c0caadd"),
    "diameter-tsplib": ("diameter --problem tsp --instance {tmp}/tour.tsp", 0, "fbb207130c70fba144cfe634ef7a498f758913b1c68e88fa43796be13df15607"),
    "dim-lop4-json": ("dim --problem lop --n 4 --format json", 0, "9d64fd85b3434bdf77f4c2013a0d1267de4930f3f34bfeb415715887aaa5a1ba"),
    "dim-tsp5-json": ("dim --problem tsp --n 5 --format json", 0, "f1162afddf8dc97620147cc2c2b7e4a403c53be262b5bd20a04edffc7b25370d"),
    "points-lop2-json": ("points --problem lop --n 2 --format json", 0, "f7c6353fbbceac4d76858731dd1823c2938454a76713a899cd852b0e7d4177db"),
    "verify-dimensions-json": ("verify dimensions --format json", 0, "4d307130d646f6f6cf458b81be2b57d3ade65ecac45fd79d78a79efcbe6c4ffd"),
    "verify-epsilon-json": ("verify epsilon --trials 20 --seed 7 --format json", 0, "c5c72fc7b9f9a1122bf3ff87af291899766255a02ff25d091a7af79bf7497cab"),
    "verify-facets-json": ("verify facets --format json", 0, "4f3b36cc3f1297baff64e0d6f9c797321d00e126e2d79af9551b65ae9ea24de1"),
    "verify-lifting-json": ("verify lifting --format json", 0, "9de1ae21769b9286251265edab086a02990448cdd4d5e0954ebf0c3b2fb0ed64"),
}


@pytest.fixture
def instance_dir(tmp_path):
    (tmp_path / "ord.txt").write_text(ORDERING_MATRIX)
    (tmp_path / "tour.tsp").write_text(TOUR_TSPLIB)
    (tmp_path / "raw.lp").write_text(RAW_MODEL)
    for name, base in (("tour4", tsp.base_facets(4)), ("ordering3", lop.base_facets(3))):
        ineqs = [{"a": [str(v) for v in q.coeffs], "a0": str(q.rhs), "sense": q.sense, "label": q.label} for q in facet_families(6, base)]
        (tmp_path / f"{name}.json").write_text(json.dumps(ineqs))
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, instance_dir, capsys):
    argv, want_code, want_digest = CASES[case]
    code = main(argv.format(tmp=instance_dir).split())
    out = capsys.readouterr().out
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest, out[:2000]


@pytest.mark.parametrize("variant", ["full", "conjugate"])
def test_raw_eps7_pair_leaves_the_optimal_set(variant):
    bp = parse_lp(RAW_MODEL)
    res = solve_diameter(build(bp, 7, variant))
    opt = [s.assignment for s in enumerate_optimal_set(bp)]
    assert opt == [(1, 0, 1, 1, 0, 0)] and res.y_star not in opt
    assert res.diameter == 3 != diameter_by_enumeration(bp)
