"""Malformed input is bad input (exit 3), not a crash."""

import json

import pytest

from diamopt.cli import main

TSPLIB_ZERO_DEN = """DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_SECTION
0 1 1/0
1 0 1
1/0 1 0
EOF
"""

# file name and content (None: no file), argv with {f} standing for the file
ZERO_DENOMINATORS = {
    "epsilon": (None, None, "diameter --problem lop --n 3 --epsilon 1/0"),
    "ordering-json-weight": (
        "w.json",
        json.dumps({"n": 3, "weights": [[1, 2, 1, 0]]}),
        "diameter --problem lop --instance {f}",
    ),
    "matrix-text-entry": ("w.txt", "2\n0 1/0\n1 0\n", "diameter --problem lop --instance {f}"),
    "tsplib-weight": ("w.tsp", TSPLIB_ZERO_DEN, "diameter --problem tsp --instance {f}"),
    "check-facet-a0": (
        "q.json",
        json.dumps({"a": [0] * 12 + [1, 0, 0, 0, 0, 0], "a0": [1, 0], "sense": ">="}),
        "check-facet {f} --problem tsp --n 4",
    ),
    "model-objective": ("m.json", json.dumps({"objective": [[1, 0]], "constraints": []}), "solve {f}"),
}


@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATORS))
def test_zero_denominator_is_input_error(case, tmp_path, capsys):
    name, content, argv = ZERO_DENOMINATORS[case]
    path = tmp_path / (name or "unused")
    if content is not None:
        path.write_text(content)
    code = main(argv.format(f=path).split())
    err = capsys.readouterr().err
    assert code == 3
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("top", ["5", '"abc"', "null", "true"])
def test_scalar_inequalities_file_is_input_error(top, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(top)
    code = main(f"check-facet {path} --problem tsp --n 4".split())
    err = capsys.readouterr().err
    assert code == 3
    assert "expected an inequality object or a list of them" in err
    assert "Traceback" not in err


def test_raw_point_cap_refuses_early(tmp_path, capsys):
    # 823,543 paired points; 32 = isqrt(1000) + 1 base points already give
    # more than 1000 pairs, so the refusal comes after reading 32 of 128
    model = tmp_path / "free7.json"
    model.write_text(json.dumps({"objective": [1] * 7, "constraints": []}))
    code = main(f"dim --problem raw --instance {model} --max-points 1000".split())
    err = capsys.readouterr().err
    assert code == 4
    assert "point enumeration exceeds max_points=1000" in err
