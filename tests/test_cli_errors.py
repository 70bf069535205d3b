"""Malformed input is bad input (exit 3), not a crash; an infeasible model
exits 2."""

import json

import pytest

from diamopt import cli, lop
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


def _lp(objective="obj: 3 x + 2 y", rows=" c1: x + y <= 1", binary="Binary\n x y\n"):
    return f"Maximize\n {objective}\nSubject To\n{rows}\n{binary}End\n"


def _tsplib(header="EDGE_WEIGHT_TYPE: EXPLICIT", dimension="DIMENSION: 3", weights="0 1 1\n1 0 1\n1 1 0"):
    return f"{dimension}\n{header}\nEDGE_WEIGHT_SECTION\n{weights}\nEOF\n"


# every refusal of a malformed file or option, each with the words of its
# own message: file name and content (None: no file), argv with {f}
# standing for the file, and a piece of the message
REFUSALS = {
    "lp-unreadable-term": ("m.lp", _lp(objective="obj: 3 x + * y"), "solve {f}", "line 2: cannot read term at '+ * y'"),
    "lp-empty-expression": ("m.lp", _lp(objective="obj:"), "solve {f}", "line 2: empty expression"),
    "lp-objective-on-two-lines": ("m.lp", _lp(objective="obj: 3 x\n + 2 y"), "solve {f}", "objective must be a single"),
    "lp-row-without-relation": ("m.lp", _lp(rows=" c1: x + y"), "solve {f}", "line 4: constraint without relation"),
    "lp-bad-right-hand-side": ("m.lp", _lp(rows=" c1: x + y <= one"), "solve {f}", "bad right-hand side 'one'"),
    "lp-no-objective": ("m.lp", "Subject To\n c1: x <= 1\nBinary\n x\nEnd\n", "solve {f}", "no objective section"),
    "lp-no-binary-section": ("m.lp", _lp(binary=""), "solve {f}", "no Binary section"),
    "tsplib-weight-type": (
        "w.tsp", _tsplib(header="EDGE_WEIGHT_TYPE: EUC_2D"), "diameter --problem tsp --instance {f}",
        "EDGE_WEIGHT_TYPE EUC_2D unsupported",
    ),
    "tsplib-weight-format": (
        "w.tsp", _tsplib(header="EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_ROW"),
        "diameter --problem tsp --instance {f}", "EDGE_WEIGHT_FORMAT UPPER_ROW unsupported",
    ),
    "tsplib-no-dimension": (
        "w.tsp", _tsplib(dimension="NAME: three"), "diameter --problem tsp --instance {f}", "missing or bad DIMENSION",
    ),
    "tsplib-non-integer-dimension": (
        "w.tsp", _tsplib(dimension="DIMENSION: 3.5"), "diameter --problem tsp --instance {f}",
        "missing or bad DIMENSION",
    ),
    "tsplib-entry-count": (
        "w.tsp", _tsplib(weights="0 1 1\n1 0 1\n1 1"), "diameter --problem tsp --instance {f}",
        "expected 9 weight entries, found 8",
    ),
    "matrix-text-empty": ("w.txt", "# no matrix\n\n", "diameter --problem lop --instance {f}", "empty matrix text"),
    "matrix-text-non-integer-size": (
        "w.txt", "2.5\n0 1\n1 0\n", "diameter --problem lop --instance {f}", "first token must be the size",
    ),
    "instance-json-entry-length": (
        "w.json", json.dumps({"n": 3, "weights": [[1, 2]]}), "diameter --problem lop --instance {f}",
        "weight entry [1, 2] should be [i, j, num, den]",
    ),
    "instance-json-duplicate-entry": (
        "w.json", json.dumps({"n": 3, "costs": [[1, 2, 1], [2, 1, 1]]}), "diameter --problem tsp --instance {f}",
        "duplicate cost for (1, 2)",
    ),
    "instance-json-malformed": ("w.json", '{"n": 3,', "diameter --problem lop --instance {f}", "Expecting"),
    "model-json-malformed": ("m.json", '{"objective": [1, 2]', "solve {f}", "Expecting"),
    "raw-without-instance": (None, None, "diameter --problem raw", "--problem raw requires --instance MODEL"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_input_is_input_error(case, tmp_path, capsys):
    name, content, argv, message = REFUSALS[case]
    path = tmp_path / (name or "unused")
    if content is not None:
        path.write_text(content)
    code = main(argv.format(f=path).split())
    out, err = capsys.readouterr()
    assert code == 3
    assert "input error" in err and message in err
    assert "Traceback" not in err and out == ""


def _model(objective):
    return json.dumps({"objective": objective, "constraints": []})


def _ordering(n, weights):
    return json.dumps({"n": n, "weights": weights})


# files whose numbers a cast to int or Fraction would silently truncate:
# file name, content, argv with {f} standing for the file
NON_INTEGERS = {
    "objective-float-numerator": ("m.json", _model([[1.5, 2], 1]), "solve {f}"),
    "objective-float-denominator": ("m.json", _model([[3, 2.9], 1]), "solve {f}"),
    "objective-bool-numerator": ("m.json", _model([[True, 2], 1]), "solve {f}"),
    "objective-bool": ("m.json", _model([True, 1]), "solve {f}"),
    "ordering-float-index": ("w.json", _ordering(3, [[1.9, 2, 5]]), "diameter --problem lop --instance {f}"),
    "ordering-bool-index": ("w.json", _ordering(3, [[True, 2, 5]]), "diameter --problem lop --instance {f}"),
    "ordering-float-n": ("w.json", _ordering(3.7, []), "diameter --problem lop --instance {f}"),
    "ordering-bool-n": ("w.json", _ordering(True, []), "diameter --problem lop --instance {f}"),
    "model-bool-n": ("m.json", json.dumps({"n": True, "objective": [1], "constraints": []}), "solve {f}"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_non_integer_is_input_error(case, tmp_path, capsys):
    name, content, argv = NON_INTEGERS[case]
    path = tmp_path / name
    path.write_text(content)
    code = main(argv.format(f=path).split())
    out, err = capsys.readouterr()
    assert code == 3
    assert "input error" in err and "is not an integer" in err
    assert "Traceback" not in err and out == ""


# strings and objects where a coefficient list belongs, which read entry by
# entry would pass as vectors: file name, content, argv with {f} standing for
# the file
NOT_LISTS = {
    "model-objective": ("m.json", json.dumps({"objective": "12"}), "solve {f}"),
    "model-coeffs": (
        "m.json",
        json.dumps({"objective": [1, 2], "constraints": [{"coeffs": "11", "sense": "<=", "rhs": 1}]}),
        "solve {f}",
    ),
    "model-variable-names": ("m.json", json.dumps({"objective": [1, 2], "variable_names": "ab"}), "solve {f}"),
    "check-facet-a-string": ("q.json", json.dumps({"a": "100000", "a0": 1}), "check-facet {f} --problem lop --n 2"),
    "check-facet-a-object": (
        "q.json",
        json.dumps({"a": {str(k): int(k == 1) for k in range(1, 7)}, "a0": 1}),
        "check-facet {f} --problem lop --n 2",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_LISTS))
def test_non_list_vector_is_input_error(case, tmp_path, capsys):
    name, content, argv = NOT_LISTS[case]
    path = tmp_path / name
    path.write_text(content)
    code = main(argv.format(f=path).split())
    out, err = capsys.readouterr()
    assert code == 3
    assert "input error" in err and "must be a list" in err
    assert "Traceback" not in err and out == ""


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
    assert "pair grid of 32 or more base points exceeds max_points=1000" in err


def test_face_work_cap_exits_4(tmp_path, capsys):
    # 1,008 points fit --max-points 2000, but a row on all six z columns
    # costs 36 pairs x 2^6 patterns = 2,304 grid cells
    q = tmp_path / "all_z.json"
    q.write_text(json.dumps([{"a": [0] * 12 + [1] * 6, "a0": 6, "sense": "<=", "label": "all_z"}]))
    code = main(f"check-facet {q} --problem lop --n 3 --max-points 2000".split())
    err = capsys.readouterr().err
    assert code == 4
    assert "face work of 2304 grid cells" in err and "max_points=2000" in err
    assert "Traceback" not in err


def _out_of_memory(*args, **kw):
    raise MemoryError


# the stand-in that fails to allocate, and the command that reaches it
OUT_OF_MEMORY = {
    "pair-grid": ("enumerate_points", "dim --problem lop --n 3"),
    "ordering-build": ("build", "diameter --problem lop --n 3"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_MEMORY))
def test_failed_allocation_exits_4(case, monkeypatch, capsys):
    name, argv = OUT_OF_MEMORY[case]
    monkeypatch.setattr(cli if name == "enumerate_points" else lop, name, _out_of_memory)
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 4
    assert "cap exceeded: out of memory" in err and "Traceback" not in err


INFEASIBLE_LP ="Maximize\n obj: x1 + x2\nSubject To\n r: x1 + x2 >= 3\nBinary\n x1\n x2\nEnd\n"


@pytest.mark.parametrize("command", ["dim", "diameter", "check-facet {q}"])
def test_infeasible_model_exits_2(command, tmp_path, capsys):
    # no pair of binaries reaches 3: the paired point set is empty, and
    # the dimension of its hull and its faces are as undefined as the diameter
    path = tmp_path / "inf.lp"
    path.write_text(INFEASIBLE_LP)
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"a": [1] + [0] * 5, "a0": 0, "sense": ">="}))
    code = main(f"{command.format(q=q)} --problem raw --instance {path}".split())
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err
    assert "Traceback" not in err


def test_infeasible_model_lists_no_points(tmp_path, capsys):
    # listing the empty point set needs no hull, so it is not an error
    path = tmp_path / "inf.lp"
    path.write_text(INFEASIBLE_LP)
    code = main(f"points --problem raw --instance {path} --format json".split())
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"problem": "raw", "n": 2, "ambient": 6, "count": 0, "points": []}


# options that each pick the same thing: argv with {f} standing for an
# ordering n=3 instance file, and the two option names
CONFLICTS = {
    "epsilon": ("diameter --problem lop --n 3 --epsilon 1/8 --theoretical-epsilon", "--theoretical-epsilon", "--epsilon"),
    "diameter-source": ("diameter --problem lop --n 3 --instance {f}", "--instance", "--n"),
    "points-source": ("points --problem lop --n 3 --instance {f}", "--instance", "--n"),
    "dim-source": ("dim --problem lop --n 3 --instance {f}", "--instance", "--n"),
    "check-facet-source": ("check-facet {f} --problem lop --n 3 --instance {f}", "--instance", "--n"),
}


@pytest.mark.parametrize("case", sorted(CONFLICTS))
def test_conflicting_options_are_usage_errors(case, tmp_path, capsys):
    # neither option may silently win over the other
    argv, second, first = CONFLICTS[case]
    path = tmp_path / "w.json"
    path.write_text(_ordering(3, []))
    with pytest.raises(SystemExit) as exc:
        main(argv.format(f=path).split())
    out, err = capsys.readouterr()
    assert exc.value.code == 3
    assert f"argument {second}: not allowed with argument {first}" in err
    assert "usage:" in err and out == ""
