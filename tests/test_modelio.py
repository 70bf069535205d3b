import json
import random
from fractions import Fraction

import pytest

from diamopt import diameter, lop, tsp
from diamopt.bpcore import BinaryProgram, Constraint, enumerate_feasible, random_binary_program
from diamopt.diameter import build
from diamopt.errors import ParseError
from diamopt.modelio import (
    decimal_form,
    load_model,
    lp_string,
    model_from_dict,
    model_to_dict,
    parse_lp,
    write_lp,
)


class TestDecimalForm:
    @pytest.mark.parametrize(
        "q,want",
        [
            (Fraction(1, 2), "0.5"),
            (Fraction(3, 8), "0.375"),
            (Fraction(1, 10), "0.1"),
            (Fraction(7), "7"),
            (Fraction(-5, 4), "-1.25"),
            (Fraction(0), "0"),
        ],
    )
    def test_exact_cases(self, q, want):
        text, exact = decimal_form(q)
        assert (text, exact) == (want, True)

    def test_inexact_flagged(self):
        text, exact = decimal_form(Fraction(1, 3))
        assert not exact
        assert text.startswith("0.3333")

    def test_inexact_is_close(self):
        text, exact = decimal_form(Fraction(-2, 7))
        assert not exact
        assert abs(float(text) - (-2 / 7)) < 1e-11


class TestDictRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_models(self, seed):
        rng = random.Random(seed)
        bp = random_binary_program(rng)
        assert model_from_dict(model_to_dict(bp)) == bp

    def test_rational_data_survives(self):
        bp = BinaryProgram(
            [Fraction(1, 3), Fraction(-7, 2)],
            [Constraint([Fraction(2, 5), 1], ">=", Fraction(-1, 6), "r")],
            ["a", "b"],
        )
        assert model_from_dict(model_to_dict(bp)) == bp

    def test_inconsistent_dict_rejected(self):
        d = model_to_dict(BinaryProgram([1, 2], []))
        d["variable_names"] = ["only_one"]
        with pytest.raises(ParseError):
            model_from_dict(d)
        d2 = model_to_dict(BinaryProgram([1, 2], []))
        d2["n"] = 5
        with pytest.raises(ParseError):
            model_from_dict(d2)

    @pytest.mark.parametrize(
        "field,value",
        [("objective", "12"), ("constraints", {}), ("variable_names", "ab"), ("n", True)],
        ids=["objective-string", "constraints-object", "variable-names-string", "n-bool"],
    )
    def test_strings_objects_and_bools_rejected(self, field, value):
        # a string or an object read entry by entry would pass as a vector
        d = model_to_dict(BinaryProgram([1] if field == "n" else [1, 2], []))
        d[field] = value
        with pytest.raises(ParseError):
            model_from_dict(d)

    def test_string_coeffs_rejected(self):
        d = model_to_dict(BinaryProgram([1, 2], [Constraint([1, 1], "<=", 1)]))
        d["constraints"][0]["coeffs"] = "11"
        with pytest.raises(ParseError):
            model_from_dict(d)


class TestLpText:
    def test_equality_split(self):
        # an = row is written as one = row, not split into a <= pair
        bp = BinaryProgram([1, 1], [Constraint([1, 1], "=", 1, "eq")])
        text, warnings = lp_string(bp)
        assert not warnings
        assert " eq: x_1 + x_2 = 1" in text.splitlines()
        assert "eq_a:" not in text and "eq_b:" not in text
        assert ">=" not in text and "<=" not in text
        assert parse_lp(text) == bp

    def test_ge_keeps_its_sense(self):
        bp = BinaryProgram([1, 1], [Constraint([1, 2], ">=", 1, "low")])
        text, _ = lp_string(bp)
        assert " low: x_1 + 2 x_2 >= 1" in text.splitlines()
        assert "<=" not in text

    def test_warning_on_inexact(self):
        bp = BinaryProgram([Fraction(1, 3), 1], [])
        text, warnings = lp_string(bp)
        assert warnings
        assert "\\ warning:" in text

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_preserves_solutions(self, seed, tmp_path):
        rng = random.Random(100 + seed)
        bp = random_binary_program(rng, max_n=7, max_rows=4)
        path = tmp_path / "m.lp"
        write_lp(bp, str(path))
        back = load_model(str(path))
        assert back.variable_names == bp.variable_names
        assert back.c == bp.c
        assert enumerate_feasible(back) == enumerate_feasible(bp)
        assert back == bp

    def test_sidecar_is_exact(self, tmp_path):
        bp = BinaryProgram([Fraction(1, 3)], [Constraint([Fraction(1, 7)], "<=", 1)])
        path = tmp_path / "m.lp"
        write_lp(bp, str(path))
        side = load_model(str(path) + ".json")
        assert side == bp

    @pytest.mark.parametrize("name", ["a-b", "x.1", "1x", "x y", ""])
    def test_variable_name_must_be_an_identifier(self, name):
        bp = BinaryProgram([1, 1], [], ["ok", name])
        with pytest.raises(ValueError, match=f"variable name {name!r}"):
            lp_string(bp)

    @pytest.mark.parametrize("name", ["end", "End", "max", "MINIMIZE", "st", "bin", "Binaries"])
    def test_variable_name_must_not_be_a_section_word(self, name):
        bp = BinaryProgram([1, 1], [], ["ok", name])
        with pytest.raises(ValueError, match=f"variable name {name!r}"):
            lp_string(bp)

    @pytest.mark.parametrize("label", ["r:1", "r\\1", " r", "r ", "r\n1"])
    def test_row_label_must_read_back(self, label):
        bp = BinaryProgram([1, 1], [Constraint([1, 1], "<=", 1, label)])
        with pytest.raises(ValueError, match="row label"):
            lp_string(bp)

    def test_minimize_negates(self):
        text = "Minimize\n obj: x + 2 y\nSubject To\n r: x + y <= 1\nBinary\n x\n y\nEnd\n"
        bp = parse_lp(text)
        assert bp.c == (Fraction(-1), Fraction(-2))

    def test_undeclared_variable_rejected(self):
        text = "Maximize\n obj: x + q\nSubject To\nBinary\n x\nEnd\n"
        with pytest.raises(ParseError):
            parse_lp(text)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_lp("this is not a model")

    def test_binary_declared_twice_rejected(self):
        text = "Maximize\n obj: x + y\nSubject To\n c: x + y <= 1\nBinary\n x y\n x\nEnd\n"
        with pytest.raises(ParseError, match="line 7: x declared Binary twice"):
            parse_lp(text)

    def test_binary_section_fixes_order(self):
        text = "Maximize\n obj: b + 2 a\nSubject To\nBinary\n b\n a\nEnd\n"
        bp = parse_lp(text)
        assert bp.variable_names == ("b", "a")
        assert bp.c == (Fraction(1), Fraction(2))


def test_json_file_round_trip(tmp_path):
    bp = BinaryProgram([1, -2, 3], [Constraint([1, 1, 1], "<=", 2, "cap")])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(bp)))
    assert load_model(str(path)) == bp


def _round_trip_models():
    """Random models, zero-cost and costed front ends, and the full and
    conjugate paired programs of 60 of the random models."""
    models = [random_binary_program(random.Random(seed)) for seed in range(200)]
    models += [lop.build(lop.LopInstance.zero(n)) for n in (3, 4, 5)]
    models += [tsp.build(tsp.TspInstance.zero(n)) for n in (4, 5, 6)]
    rng = random.Random(7)
    models.append(lop.build(lop.LopInstance(4, {p: rng.randint(-4, 4) for p in lop.ordered_pairs(4)})))
    models.append(tsp.build(tsp.TspInstance(5, {e: Fraction(rng.randint(1, 9), 4) for e in tsp.edges(5)})))
    models += [build(bp, None, v).derived for bp in models[:60] for v in ("full", "conjugate")]
    return models


def test_lp_round_trip_is_the_identity():
    # every row keeps its sense, label and exact numbers; a model whose text
    # carries a warning is inexact in decimal and travels by its sidecar
    identities = 0
    for bp in _round_trip_models():
        text, warnings = lp_string(bp)
        if not warnings:
            assert parse_lp(text) == bp, text
            identities += 1
    assert identities == 280  # and 48 inexact


def test_paired_search_cut_rows_read_back(monkeypatch):
    # the solve-time copy paired_search solves adds rows base_opt_x / base_opt_y
    solved = []
    monkeypatch.setattr(diameter, "solve_bnb", solved.append)
    diameter.paired_search(build(BinaryProgram([1, 2], [Constraint([1, 1], "<=", 1)]), 1, "full"), 2)
    (cut,) = solved
    assert [con.label for con in cut.constraints[-2:]] == ["base_opt_x", "base_opt_y"]
    assert parse_lp(lp_string(cut)[0]) == cut
