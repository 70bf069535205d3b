import json

import pytest

from diamopt import tsp
from diamopt.bpcore import BinaryProgram, Constraint
from diamopt.cli import main
from diamopt.modelio import model_to_dict, write_lp


@pytest.fixture
def ties_model(tmp_path):
    bp = BinaryProgram([3, 3, 3, 3], [Constraint([1, 1, 1, 1], "<=", 2, "pick2")])
    path = tmp_path / "ties.json"
    path.write_text(json.dumps(model_to_dict(bp)))
    return str(path)


@pytest.fixture(scope="module")
def deep_model(tmp_path_factory):
    """1,200 variables: deeper than Python's default recursion limit."""
    n = 1200
    bp = BinaryProgram([1] * n, [Constraint([1, 1] + [0] * (n - 2), "<=", 1, "pick1")])
    path = tmp_path_factory.mktemp("deep") / "deep.lp"
    write_lp(bp, str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_lp_input(self, tmp_path, capsys):
        bp = BinaryProgram([3, 3, 2], [Constraint([1, 1, 1], "<=", 2, "cap")])
        path = tmp_path / "m.lp"
        write_lp(bp, str(path))
        code, out, _ = run(capsys, "solve", str(path), "--method", "both", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["objective"] == {"num": 6, "den": 1}
        assert payload["assignment"] == [1, 1, 0]

    def test_text_output(self, ties_model, capsys):
        code, out, _ = run(capsys, "solve", ties_model)
        assert code == 0
        assert "objective: 6" in out
        assert "status: optimal" in out

    def test_infeasible_exit(self, tmp_path, capsys):
        bp = BinaryProgram([1, 1], [Constraint([1, 1], "=", 3, "bad")])
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(model_to_dict(bp)))
        code, out, _ = run(capsys, "solve", str(path), "--format", "json")
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"

    def test_deep_model(self, deep_model, capsys):
        code, out, _ = run(capsys, "solve", deep_model, "--method", "bnb", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == {"num": 1199, "den": 1}
        assert payload["assignment"] == [1, 0] + [1] * 1198

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
        assert code == 3
        assert "input error" in err


class TestDiameter:
    def test_raw_full(self, ties_model, capsys):
        code, out, _ = run(
            capsys, "diameter", "--problem", "raw", "--instance", ties_model, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == 4
        assert payload["variant"] == "full"
        assert payload["epsilon"] == {"num": 1, "den": 8}

    def test_deep_raw_model(self, deep_model, capsys):
        # 3,600 paired variables
        code, out, _ = run(capsys, "diameter", "--problem", "raw", "--instance", deep_model, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == 2
        assert payload["x"][:3] == [1, 0, 1] and payload["y"][:3] == [0, 1, 1]

    def test_raw_conjugate_reports_bound(self, ties_model, capsys):
        code, out, _ = run(
            capsys,
            "diameter",
            "--problem",
            "raw",
            "--instance",
            ties_model,
            "--variant",
            "conjugate",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter_upper_bound"] >= payload["diameter"]

    def test_explicit_epsilon(self, ties_model, capsys):
        code, out, _ = run(
            capsys,
            "diameter",
            "--problem",
            "raw",
            "--instance",
            ties_model,
            "--epsilon",
            "1/100",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == {"num": 1, "den": 100}

    def test_bad_epsilon_rejected(self, ties_model, capsys):
        code, _, err = run(
            capsys, "diameter", "--problem", "raw", "--instance", ties_model, "--epsilon=-1/2"
        )
        assert code == 3
        code, _, err = run(
            capsys, "diameter", "--problem", "raw", "--instance", ties_model, "--epsilon", "zero"
        )
        assert code == 3

    def test_tour_frontend_decodes_tours(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--problem", "tsp", "--n", "5", "--variant", "conjugate"
        )
        assert code == 0
        assert "diameter: 10" in out
        assert "tour x: 1-" in out

    def test_zero_cost_tour8_is_certified_optimal(self, capsys):
        # every tour is optimal, and two tours differ in at most their 2n = 16
        # edges, so 16 is the diameter; the pool holds all 2,520 tours
        code, out, _ = run(capsys, "diameter", "--problem", "tsp", "--n", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == 16
        x, y = (tuple(payload[k]) for k in "xy")
        assert {x, y} <= {tsp.tour_to_incidence(t) for t in tsp.all_tours(8)}
        assert not any(a & b for a, b in zip(x, y))
        assert [tsp.tour_to_incidence(t) for t in payload["tours"]] == [x, y]

    def test_ordering_frontend(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--problem", "lop", "--n", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diameter"] == 6  # reversed orders differ on every pair
        assert len(payload["permutations"]) == 2

    def test_infeasible_base_exit(self, tmp_path, capsys):
        bp = BinaryProgram([1], [Constraint([1], ">=", 2, "no")])
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(model_to_dict(bp)))
        code, _, err = run(capsys, "diameter", "--problem", "raw", "--instance", str(path))
        assert code == 2


class TestPointsAndDim:
    def test_dim_ordering(self, capsys):
        code, out, _ = run(capsys, "dim", "--problem", "lop", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "ambient": 6,
            "count": 12,
            "dimension": 4,
            "n": 2,
            "problem": "lop",
        }

    def test_points_listing(self, capsys):
        code, out, _ = run(capsys, "points", "--problem", "lop", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 12
        assert all(len(p) == 6 for p in payload["points"])
        assert payload["points"] == sorted(payload["points"])

    def test_max_points_exit(self, capsys):
        code, _, err = run(
            capsys, "points", "--problem", "tsp", "--n", "6", "--max-points", "100"
        )
        assert code == 4
        assert "cap exceeded" in err

    def test_missing_size_exit(self, capsys):
        code, _, err = run(capsys, "dim", "--problem", "lop")
        assert code == 3

    @pytest.mark.parametrize("problem,message", [("lop", "at least two items"), ("tsp", "at least three cities")])
    def test_zero_size_reports_the_size_error(self, problem, message, capsys):
        code, _, err = run(capsys, "dim", "--problem", problem, "--n", "0")
        assert code == 3
        assert message in err and "need --n" not in err

    def test_raw_model_past_the_paired_scan(self, tmp_path, capsys):
        # n = 9 <= 26 < 3n: the base model is scanned, never the paired one
        bp = BinaryProgram([0] * 9, [Constraint([1] * 7 + [0, 0], ">=", 7, "pin7")])
        path = tmp_path / "pin7.json"
        path.write_text(json.dumps(model_to_dict(bp)))
        code, out, _ = run(capsys, "dim", "--problem", "raw", "--instance", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"problem": "raw", "n": 9, "ambient": 27, "count": 49, "dimension": 6}
        code, _, err = run(capsys, "dim", "--problem", "raw", "--instance", str(path), "--cap", "8")
        assert code == 4
        assert "2^9 scan refused (cap 8)" in err


class TestCheckFacet:
    def test_mixed_report(self, tmp_path, capsys):
        ineqs = [
            {"a": [0] * 12 + [1, 0, 0, 0, 0, 0], "a0": 0, "sense": ">=", "label": "z_lo"},
            {"a": [0] * 12 + [1, 0, 0, 0, 0, 0], "a0": -1, "sense": ">=", "label": "slack"},
        ]
        path = tmp_path / "ineqs.json"
        path.write_text(json.dumps(ineqs))
        code, out, _ = run(
            capsys, "check-facet", str(path), "--problem", "tsp", "--n", "4", "--format", "json"
        )
        assert code == 1  # one inequality is not a facet
        payload = json.loads(out)
        assert payload["dimension"] == 10
        by_label = {r["label"]: r for r in payload["reports"]}
        assert by_label["z_lo"]["is_facet"]
        assert by_label["slack"]["valid"] and not by_label["slack"]["is_facet"]

    def test_all_facets_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"a": [0] * 12 + [1, 0, 0, 0, 0, 0], "a0": 0, "sense": ">=", "label": "z"})
        )
        code, _, _ = run(capsys, "check-facet", str(path), "--problem", "tsp", "--n", "4")
        assert code == 0

    def test_wrong_width_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"a": [1, 0], "a0": 0, "sense": ">=", "label": "w"}))
        code, _, err = run(capsys, "check-facet", str(path), "--problem", "tsp", "--n", "4")
        assert code == 3

    def test_bad_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "check-facet", str(path), "--problem", "tsp", "--n", "4")
        assert code == 3


class TestVerify:
    def test_dimensions_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "dimensions")
        assert code == 0
        assert "OK: 15/15 claims" in out

    def test_epsilon_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "verify", "epsilon", "--trials", "4", "--seed", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["records"]) == 4
        assert payload["seed"] == 5

    def test_bad_suite_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sideways"])
        assert exc.value.code == 3


class TestUsage:
    # argparse exits 2 on a usage error, which here would read as "infeasible";
    # verify takes no tier option, so one is an unknown option like any other
    @pytest.mark.parametrize("argv", ["verify lifting --quick", "diameter --variant bogus", ""])
    def test_usage_error_is_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5", "five"])
    def test_trials_below_one_is_a_usage_error(self, trials, capsys):
        # a verification that checks nothing must not pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", "epsilon", "--trials", trials])
        assert exc.value.code == 3
        assert "--trials: must be an integer of at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["--help", "verify --help"])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestOutputHandling:
    def test_out_writes_file(self, ties_model, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", ties_model, "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "optimal"

    def test_json_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys,
                "verify",
                "epsilon",
                "--trials",
                "3",
                "--seed",
                "11",
                "--format",
                "json",
                "--out",
                str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
