import json
import os
import pathlib
import subprocess
import sys

import pytest

from diamopt import suites, tsp
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
        assert "epsilon must be positive" in err
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

    @pytest.mark.parametrize("problem,n", [("lop", "3"), ("tsp", "5")])
    def test_points_text_matches_per_coordinate_formatting(self, problem, n, capsys):
        code, out, _ = run(capsys, "points", "--problem", problem, "--n", n)
        assert code == 0
        ps = suites._paired_points(suites.FAMILIES[problem], int(n))
        header = f"# {problem} n={n} ambient={ps.dim_ambient} count={ps.count}"
        rows = ["".join(str(int(v)) for v in row) for row in ps.array]
        assert out.splitlines() == [header] + rows

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_points_listing_bytes(self, fmt, tmp_path, capsys):
        # the listing is written in pieces; its bytes are those of the one
        # string per point report, on 35,712 points (three pieces)
        ps = suites._paired_points(suites.FAMILIES["tsp"], 5)
        rows = ["".join(map(str, row)) for row in ps.array.tolist()]
        meta = {"problem": "tsp", "n": 5, "ambient": 30, "count": ps.count}
        if fmt == "json":
            want = json.dumps(dict(meta, points=rows), sort_keys=True, separators=(",", ":")) + "\n"
        else:
            want = "\n".join(["# tsp n=5 ambient=30 count=35712", *rows]) + "\n"
        path = tmp_path / "points.out"
        code, out, _ = run(capsys, "points", "--problem", "tsp", "--n", "5", "--format", fmt)
        assert code == 0 and out == want
        assert main(["points", "--problem", "tsp", "--n", "5", "--format", fmt, "--out", str(path)]) == 0
        assert path.read_bytes() == want.encode()

    def test_points_listing_to_a_closed_pipe(self):
        # the reader takes 100 bytes of a 1.1 MB listing and closes the pipe:
        # no error message and exit 0, not an input error
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "diamopt.cli", "points", "--problem", "tsp", "--n", "5"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0 and err == b""
        assert head.startswith(b"# tsp n=5 ambient=30 count=35712\n")

    def test_max_points_exit(self, capsys):
        code, _, err = run(
            capsys, "points", "--problem", "tsp", "--n", "6", "--max-points", "100"
        )
        assert code == 4
        assert "cap exceeded" in err

    def test_huge_max_points(self, capsys):
        # a limit far past sys.maxsize is a limit, not bad input
        code, out, err = run(capsys, "dim", "--problem", "lop", "--n", "3", "--max-points", "1" + "0" * 41)
        assert code == 0 and err == ""
        assert "dimension: 12" in out.splitlines()

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


def ordered_pair_count(points):
    """The paired point count from first principles: the sum over ordered
    pairs (u, v) of base points of 2^(n - |u AND v|), on Python integers."""
    masks = [int("".join(map(str, p)), 2) for p in points]
    n = len(points[0])
    return sum(1 << (n - (u & v).bit_count()) for u in masks for v in masks)


class TestPastThePointCap:
    """dim and check-facet build no point, so --max-points bounds only their
    pair grid and face cells; points, which lists the points, exits 4."""

    @pytest.mark.parametrize("problem,n,count,dim", [("lop", 5, 1_199_923_200, 40), ("tsp", 6, 31_119_360, 33)])
    def test_dim_past_the_point_count(self, problem, n, count, dim, capsys):
        base = list(suites.FAMILIES[problem].module.base_points(n))
        assert ordered_pair_count(base) == count
        code, out, err = run(capsys, "dim", "--problem", problem, "--n", str(n), "--format", "json")
        assert code == 0 and err == ""
        want = {"ambient": 3 * len(base[0]), "count": count, "dimension": dim, "n": n, "problem": problem}
        assert json.loads(out) == want
        code, out, err = run(capsys, "points", "--problem", problem, "--n", str(n))
        assert code == 4 and out == ""
        assert f"point listing of {count} points exceeds max_points=2000000" in err

    def test_dim_stops_at_the_pair_grid(self, capsys):
        # ordering n=6: 720 base points, 518,400 grid cells; n=7: 5,040
        # base points, whose grid passes the default 2,000,000
        code, out, _ = run(capsys, "dim", "--problem", "lop", "--n", "6")
        assert code == 0 and "dimension: 60" in out.splitlines()
        code, out, err = run(capsys, "dim", "--problem", "lop", "--n", "7")
        assert code == 4 and out == ""
        assert "pair grid of 1415 or more base points exceeds max_points=2000000" in err

    def test_tour6_coupling_facet(self, tmp_path, capsys):
        a = [0] * 45
        a[0], a[15], a[30] = 1, 1, -1
        path = tmp_path / "pair_ub_1.json"
        path.write_text(json.dumps([{"a": a, "a0": 1, "sense": "<=", "label": "pair_ub_1"}]))
        code, out, err = run(capsys, "check-facet", str(path), "--problem", "tsp", "--n", "6")
        assert code == 0 and err == ""
        assert out == "FACET      pair_ub_1 (face dim 32/33, tight on 12447744)\n"


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
        assert "inequality 'w' has 2 coefficients, ambient dimension is 18" in err

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

    @pytest.mark.parametrize("limit", ["0", "-5", "five"])
    def test_max_points_below_one_is_a_usage_error(self, limit, capsys):
        # not a cap overflow (exit 4): no set fits a limit below 1
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--problem", "lop", "--n", "3", "--max-points", limit])
        assert exc.value.code == 3
        assert "--max-points: must be an integer of at least 1" in capsys.readouterr().err

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
