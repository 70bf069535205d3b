"""Seeded byte mutations of well-formed input files, each run through
cli.main in process: every run ends in a documented exit code (0-4) and
none raises."""

import random

import pytest

from diamopt.cli import main
from test_cli_golden import ORDERING_MATRIX, RAW_MODEL, TOUR_TSPLIB

INEQUALITY = '[{"a": [1,0,0,0,0,0, 1,0,0,0,0,0, -1,0,0,0,0,0], "a0": 1, "sense": "<=", "label": "pair_ub_1"}]\n'

MODEL = (
    '{"n": 3, "objective": [1, -2, [3, 2]], "variable_names": ["a", "b", "c"],'
    ' "constraints": [{"name": "cap", "coeffs": [1, 1, 1], "sense": "<=", "rhs": 2},'
    ' {"name": "low", "coeffs": [1, 0, 1], "sense": ">=", "rhs": 1}]}\n'
)

# file name, content, and the commands that read it, {f} standing for the file
SOURCES = [
    ("ord.txt", ORDERING_MATRIX, ["diameter --problem lop --instance {f}"]),
    ("tour.tsp", TOUR_TSPLIB, ["diameter --problem tsp --instance {f}"]),
    ("raw.lp", RAW_MODEL, ["diameter --problem raw --instance {f}", "solve {f} --method both"]),
    ("q.json", INEQUALITY, ["check-facet {f} --problem lop --n 3"]),
    ("m.json", MODEL, ["diameter --problem raw --instance {f}", "solve {f} --method both"]),
]

ALPHABET = '0123456789-/.:,[]{}" \n+=<>e'
CASES = 300


def mutate(rng: random.Random, text: str) -> str:
    """text with 1-3 bytes at one place replaced, inserted or deleted."""
    k, pos = rng.randint(1, 3), rng.randrange(len(text) + 1)
    new = "".join(rng.choice(ALPHABET) for _ in range(k))
    op = rng.choice(("replace", "insert", "delete"))
    if op == "replace":
        return text[:pos] + new + text[pos + k :]
    if op == "insert":
        return text[:pos] + new + text[pos:]
    return text[:pos] + text[pos + k :]


def test_mutated_inputs_exit_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(0)
    codes = set()
    for case in range(CASES):
        name, text, commands = rng.choice(SOURCES)
        path = tmp_path / name
        path.write_text(mutate(rng, text))
        argv = rng.choice(commands).format(f=path)
        try:
            code = main(argv.split())
        except Exception as e:  # any exception is the failure, named with its input
            pytest.fail(f"case {case}: {argv} on {path.read_text()!r} raised {e!r}")
        capsys.readouterr()
        assert code in range(5), (case, argv, path.read_text())
        codes.add(code)
    # the mutations reach both answers and refusals
    assert {0, 3} <= codes
