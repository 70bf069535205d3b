"""Every ```python block of README.md runs against the current API."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
