"""Byte-level pins of the demos' output.

Each demo in demos/ runs in its own interpreter, and the sha256 of its
stdout is compared with a recorded value, so a library change that alters
what a demo prints, however slightly, fails here.  A change that alters a
demo's output on purpose records the new digest and says why.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DIGESTS = {
    "diverse_orderings.py": "61d762e70c41cc98a6f350269a65b44a8ca13368893c466bd0aed2391403351f",
    "diverse_tours.py": "99d272c80583fe83cbbde2adbf8ff81e63a36affe1be2aa9cd25654f2e60ce36",
    "epsilon_rules.py": "0bfb24ea1cbe69036a3a93e7741e3448616b14a08cfa29c69a6a9f742a36af51",
    "facet_certification.py": "e75d8662769f2e4438582a7e0d0a1b3977d5222063dca6d0d845af36af7b5ff1",
    "polytope_dimensions.py": "c3e7758328fe00f1693ba0e78e87c71282f8b9664d7a5dd90688fa8ad90ee3ff",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_bytes(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo], proc.stdout.decode()[:2000]
