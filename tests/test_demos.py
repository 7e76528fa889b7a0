"""Every demo script runs to completion against the source tree and prints
exactly its golden output, committed under tests/golden/ as <demo>.txt.

After an intended change to a demo's output, regenerate its golden file with
`PYTHONPATH=src python3 demos/<demo>.py > tests/golden/<demo>.txt`.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


@functools.cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_matches_golden(demo):
    proc = run_demo(demo)
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
