"""Each script in demos/ runs to completion against the package in src/, and
the verifier demo prints exactly its golden output (tests/golden/), which
holds every failure detail the verifier reports to a user."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


def run_demo(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr.decode()


def test_verify_and_break_output_is_golden():
    proc = run_demo(ROOT / "demos" / "verify_and_break.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "verify_and_break.out").read_bytes()
