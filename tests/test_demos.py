"""Each script in demos/ runs to completion against the package in src/, and
four demos print exactly their golden output (tests/golden/): the verifier
demo, which holds every failure detail the verifier reports to a user, the
generic-triangle demo, which holds its certification, its sweep's node
counts and the exact pieces of its standard result, the exact-number demo,
which holds merges across unrelated towers, a denesting and the literal
round trips, and the relations demo, which holds the named triangles'
first angle and side relations and the sampled triangles' certification."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


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


def test_generic_triangle_output_is_golden():
    proc = run_demo(ROOT / "demos" / "generic_triangle.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "generic_triangle.out").read_bytes()


def test_exact_numbers_output_is_golden():
    proc = run_demo(ROOT / "demos" / "exact_numbers.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "exact_numbers.out").read_bytes()


def test_angle_side_relations_output_is_golden():
    proc = run_demo(ROOT / "demos" / "angle_side_relations.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "angle_side_relations.out").read_bytes()
