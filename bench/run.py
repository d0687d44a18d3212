"""equicut benchmark: one run of one workload.

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout of the repository; equicut is imported
from ``src``.  Workloads: search, verify, relations, kernel (see README.md).

The run starts ``worker.py`` in a fresh single-threaded process that sets
the workload up, repeats whole rounds of it for ``--seconds``, then checks
every answer.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates plain and
traced rounds and reports the per-layer metrics and the tracing overhead.

``setup_s`` is the median over ``SETUP_PROBES`` extra processes that only
set up, half of them before the measured one and half after, plus the
measured one: each is timed from just before its start to its first timed
answer.  The traced run reports no ``setup_s`` and starts no probes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 8
# Time allowed for one set-up.  The measured process is also allowed twice
# the run length, for its rounds and its checks.
SETUP_TIMEOUT_S = 60
WORKLOADS = ("search", "verify", "relations", "kernel")
# One thread for numpy's BLAS too, so each workload runs on one core; a
# fixed hash seed keeps set and dict order the same in every run.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn(args: list, workdir: Path, timeout: float):
    """Run worker.py; return the moment just before its start and its last
    JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--workdir", str(workdir)]
    env = dict(os.environ, **CHILD_ENV)
    began = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return began, json.loads(lines[-1])


def probe(common: list, workdir: Path) -> float:
    """Set-up time of one process that sets up and exits."""
    began, out = spawn([*common, "--setup-only"], workdir, SETUP_TIMEOUT_S)
    return out["ready"] - began


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "equicut" / "__init__.py").is_file():
        print(f"error: no equicut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [probe(common, workdir / f"probe{k}") for k in range(probes // 2)]
        began, out = spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            workdir / "run",
            2 * args.seconds + SETUP_TIMEOUT_S,
        )
        setups.append(out["ready"] - began)
        setups += [probe(common, workdir / f"probe{k}") for k in range(probes // 2, probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = out["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
