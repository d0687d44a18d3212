"""Regenerate the reference figures in bench/README.md.

    python3 bench/reference.py

Prints Markdown: the node and result counts of every search instance (a
copy of today's output, not a check); then, for every workload in
BENCHMARK.json, the end-to-end metrics of two sets of runs over seeds 1 to
10, the second set started after the first has finished on every workload;
then one traced run per workload.  For each set it gives the median and the
spread (interquartile range over median), and it gives how much worse the
second median is than the first, as a share of the first.  Every run goes
through run.py with the arguments a benchmark harness passes, and each
result line is also appended to bench/.work/reference-runs.jsonl.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2


def search_instances() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    print("| instance | nodes | results | seconds |")
    print("|---|---:|---:|---:|")
    for name, counts in workloads.SEARCH_COUNTS.items():
        for m in counts:
            op = workloads.search_op(name, m)
            t0 = time.perf_counter()
            out = op.call()
            dt = time.perf_counter() - t0
            print(f"| {op.label[len('search '):]} | {out.nodes} | {len(out.dissections)} | {dt:.2f} |")
    print()


def run(workload: str, seed: int, trace: int, log) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correct=false\n{proc.stderr}")
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    log.flush()
    return result


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    search_instances()
    (HERE / ".work").mkdir(exist_ok=True)
    with open(HERE / ".work" / "reference-runs.jsonl", "a") as log:
        sets = [{w: [run(w, seed, 0, log) for seed in SEEDS] for w in names} for _ in range(SETS)]
        print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 worse by | bound |")
        print("|---|---|---:|---:|---:|---:|---:|---:|")
        for w in names:
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                (m1, s1), (m2, s2) = (summary([r["metrics"][name]["value"] for r in s[w]]) for s in sets)
                worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
                print(f"| {w} | {name} ({metric['unit']}) | {m1:.4g} | {s1:.3f} | {m2:.4g} | {s2:.3f} "
                      f"| {worse:+.3f} | {metric['bound']} |")
            shares = [sorted({r["failed"] / r["attempted"] for r in s[w]}) for s in sets]
            print(f"| {w} | failed share | {shares[0]} | | {shares[1]} | | | |")
        print()
        print("| workload | " + " | ".join(names) + " |")
        print("|---|" + "---:|" * len(names))
        traced = {w: run(w, 1, 1, log)["metrics"] for w in names}
        for metric in SPEC["per_layer"]:
            cells = [f"{traced[w][metric['name']]['value']:.4g}" for w in names]
            print(f"| {metric['name']} ({metric['unit']}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
