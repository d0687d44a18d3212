"""One benchmark process: set a workload up, run whole rounds of it for the
requested time, check every answer, and print one JSON line.

run.py starts this script; it can also be run by hand with the same
arguments.  With ``--setup-only`` it stops where the timed phase would
start and prints only that moment, so run.py can time set-up again in a
fresh process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

def metric_name(layer: str, what: str) -> str:
    """``exact.sign`` + ``calls`` -> ``exact.sign_calls``; ``search`` +
    ``self_s`` -> ``search.self_s``."""
    return f"{layer}{'_' if '.' in layer else '.'}{what}"


def run_round(workload, records, first, tracer=None) -> float:
    """Run every operation once and return the round's wall time.

    Appends (op index, seconds, fingerprint hash, error) to ``records``.
    The first output of each operation is kept in ``first`` for the checks;
    later outputs are reduced to a hash once the round is timed, so memory
    does not grow with the number of rounds.
    """
    clock = time.perf_counter
    outputs = []
    began = clock()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.answer = len(records) + len(outputs)
        t0 = clock()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        outputs.append((i, clock() - t0, out, err))
    elapsed = clock() - began
    for i, dt, out, err in outputs:
        digest = None
        if err is None:
            digest = hash(workload.ops[i].fingerprint(out))
            first.setdefault(i, out)
        records.append((i, dt, digest, err))
    return elapsed


def expected_failure(op, err: Exception) -> bool:
    """Whether ``err`` is the one failure ``op`` is known to end in."""
    if op.expect_error is None:
        return False
    kind, text = op.expect_error
    return type(err) is kind and text in str(err)


def check(workload, records, first) -> list:
    """Check the first answer of each operation with its oracle, compare
    every repeat with that first answer, and run the workload's self-tests."""
    problems = []
    for i, out in sorted(first.items()):
        op = workload.ops[i]
        problems += [f"{op.label}: {p}" for p in op.check(out)]
    digests = {i: hash(workload.ops[i].fingerprint(out)) for i, out in first.items()}
    for i, _, digest, err in records:
        op = workload.ops[i]
        if err is not None:
            if not expected_failure(op, err):
                problems.append(f"{op.label}: unexpected {type(err).__name__}: {err}")
        elif digest != digests[i]:
            problems.append(f"{op.label}: an answer differs from its first answer")
    accepted = workload.selftest(first)
    for op in workload.ops:
        if op.expect_error and expected_failure(op, ValueError("height must be at least 1")):
            accepted.append(f"{op.label}: another ValueError taken for its failure")
    problems += [f"self-test accepted a wrong output: {p}" for p in accepted]
    return problems


def layer_metrics(tracer, traced_rounds: int, untraced_answer_s: float, overhead: float) -> dict:
    """Per-layer metrics from the traced rounds.  Rates divide a per-round
    count by the untraced answer time of one round."""
    from tracer import LAYERS

    per = 1.0 / traced_rounds
    m = {}
    for layer, spec in LAYERS.items():
        if spec.report_calls:
            m[metric_name(layer, "calls")] = (tracer.calls[layer] * per, "count")
        m[metric_name(layer, "self_s")] = (tracer.self_s[layer] * per, "s")
    for name, count in (("dissect.pairs_tested", tracer.pairs_tested),
                        ("search.nodes", tracer.nodes),
                        ("relations.combinations", tracer.combinations)):
        m[name] = (count * per, "count")
    m["search.nodes_per_s"] = (tracer.nodes * per / untraced_answer_s, "1/s")
    m["relations.combinations_per_s"] = (tracer.combinations * per / untraced_answer_s, "1/s")
    m["trace.overhead_pct"] = (overhead, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ready = time.perf_counter()
    if args.setup_only:
        workload.close()
        print(json.dumps({"ready": ready}))
        return 0

    records, first = [], {}
    if not args.trace:
        start = time.perf_counter()
        round_s = []
        while True:
            round_s.append(run_round(workload, records, first))
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = defaultdict(list)
        for i, dt, _, err in records:
            if err is None:
                times[i].append(dt)
        # A shared machine's speed drifts over seconds.  A median over rounds
        # jumps between its fast and slow spells, so both figures average
        # over the whole timed phase instead: answers over the summed round
        # time, and the median over the operations of each one's mean time.
        answers = sum(map(len, times.values()))
        typical = [statistics.fmean(v) for v in times.values()]
        metrics = {
            "answers_per_s": {"value": answers / sum(round_s), "unit": "1/s"},
            "answer_p50_ms": {"value": statistics.median(typical) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        plain_s, traced_s, plain_rounds, traced_rounds = 0.0, 0.0, 0, 0
        answer_s = 0.0
        start = time.perf_counter()
        while True:
            mark = len(records)
            plain_s += run_round(workload, records, first)
            plain_rounds += 1
            answer_s += sum(dt for _, dt, _, err in records[mark:] if err is None)
            tracer.install()
            try:
                traced_s += run_round(workload, records, first, tracer)
            finally:
                tracer.uninstall()
            traced_rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        overhead = 100.0 * ((traced_s / traced_rounds) / (plain_s / plain_rounds) - 1.0)
        metrics = layer_metrics(tracer, traced_rounds, answer_s / plain_rounds, overhead)
        tracer.write_spans(HERE / ".work" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    problems = check(workload, records, first)
    workload.close()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3] is not None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
