"""Workload process: one closed-loop caller driving the library in-process.

Run by run.py as its own process so that its peak resident memory is the
workload's.  Writes into the --out directory: answers.jsonl (one answer per
line, streamed so that the answers kept do not count towards peak memory),
worker.json (raw and speed-scaled latencies, see speed.py) and, when traced,
spans.tsv.  Only the
call itself is timed: building the next input and recording the answer happen
between calls.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gdecomp  # noqa: E402
import gdecomp.cli  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PLANS, WORKLOADS, build_item, fmt, plain_text  # noqa: E402

# A run stops at the first operation boundary past this much busy time, even
# short of its minimum, so the whole benchmark process ends within 180 s.  A
# traced run makes two passes and gives each half.
HARD_CAP_S = 110.0
PROBE_EVERY_S = 0.25


def rows(M) -> list:
    return [[fmt(v) for v in row] for row in M]


def prepare(item, input_path: Path):
    if item.call[0] == "peel":
        return gdecomp.SymMatrix(item.grid)
    argv = list(item.call[1])
    if item.grid is not None:
        input_path.write_text(plain_text(item.grid), encoding="utf-8")
        argv.append(str(input_path))
    return argv


def execute(item, prepared):
    """The timed call.  Module attributes are looked up per call, so a traced
    run reaches the wrappers."""
    if item.call[0] == "peel":
        combo = gdecomp.extremity.krein_milman_decompose(prepared, item.call[1])
        solves = [
            gdecomp.decomposition.g_decompose_extreme_inductive(V)
            for _, V in combo.terms
            if sum((sum(r, Fraction(0)) for r in V.entries), Fraction(0)) == V.m
        ]
        return combo, solves
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = gdecomp.cli.main(prepared)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def record(item, raw) -> dict:
    if isinstance(raw, dict):
        return raw
    combo, solves = raw
    return {
        "terms": [[fmt(w), rows(V.entries)] for w, V in combo.terms],
        "inductive": [rows(s.X) for s in solves],
    }


def run_pass(workload, seed, budget, input_path, answers=None, count=None, tracer=None,
             cap=HARD_CAP_S):
    """Operations 0, 1, ... until `count` are done or, without a count, until
    the minimum is reached and the round boundary nearest to `budget` seconds
    of busy time.  Answers are appended to the open file `answers`.

    Returns (latencies, scaled latencies).  The speed probe runs between
    operations at most every PROBE_EVERY_S and once at the end; an operation
    is scaled by the mean of the probes just before and just after it.
    """
    plan = PLANS[workload]
    latencies, probe_before = [], []
    probes = [speed.probe(plan.probe)]
    probed_at = time.perf_counter()
    busy = 0.0
    k = 0
    round_start = 0.0
    while busy < cap:
        if count is not None:
            if k == count:
                break
        elif k % plan.round_size == 0 and k:
            last_round = busy - round_start
            round_start = busy
            if k >= plan.min_items and busy + last_round / 2 >= budget:
                break
        item = build_item(workload, seed, k)
        prepared = prepare(item, input_path)
        if tracer is not None:
            tracer.item = k
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            probes.append(speed.probe(plan.probe))
            probed_at = time.perf_counter()
        probe_before.append(len(probes) - 1)
        start = time.perf_counter()
        try:
            raw = execute(item, prepared)
        except Exception as exc:  # an unexpected raise is a failed operation
            raw = {"raised": "%s: %s" % (type(exc).__name__, exc)}
        elapsed = time.perf_counter() - start
        if answers is not None:
            answers.write(json.dumps(record(item, raw)) + "\n")
        latencies.append(elapsed)
        busy += elapsed
        k += 1
    probes.append(speed.probe(plan.probe))
    reference = speed.REFERENCE_S[plan.probe]
    scaled = [
        t * reference * 2 / (probes[i] + probes[i + 1])
        for t, i in zip(latencies, probe_before)
    ]
    return latencies, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    input_path = args.out / "input.txt"
    report = {}
    with open(args.out / "answers.jsonl", "w", encoding="utf-8") as answers:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                latencies, scaled = run_pass(
                    args.workload, args.seed, args.seconds, input_path, answers,
                    count=PLANS[args.workload].trace_items, tracer=tracer, cap=HARD_CAP_S / 2,
                )
            finally:
                tracer.uninstall()
            _, untraced = run_pass(
                args.workload, args.seed, args.seconds, input_path,
                count=len(latencies), cap=HARD_CAP_S / 2,
            )
            tracer.write(args.out / "spans.tsv")
            report["per_layer"] = tracer.metrics()
            report["per_layer"]["trace.overhead_s"] = sum(scaled) - sum(untraced)
        else:
            latencies, scaled = run_pass(
                args.workload, args.seed, args.seconds, input_path, answers
            )
    report.update(
        latencies=latencies,
        scaled_latencies=scaled,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    (args.out / "worker.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
