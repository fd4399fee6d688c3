"""gdecomp benchmark: one command per workload, metrics as one JSON line.

    python3 perfbench/run.py --workload check|decompose|peel|grid \\
        --seed N --seconds S --trace 0|1

With --trace 0 it measures set-up time (12 fresh interpreter starts, half
before and half after the worker), runs the workload in a worker process for
about S seconds of busy time (whole rounds, at least the workload's minimum
operation count) and prints the end-to-end metrics.  Times are scaled to a
reference machine speed by the probe in speed.py; the raw figures are on the
`info` line.  With --trace 1
the worker runs a fixed number of operations under span tracing, replays them
untraced, and the per-layer metrics are printed instead.  Either way every
answer passes through the correctness gate (gate.py) after the worker ends;
`failed` counts operations that raised, exited 2 or 3, or were rejected.

Outputs go to .perfbench-out/<workload>/ under the repository root.  Exit
status is 0 only when a result line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from gate import answer_digest, judge, load_reference  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import PLANS, WORKLOADS, build_item  # noqa: E402

SETUP_CODE = "import gdecomp, gdecomp.cli; gdecomp.cli.build_parser()"
SETUP_STARTS = 12
DEADLINE_S = 150.0

END_TO_END = [
    ("throughput", "matrices/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
]


def time_starts(env, n: int) -> list:
    """(raw, speed-scaled) wall times of n fresh interpreters importing gdecomp
    and building the CLI parser; each start is scaled by the mean of a probe
    just before and one just after it.

    The child is awaited with a blocking wait: a wait with a timeout polls
    and would round every reading up to the polling interval.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(n):
        probe = speed.probe("fraction")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise RuntimeError("set-up command exited with status %d" % code)
        elapsed = time.perf_counter() - start
        probe += speed.probe("fraction")
        times.append((elapsed, elapsed * speed.REFERENCE_S["fraction"] * 2 / probe))
    return times


def percentile(values, pct) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "gdecomp" / "cli.py").is_file():
        print("perfbench: no gdecomp sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if not args.trace:
        time_starts(env, 1)  # fills the bytecode cache; users do not pay that per call
        starts = time_starts(env, SETUP_STARTS // 2)

    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out_dir),
    ]
    result_file = out_dir / "worker.json"
    result_file.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            worker, env=env, cwd=ROOT,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_file.is_file():
        print("perfbench: worker failed with status %d" % proc.returncode, file=sys.stderr)
        return 1
    report = json.loads(result_file.read_text(encoding="utf-8"))
    if not args.trace:
        # half the starts after the worker, so set-up time spans the whole run
        starts += time_starts(env, SETUP_STARTS - len(starts))
    with open(out_dir / "answers.jsonl", encoding="utf-8") as handle:
        outcomes = [json.loads(line) for line in handle]

    plan = PLANS[args.workload]
    reference = load_reference() if args.workload == "grid" else None
    failures = {}
    matrices = 0
    for k, outcome in enumerate(outcomes):
        item = build_item(args.workload, args.seed, k)
        matrices += item.matrices
        reason = judge(args.workload, item, outcome, reference)
        if reason:
            failures[k] = "%s: %s" % (item.kind, reason)
    attempted = len(outcomes)
    failed = len(failures)

    raw, scaled = report["latencies"], report["scaled_latencies"]
    tail = percentile(scaled, plan.tail_pct)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": attempted,
        "busy_s": sum(raw),
        "failed_share": failed / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())[:10]},
        "latency_tail_percentile": plan.tail_pct,
        "latency_tail_samples_beyond": sum(1 for x in scaled if x > tail),
        "answer_digest": answer_digest(outcomes[: plan.trace_items if args.trace else plan.min_items]),
        "raw": {
            "throughput": matrices / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_tail_ms": percentile(raw, plan.tail_pct) * 1000,
        },
    }
    if args.trace:
        layer = report["per_layer"]
        unit = {name: u for name, u, _ in PER_LAYER}
        metrics = {name: {"value": layer.get(name, 0), "unit": unit[name]} for name, _, _ in PER_LAYER}
    else:
        info["raw"]["setup_s"] = statistics.median(t for t, _ in starts)
        values = {
            "throughput": matrices / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1000,
            "latency_tail_ms": tail * 1000,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(t for _, t in starts),
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    (out_dir / "result.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
