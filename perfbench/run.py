"""Benchmark of roadworks: three workloads, five end-to-end metrics, per-layer traces.

    python3 perfbench/run.py --workload sf-plan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a process of its own
and is built from the checkout's src/ directory.  With --trace 0 the run
reports setup_s, solve_s, plan_s, replan_s and peak_rss_mb; with --trace 1 it
first makes the same untraced rounds, then one traced round, and reports the
per-layer metrics of that round.  Outputs are checked against computations
made apart from the program.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, ".results")
NAMES = ("sf-plan", "grid-solve", "desk-cli")
CHILD_TIMEOUT_S = 175

END_TO_END = {"setup_s": "s", "solve_s": "s", "plan_s": "s", "replan_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import roadworks from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import roadworks
    except ImportError as exc:
        raise SystemExit(f"cannot import roadworks from {src}: {exc}")

    if os.path.dirname(os.path.dirname(os.path.abspath(roadworks.__file__))) != src:
        raise SystemExit(f"roadworks was imported from {roadworks.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds within `seconds`, check, and reduce to metrics."""
    _import_program()
    from workloads import WORKLOADS, Ops, cpu_seconds

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_times = []
        for _ in range(workload.setup_reps):
            gc.collect()
            start = cpu_seconds()
            inputs = workload.setup()
            setup_times.append(cpu_seconds() - start)

        ops = Ops()
        rounds, costs = [], []
        # whole rounds, as many as fit in `seconds` judging by the last one, at least one
        start = time.perf_counter()
        while True:
            gc.collect()
            begin, wall = cpu_seconds(), time.perf_counter()
            rounds.append(workload.round(inputs, len(rounds), ops, lambda _name: contextlib.nullcontext()))
            costs.append(cpu_seconds() - begin)
            if time.perf_counter() - start + (time.perf_counter() - wall) > seconds:
                break
        failures = workload.check(inputs, rounds[0])
        failures += [f"round {i} gave other outputs than round 0"
                     for i, rnd in enumerate(rounds) if rnd.out != rounds[0].out]

        if trace:
            from layers import PER_LAYER as units

            metrics = _traced_round(workload, ops, rounds, costs, failures, name, seed)
        else:
            units = END_TO_END
            metrics = {
                # means, not medians: see workloads.Round
                "setup_s": statistics.fmean(setup_times),
                "solve_s": statistics.fmean(r.solve_s for r in rounds),
                "plan_s": statistics.fmean(r.plan_s for r in rounds),
                "replan_s": statistics.fmean(r.replan_s for r in rounds),
                "peak_rss_mb": _peak_rss_mb(),
            }
        return {
            "correct": not failures,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "rounds": len(rounds),
            "check_failures": failures,
            "failed_operations": sorted(set(ops.failures)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_round(workload, ops, rounds, costs, failures, name, seed) -> dict:
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import cpu_seconds

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = workload.setup()
        gc.collect()
        begin = cpu_seconds()
        rnd = workload.round(inputs, len(rounds), ops, tracer.span)
        cost = cpu_seconds() - begin
    finally:
        tracer.uninstall()
    if rnd.out != rounds[0].out:
        failures.append("the traced round gave other outputs than round 0")
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{name}-seed{seed}.jsonl"))
    untraced = statistics.median(costs)
    probe = workload.probe(inputs, rnd, len(rounds))
    return layer_metrics(tracer.spans, probe, 100.0 * (cost - untraced) / untraced)


def _report(name: str, args, result: dict) -> None:
    print(f"{name}: seed {args.seed}, trace {args.trace}, {result['rounds']} round(s), "
          f"attempted {result['attempted']}, failed {result['failed']}, correct {str(result['correct']).lower()}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    for text in result["failed_operations"]:
        print(f"  failed operation: {text}")
    for text in result["check_failures"]:
        print(f"  CHECK FAILED: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.in_process:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--in-process", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: workload process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        _report(name, args, results[name])
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(results[name], fh, indent=1)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
