#!/usr/bin/env python3
"""Alternating side-by-side perfbench pairs: a base revision against the working tree.

    PYTHONPATH=src python scripts/bench_pairs.py --base HEAD --workload desk-cli --pairs 10 [--first-seed 11]

Copies the base revision (`git archive`) and the working tree (its tracked
and untracked files that git does not ignore) side by side into one
temporary directory, so neither side runs from the checkout itself.  For N
seeds from --first-seed on (default 1; a confirmation run can take seeds no
earlier run used) it runs `perfbench/run.py --seconds 30` on both copies,
the base first on odd seeds and the change first on even ones, and prints
each pair's five end-to-end metrics, then per metric each side's median and
quartiles, the base's interquartile range, the pairs the change won (lower;
a tie counts for neither), the median change/base ratio and whether a gain
may be claimed: the change won at least nine tenths of the pairs and its
median is below the base's by more than the base's interquartile range.
Each line ends with a no-regression verdict against the metric's bound in
BENCHMARK.json's `end_to_end` list, the only thing read from that file:
`worse` when the change's median exceeds the base's by more than the bound,
`unresolved` when the base's interquartile range over its median exceeds the
bound and not every change run is lower than every base run, else `held`.
`--workload all` runs every workload for each seed, names the workload in
each pair's line and prints one such summary block per workload, headed by
its name, so one command shows a claim and every no-regression row.
Last it says whether every run was correct with no failed operation.  The
copies are removed at the end.  Usage errors exit 1, an unknown revision or
a failed run 2.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from roadworks.cli import UsageParser, run_command  # noqa: E402
from roadworks.errors import DataError  # noqa: E402

WORKLOADS = ("sf-plan", "grid-solve", "desk-cli")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    # every end-to-end metric is better lower; a bound is a fraction of the base's median
    BOUNDS = {m["name"]: m["bound"] for m in json.load(_fh)["end_to_end"]}
METRICS = tuple(BOUNDS)
SECONDS = "30"


def count(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def build_parser():
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",), help="a workload, or all of them")
    ap.add_argument("--pairs", required=True, type=count, help="number of pairs, one seed each")
    ap.add_argument("--first-seed", type=count, default=1, help="seed of the first pair (default 1)")
    return ap


def _git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=False, **kwargs)


def _copy_base(rev, dest):
    archive = _git("archive", "--format=tar", rev)
    if archive.returncode != 0:
        raise DataError(f"git archive {rev}: {archive.stderr.decode().strip()}")
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def _copy_tree(dest):
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.stdout.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def _run(side, workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", SECONDS],
        cwd=side, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise DataError(f"perfbench in {side} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of `values`, by linear
    interpolation between order statistics; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, median, third


def verdict(base, change, bound):
    """'worse', 'unresolved' or 'held': the change's runs of one metric against
    the base's, under a bound on the rise of the median as a fraction of it."""
    b1, b2, b3 = quartiles(base)
    if statistics.median(change) > b2 * (1 + bound):
        return "worse"
    if b3 - b1 > bound * b2 and not max(change) < min(base):
        return "unresolved"
    return "held"


def summarize(base, change):
    """One line per metric of METRICS; `base` and `change` map each metric to
    its values, one per pair, in pair order.  Every metric is better lower."""
    lines = []
    for m in METRICS:
        pairs = list(zip(base[m], change[m]))
        b1, b2, b3 = quartiles(base[m])
        c1, c2, c3 = quartiles(change[m])
        won = sum(c < b for b, c in pairs)
        ratio = statistics.median(c / b if b else float("nan") for b, c in pairs)
        gain = 10 * won >= 9 * len(pairs) and b2 - c2 > b3 - b1
        lines.append(
            f"{m}: base {b2:.4g} [{b1:.4g}, {b3:.4g}], change {c2:.4g} [{c1:.4g}, {c3:.4g}], "
            f"base IQR {b3 - b1:.4g}, change lower in {won}/{len(pairs)} pairs, "
            f"median change/base {ratio:.3f}, gain {str(gain).lower()}, "
            f"verdict {verdict(base[m], change[m], BOUNDS[m])} (bound {BOUNDS[m]:g})"
        )
    return lines


def run(argv):
    args = build_parser().parse_args(argv)
    if _git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").returncode != 0:
        raise DataError(f"unknown revision {args.base!r}")
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        sides = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
        _copy_base(args.base, sides["base"])
        _copy_tree(sides["change"])
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        values = {w: {name: {m: [] for m in METRICS} for name in sides} for w in workloads}
        healthy = True
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for workload in workloads:
                result = {name: _run(sides[name], workload, seed) for name in order}
                cells = []
                for m in METRICS:
                    base, change = (result[name]["metrics"][m]["value"] for name in ("base", "change"))
                    values[workload]["base"][m].append(base)
                    values[workload]["change"][m].append(change)
                    cells.append(f"{m} {base:.4g} -> {change:.4g}")
                status = "  ".join(f"{name} correct {str(r['correct']).lower()} failed {r['failed']}"
                                   for name, r in result.items())
                healthy &= all(r["correct"] and r["failed"] == 0 for r in result.values())
                label = f"pair {seed - args.first_seed + 1}, seed {seed}"
                if len(workloads) > 1:
                    label += f", {workload}"
                print(f"{label} ({order[0]} first): {', '.join(cells)}; {status}", flush=True)
        for workload in workloads:
            if len(workloads) > 1:
                print(f"{workload}:")
            print("\n".join(summarize(values[workload]["base"], values[workload]["change"])))
        print(f"every run correct with 0 failed operations: {str(healthy).lower()}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    return run_command(run, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
