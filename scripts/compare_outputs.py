#!/usr/bin/env python3
"""Run a fixed list of roadworks commands on a base revision and on the working tree, and compare their outputs.

    PYTHONPATH=src python scripts/compare_outputs.py --base HEAD

Copies both sides into one temporary directory as scripts/bench_pairs.py
does: the base revision by `git archive`, the working tree as its tracked
and untracked files that git does not ignore.  Each side then runs COMMANDS
in order through `python -m roadworks.cli`, with its own package and its own
`tests/data`, from its own root, writing into its `out/` directory, which the
commands share as the README walkthrough's caches do.  The commands are the
README desk walkthrough; desk's `deltas --mode all-subsets`, `error-report
--orders 1,2,3,8` and `schedule --independent` with a growth rule; and Sioux
Falls' `solve --out`, `deltas --mode pairs` and `schedule` with a growth
rule.

For each command it prints whether its stdout, its stderr, its exit code and
every file in `out/` after it ran are the same on both sides, naming the files
that differ, and last `identical: true` or `identical: false`.  It exits 0
either way once every command ran; usage errors exit 1, an unknown revision
2.  The copies are removed at the end.
"""

import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import _copy_base, _copy_tree, _git  # noqa: E402
from roadworks.cli import UsageParser, run_command  # noqa: E402
from roadworks.errors import DataError  # noqa: E402

DATA = "tests/data/"
DESK = ["--net", DATA + "desk_net.tntp", "--trips", DATA + "desk_trips.tntp",
        "--nodes", DATA + "desk_nodes.tntp", "--upgrades", DATA + "desk_upgrades.upg"]
SIOUX = ["--net", DATA + "siouxfalls_net.tntp", "--trips", DATA + "siouxfalls_trips.tntp",
         "--nodes", DATA + "siouxfalls_nodes.tntp", "--upgrades", DATA + "siouxfalls_upgrades.upg"]
# written into out/ on both sides before the first command
GROWTH = {"desk-growth.rules": "SCALE 1 1.08\n", "sf-growth.rules": "SCALE 1-12 1.05\n"}
DESK_GAP = ["--gap", "1e-8"]
SIOUX_GAP = ["--gap", "1e-4"]
# (label, roadworks arguments)
COMMANDS = [
    ("desk deltas individual", ["deltas", *DESK, "--mode", "individual", "--cache", "out/desk.cache", *DESK_GAP]),
    ("desk predict-pairs", ["predict-pairs", *DESK, "--pairs-threshold", "10.5"]),
    ("desk deltas pairs", ["deltas", *DESK, "--mode", "pairs", "--pairs-threshold", "10.5",
                           "--cache", "out/desk.cache", *DESK_GAP]),
    ("desk select", ["select", *DESK, "--cache", "out/desk.cache", "--budget", "2400", "--m", "3650", *DESK_GAP]),
    ("desk schedule", ["schedule", *DESK, "--budgets", "900,900,1700", "--rate", "0.05", "--m", "3650",
                       "--pairs-threshold", "10.5", "--cache-dir", "out/desk-caches", *DESK_GAP]),
    ("desk deltas all-subsets max 3", ["deltas", *DESK, "--mode", "all-subsets", "--max-size", "3",
                                       "--cache", "out/desk.cache", *DESK_GAP]),
    ("desk error-report 1,2,3", ["error-report", *DESK, "--cache", "out/desk.cache", "--orders", "1,2,3", *DESK_GAP]),
    ("desk deltas all-subsets", ["deltas", *DESK, "--mode", "all-subsets", "--cache", "out/desk.cache", *DESK_GAP]),
    ("desk error-report 1,2,3,8", ["error-report", *DESK, "--cache", "out/desk.cache", "--orders", "1,2,3,8",
                                   *DESK_GAP]),
    ("desk schedule independent growth", ["schedule", *DESK, "--budgets", "900,900,1700", "--rate", "0.05",
                                          "--independent", "--growth-file", "out/desk-growth.rules",
                                          "--cache-dir", "out/desk-caches", *DESK_GAP]),
    ("sioux solve", ["solve", *SIOUX, "--max-iters", "2000", "--out", "out/flows.txt", *SIOUX_GAP]),
    ("sioux deltas pairs", ["deltas", *SIOUX, "--mode", "pairs", "--cache", "out/sf.cache", *SIOUX_GAP]),
    ("sioux schedule growth", ["schedule", *SIOUX, "--budgets", "1500,1500,2000", "--rate", "0.05",
                               "--pairs-count", "3", "--growth-file", "out/sf-growth.rules",
                               "--cache-dir", "out/sf-caches", *SIOUX_GAP]),
]


def build_parser():
    ap = UsageParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    return ap


def _files(root):
    """Every file under `root`, by its path below it, with its bytes."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def _run(side, argv):
    """(exit code, stdout, stderr, files in out/) of one command on one side."""
    env = dict(os.environ, PYTHONPATH=os.path.join(side, "src"))
    proc = subprocess.run([sys.executable, "-m", "roadworks.cli", *argv], cwd=side, env=env,
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr, _files(os.path.join(side, "out"))


def compare(label, base, change):
    """One report line for a command's (exit code, stdout, stderr, files)
    on both sides, as `_run` returns them, and whether all four match."""
    parts = [f"{name} {'same' if b == c else 'differs'}"
             for name, b, c in zip(("exit code", "stdout", "stderr"), base, change)]
    (b_code, *_, b_files), (c_code, *_, c_files) = base, change
    parts[0] += f" ({b_code})" if b_code == c_code else f" ({b_code} -> {c_code})"
    differ = sorted(name for name in set(b_files) | set(c_files) if b_files.get(name) != c_files.get(name))
    parts.append(f"files {'same' if not differ else 'differ: ' + ' '.join(differ)} ({len(c_files)})")
    return f"{label}: {', '.join(parts)}", base == change


def run(argv):
    args = build_parser().parse_args(argv)
    if _git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").returncode != 0:
        raise DataError(f"unknown revision {args.base!r}")
    work = tempfile.mkdtemp(prefix="compare-outputs-")
    try:
        base, change = os.path.join(work, "base"), os.path.join(work, "change")
        _copy_base(args.base, base)
        _copy_tree(change)
        for side in (base, change):
            os.makedirs(os.path.join(side, "out"), exist_ok=True)
            for name, text in GROWTH.items():
                with open(os.path.join(side, "out", name), "w") as fh:
                    fh.write(text)
        identical = True
        for label, command in COMMANDS:
            line, same = compare(label, _run(base, command), _run(change, command))
            identical &= same
            print(line, flush=True)
        print(f"identical: {str(identical).lower()}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    return run_command(run, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
