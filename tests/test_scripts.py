"""The scripts: the full-scale driver, run end to end on the desk fixtures, and
the argument checks and seed order of the benchmark-pair runner."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import roadworks.scenario as scenario
from roadworks import PlanningHorizon, demand_fingerprint, network_fingerprint, parse_growth_rules
from roadworks.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_fullscale.py"


def load_script(path=SCRIPT):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def driver_args(data_dir, cache_dir, *extra, gap="1e-8"):
    return [
        "--net", str(data_dir / "desk_net.tntp"),
        "--trips", str(data_dir / "desk_trips.tntp"),
        "--nodes", str(data_dir / "desk_nodes.tntp"),
        "--projects", str(data_dir / "desk_upgrades.upg"),
        "--gap", gap,
        "--max-iters", "1000",
        "--cache-dir", str(cache_dir),
        *extra,
    ]


def run_script(argv):
    """The driver in a process of its own, so its warnings reach stderr as a user sees them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, env=env, timeout=120)


def unstamped(out):
    return re.sub(r"^\[[0-9:]+\] ", "", out, flags=re.M)


def record_solves(monkeypatch, script):
    """Log every equilibrium solve as (layer, (network, demand, subset)).

    Every solve goes through the subset layer, which hands its problems to
    the solver in batches; the layer is "realized" for those handed over
    inside the driver's `realized_npv` call and "book" for the others.  All
    of them read through the driver's file-backed caches.  The network is
    the one a subset is built on, so one key per solve means no subset was
    solved twice under the same conditions.
    """
    solves = []
    built = {}
    layer = ["book"]
    apply_upgrades = scenario.apply_upgrades
    solve_batch = scenario._solve_batch
    realized_npv = script.realized_npv

    def recording_apply(net, upgrades, subset):
        modified = apply_upgrades(net, upgrades, subset)
        built[id(modified)] = (modified, network_fingerprint(net), tuple(subset))
        return modified

    def recording_solve(problems, settings):
        for net, demand in problems:
            _, base, subset = built.get(id(net), (net, network_fingerprint(net), ()))
            solves.append((layer[-1], (base, demand_fingerprint(demand), subset)))
        return solve_batch(problems, settings)

    def recording_realized(*args, **kwargs):
        layer.append("realized")
        try:
            return realized_npv(*args, **kwargs)
        finally:
            layer.pop()

    monkeypatch.setattr(scenario, "apply_upgrades", recording_apply)
    monkeypatch.setattr(scenario, "_solve_batch", recording_solve)
    monkeypatch.setattr(script, "realized_npv", recording_realized)
    return solves


def test_fullscale_driver_runs_on_desk(data_dir, desk, tmp_path, capsys, monkeypatch):
    script = load_script()
    cache_dir = tmp_path / "cache"
    growth = tmp_path / "growth.rules"
    growth.write_text("SCALE 1-2 1.1\n")
    argv = driver_args(data_dir, cache_dir, "--budgets", "900,900,1700", "--growth-file", str(growth))
    solves = record_solves(monkeypatch, script)
    assert script.main(argv) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    out = captured.out
    for stage in ("baseline VHT", "greedy schedule over 3 periods", "independent schedule realized NPV",
                  "at-horizon NPV"):
        assert stage in out

    # cold: 54 distinct solves, each once; realized_npv reads through the
    # driver's book, so it reuses greedy's period baselines and makes 4
    keys = Counter(key for _, key in solves)
    assert max(keys.values()) == 1
    assert len(solves) <= 54
    assert [layer for layer, _ in solves].count("realized") == 4

    # one fingerprint-named file per (network, demand), the base demand of
    # every period among them
    names = sorted(p.name for p in cache_dir.iterdir())
    assert all(re.fullmatch(r"deltas_[0-9a-f]{16}_[0-9a-f]{16}\.cache", name) for name in names)
    horizon = PlanningHorizon.with_growth(
        (900.0, 900.0, 1700.0), 0.04, desk.demand, parse_growth_rules(growth.read_text())
    )
    for t in (1, 2, 3):
        name = f"deltas_{network_fingerprint(desk.net)}_{demand_fingerprint(horizon.demand_for(t))}.cache"
        assert name in names
    snapshot = {name: (cache_dir / name).read_text() for name in names}

    # warm: no solves, and no cache file grows
    solves.clear()
    assert script.main(argv) == 0
    assert unstamped(capsys.readouterr().out) == unstamped(out)
    assert solves == []
    assert {p.name: p.read_text() for p in cache_dir.iterdir()} == snapshot


def test_fullscale_accuracy_stage_reads_every_cached_row(data_dir, tmp_path, capsys):
    script = load_script()
    argv = driver_args(data_dir, tmp_path / "cache", "--skip-schedule")
    assert script.main(argv) == 0
    hint = [line for line in capsys.readouterr().out.splitlines() if "no subsets of size >= 3" in line]
    path = hint[0].split("--cache ")[1].split()[0]

    desk_flags = [
        "--net", str(data_dir / "desk_net.tntp"),
        "--trips", str(data_dir / "desk_trips.tntp"),
        "--nodes", str(data_dir / "desk_nodes.tntp"),
        "--upgrades", str(data_dir / "desk_upgrades.upg"),
        "--gap", "1e-8", "--cache", path,
    ]
    assert cli_main(["deltas", *desk_flags, "--mode", "all-subsets", "--max-size", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["error-report", *desk_flags, "--orders", "1,2,3"]) == 0
    report = capsys.readouterr().out
    assert "all subsets size <= 3" in report

    assert script.main(argv) == 0
    out = capsys.readouterr().out
    assert report in out
    assert "no subsets of size >= 3" not in out


def test_fullscale_driver_rejects_a_cache_for_another_gap(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert load_script().main(driver_args(data_dir, cache_dir, "--skip-schedule")) == 0
    capsys.readouterr()
    rerun = run_script(driver_args(data_dir, cache_dir, "--skip-schedule", gap="1e-6"))
    assert rerun.returncode == 2
    assert "Traceback" not in rerun.stderr
    assert rerun.stderr.startswith(f"error: cache {cache_dir}")
    assert "different target_gap" in rerun.stderr


def test_fullscale_driver_prints_warnings_as_the_cli_does(data_dir, tmp_path):
    run = run_script(driver_args(data_dir, tmp_path / "cache", "--skip-schedule", "--max-iters", "1"))
    assert run.returncode == 0
    lines = run.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert "stopped after 1 iterations" in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_fullscale_driver_rejects_the_workers_flag(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = driver_args(data_dir, cache_dir, "--skip-schedule", "--workers", "2")
    assert load_script().main(argv) == 1
    assert capsys.readouterr() == ("", "usage error: unrecognized arguments: --workers 2\n")
    assert not cache_dir.exists()


def test_fullscale_driver_without_a_required_flag_is_a_usage_error(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = driver_args(data_dir, cache_dir, "--skip-schedule")
    at = argv.index("--net")
    del argv[at : at + 2]
    assert load_script().main(argv) == 1
    message = "usage error: the following arguments are required: --net\n"
    assert capsys.readouterr() == ("", message)
    assert not cache_dir.exists()
    run = run_script(argv)
    assert (run.returncode, run.stdout, run.stderr) == (1, "", message)


def test_fullscale_driver_rejects_an_empty_budget_element(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert load_script().main(driver_args(data_dir, cache_dir, "--budgets", "900,,1700")) == 1
    assert capsys.readouterr() == ("", "usage error: --budgets: bad value '900,,1700'\n")
    assert not cache_dir.exists()


@pytest.mark.parametrize("case", ["net-not-utf8", "growth-zone"])
def test_fullscale_driver_rejects_bad_input_before_any_solve(data_dir, tmp_path, capsys, case):
    cache_dir, bad = tmp_path / "cache", tmp_path / "bad.txt"
    argv = driver_args(data_dir, cache_dir)
    if case == "net-not-utf8":
        bad.write_bytes(b"~ \xff\n")
        argv[argv.index("--net") + 1] = str(bad)
        message = f"error: {bad}: not utf-8 text (invalid start byte at byte 2)\n"
    else:
        # desk has zones 1..2
        bad.write_text("SCALE 1 1.1\nSCALE 99 1.5\n")
        argv += ["--growth-file", str(bad)]
        message = "error: growth rule names zone 99 outside the zone range 1..2\n"
    assert load_script().main(argv) == 2
    assert capsys.readouterr().err == message
    assert not cache_dir.exists()


BENCH_PAIRS = ROOT / "scripts" / "bench_pairs.py"


@pytest.mark.parametrize("argv, code, message", [
    ([], 1, "usage error: the following arguments are required: --base, --workload, --pairs"),
    (["--base", "HEAD", "--workload", "desk-cli", "--pairs", "0"], 1,
     "usage error: argument --pairs: must be at least 1, not 0"),
    (["--base", "HEAD", "--workload", "desk-cli", "--pairs", "two"], 1,
     "usage error: argument --pairs: invalid count value: 'two'"),
    (["--base", "HEAD", "--workload", "desk", "--pairs", "2"], 1, "usage error: argument --workload: invalid choice"),
    (["--base", "no-such-revision", "--workload", "desk-cli", "--pairs", "2"], 2,
     "error: unknown revision 'no-such-revision'"),
    (["--base", "HEAD", "--workload", "desk-cli", "--pairs", "2", "--first-seed", "0"], 1,
     "usage error: argument --first-seed: must be at least 1, not 0"),
], ids=["no-flags", "zero-pairs", "word-pairs", "unknown-workload", "unknown-revision", "zero-first-seed"])
def test_bench_pairs_checks_its_arguments_before_any_run(argv, code, message):
    # each case stops before a copy is made or perfbench runs
    run = subprocess.run([sys.executable, str(BENCH_PAIRS), *argv], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (code, "")
    assert run.stderr.startswith(message) and run.stderr.count("\n") == 1


def test_bench_pairs_summary_reads_the_claim_rule_off_fixed_numbers():
    bench = load_script(BENCH_PAIRS)
    assert bench.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    base = {m: [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0] for m in bench.METRICS}
    change = {
        # lower in all 10 pairs, by more than the base's IQR
        "setup_s": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
        # lower in 9 pairs and tied in one, but by less than the IQR
        "solve_s": [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 19.0],
        # far lower in 8 pairs: not nine tenths
        "plan_s": [1.0] * 8 + [20.0, 20.0],
        # far lower in 9 pairs and tied in one: exactly nine tenths
        "replan_s": [1.0] * 9 + [19.0],
        "peak_rss_mb": [v + 1.0 for v in base["peak_rss_mb"]],
    }
    # the base's IQR is 0.31 of its median, wider than every bound, and some
    # change run is not lower than every base run
    assert bench.summarize(base, change) == [
        "setup_s: base 14.5 [12.25, 16.75], change 7.5 [5.25, 9.75], base IQR 4.5, "
        "change lower in 10/10 pairs, median change/base 0.517, gain true, verdict unresolved (bound 0.25)",
        "solve_s: base 14.5 [12.25, 16.75], change 10.5 [8.25, 12.75], base IQR 4.5, "
        "change lower in 9/10 pairs, median change/base 0.724, gain false, verdict unresolved (bound 0.25)",
        "plan_s: base 14.5 [12.25, 16.75], change 1 [1, 1], base IQR 4.5, "
        "change lower in 8/10 pairs, median change/base 0.080, gain false, verdict unresolved (bound 0.25)",
        "replan_s: base 14.5 [12.25, 16.75], change 1 [1, 1], base IQR 4.5, "
        "change lower in 9/10 pairs, median change/base 0.074, gain true, verdict unresolved (bound 0.25)",
        "peak_rss_mb: base 14.5 [12.25, 16.75], change 15.5 [13.25, 17.75], base IQR 4.5, "
        "change lower in 0/10 pairs, median change/base 1.069, gain false, verdict unresolved (bound 0.1)",
    ]
    # the first four pairs of setup_s, lower in 4/4 by more than the base's
    # IQR, claim nothing: a claim needs ten pairs
    few = bench.summarize({m: base[m][:4] for m in bench.METRICS}, {m: change["setup_s"][:4] for m in bench.METRICS})
    assert few[0] == ("setup_s: base 11.5 [10.75, 12.25], change 4.5 [3.75, 5.25], base IQR 1.5, "
                      "change lower in 4/4 pairs, median change/base 0.390, gain false, verdict held (bound 0.25)")
    assert all(", gain false, " in line for line in few)
    # the verdict reads each metric's bound off BENCHMARK.json
    assert bench.BOUNDS == {"setup_s": 0.25, "solve_s": 0.25, "plan_s": 0.25, "replan_s": 0.25, "peak_rss_mb": 0.1}
    steady, wide = [10.0] * 10, base["setup_s"]
    assert [bench.verdict(steady, [v] * 10, 0.25) for v in (8.0, 12.5, 12.6)] == ["held", "held", "worse"]
    assert bench.verdict(steady, [10.0] * 9 + [30.0], 0.25) == "held"  # the median rose by 0
    assert bench.verdict(wide, wide, 0.25) == "unresolved"
    assert bench.verdict(wide, [9.9] * 10, 0.25) == "held"  # every change run below every base run
    assert bench.verdict(wide, [20.0] * 10, 0.25) == "worse"  # 20 > 14.5 * 1.25, whatever the spread
    assert bench.verdict(wide, wide, 0.4) == "held"  # an IQR within the bound


def test_bench_pairs_runs_its_seeds_from_the_first_seed_on(monkeypatch, capsys):
    bench = load_script(BENCH_PAIRS)
    runs = []

    def run(side, workload, seed):
        runs.append((os.path.basename(side), seed))
        return {"correct": True, "failed": 0, "metrics": {m: {"value": float(seed)} for m in bench.METRICS}}

    monkeypatch.setattr(bench, "_git", lambda *args: subprocess.CompletedProcess(args, 0))
    monkeypatch.setattr(bench, "_copy_base", lambda rev, dest: None)
    monkeypatch.setattr(bench, "_copy_tree", lambda dest: None)
    monkeypatch.setattr(bench, "_run", run)
    assert bench.main(["--base", "HEAD", "--workload", "sf-plan", "--pairs", "3", "--first-seed", "12"]) == 0
    # the base first on odd seeds
    assert runs == [("change", 12), ("base", 12), ("base", 13), ("change", 13), ("change", 14), ("base", 14)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "pair 1, seed 12 (change first)", "pair 2, seed 13 (base first)", "pair 3, seed 14 (change first)"]
    assert lines[-1] == "every run correct with 0 failed operations: true"
    runs.clear()
    assert bench.main(["--base", "HEAD", "--workload", "sf-plan", "--pairs", "2"]) == 0
    assert [seed for _, seed in runs] == [1, 1, 2, 2]


def test_bench_pairs_runs_every_workload_for_each_seed(monkeypatch, capsys):
    bench = load_script(BENCH_PAIRS)
    runs = []

    def run(side, workload, seed):
        runs.append((os.path.basename(side), workload, seed))
        # the change is lower on desk-cli alone
        value = float(seed) - (0.5 if workload == "desk-cli" and side.endswith("change") else 0.0)
        return {"correct": True, "failed": 0, "metrics": {m: {"value": value} for m in bench.METRICS}}

    monkeypatch.setattr(bench, "_git", lambda *args: subprocess.CompletedProcess(args, 0))
    monkeypatch.setattr(bench, "_copy_base", lambda rev, dest: None)
    monkeypatch.setattr(bench, "_copy_tree", lambda dest: None)
    monkeypatch.setattr(bench, "_run", run)
    assert bench.main(["--base", "HEAD", "--workload", "all", "--pairs", "2"]) == 0
    # each seed runs every workload, the base first on odd seeds
    assert runs == [(side, workload, seed) for seed in (1, 2) for workload in bench.WORKLOADS
                    for side in (("base", "change") if seed % 2 else ("change", "base"))]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [
        f"pair {i}, seed {i}, {workload} ({'base' if i % 2 else 'change'} first)"
        for i in (1, 2) for workload in bench.WORKLOADS]
    blocks = lines[6:-1]
    assert len(blocks) == len(bench.WORKLOADS) * (1 + len(bench.METRICS))
    for k, workload in enumerate(bench.WORKLOADS):
        header, *rows = blocks[k * (1 + len(bench.METRICS)) : (k + 1) * (1 + len(bench.METRICS))]
        assert header == f"{workload}:"
        assert [row.split(":")[0] for row in rows] == list(bench.METRICS)
        won = "2/2" if workload == "desk-cli" else "0/2"
        assert all(f"change lower in {won} pairs" in row for row in rows)
    assert lines[-1] == "every run correct with 0 failed operations: true"


COMPARE = ROOT / "scripts" / "compare_outputs.py"


def test_compare_outputs_finds_an_unchanged_tree_identical_and_a_changed_output(tmp_path, capsys, monkeypatch):
    # the scripts put their own folders first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    # a repository of its own, whose working tree is its HEAD
    repo = tmp_path / "repo"
    load_script(BENCH_PAIRS)._copy_tree(str(repo))
    git = ["git", "-C", str(repo), "-c", "user.name=roadworks", "-c", "user.email=roadworks@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "snapshot"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    script = repo / COMPARE.relative_to(ROOT)
    run = subprocess.run([sys.executable, str(script), "--base", "HEAD"], capture_output=True, text=True, timeout=600)
    assert (run.returncode, run.stderr) == (0, "")
    *lines, last = run.stdout.splitlines()
    monkeypatch.setitem(sys.modules, "bench_pairs", load_script(repo / BENCH_PAIRS.relative_to(ROOT)))
    compare = load_script(script)
    assert [line.split(": ", 1)[0] for line in lines] == [label for label, _ in compare.COMMANDS]
    assert all(line.split(": ", 1)[1].startswith("exit code same (0), stdout same, stderr same, files same (")
               for line in lines)
    assert last == "identical: true"

    # a change to what `solve` prints shows in that command's stdout alone
    cli = repo / "src" / "roadworks" / "cli.py"
    cli.write_text(cli.read_text().replace('print(f"iterations {', 'print(f"iters {', 1))
    monkeypatch.setattr(compare, "COMMANDS", [command for command in compare.COMMANDS if command[0] == "sioux solve"])
    assert compare.main(["--base", "HEAD"]) == 0
    assert capsys.readouterr().out == (
        "sioux solve: exit code same (0), stdout differs, stderr same, files same (3)\nidentical: false\n")
