"""The full-scale driver script, run end to end on the desk fixtures."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import roadworks.scenario as scenario
from roadworks import PlanningHorizon, demand_fingerprint, network_fingerprint, parse_growth_rules
from roadworks.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_fullscale.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_fullscale", SCRIPT)
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

    Every solve goes through the subset layer; the layer is "realized" for
    those made inside the driver's `realized_npv` call, whose book lives in
    memory, and "book" for those of the driver's file-backed books.  The
    network is the one a subset is built on, so one key per "book" solve
    means no subset was solved twice under the same conditions.
    """
    solves = []
    built = {}
    layer = ["book"]
    apply_upgrades = scenario.apply_upgrades
    solve_with = scenario.solve_with
    realized_npv = script.realized_npv

    def recording_apply(net, upgrades, subset):
        modified = apply_upgrades(net, upgrades, subset)
        built[id(modified)] = (modified, network_fingerprint(net), tuple(subset))
        return modified

    def recording_solve(net, demand, settings):
        _, base, subset = built.get(id(net), (net, network_fingerprint(net), ()))
        solves.append((layer[-1], (base, demand_fingerprint(demand), subset)))
        return solve_with(net, demand, settings)

    def recording_realized(*args):
        layer.append("realized")
        try:
            return realized_npv(*args)
        finally:
            layer.pop()

    monkeypatch.setattr(scenario, "apply_upgrades", recording_apply)
    monkeypatch.setattr(scenario, "solve_with", recording_solve)
    monkeypatch.setattr(script, "realized_npv", recording_realized)
    return solves


def test_fullscale_driver_runs_on_desk(data_dir, desk, tmp_path, capsys, monkeypatch):
    script = load_script()
    cache_dir = tmp_path / "cache"
    growth = tmp_path / "growth.rules"
    growth.write_text("SCALE 1-3 1.1\n")
    argv = driver_args(data_dir, cache_dir, "--budgets", "900,900,1700", "--growth-file", str(growth))
    solves = record_solves(monkeypatch, script)
    assert script.main(argv) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    out = captured.out
    for stage in ("baseline VHT", "greedy schedule over 3 periods", "independent schedule realized NPV",
                  "at-horizon NPV"):
        assert stage in out

    # cold: 50 distinct solves in the file-backed books, each once, and 6 in
    # realized_npv
    file_backed = Counter(key for layer, key in solves if layer == "book")
    assert max(file_backed.values()) == 1
    assert len(solves) <= 56
    assert [layer for layer, _ in solves].count("realized") == 6

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

    # warm: only realized_npv solves, and no cache file grows
    solves.clear()
    assert script.main(argv) == 0
    assert unstamped(capsys.readouterr().out) == unstamped(out)
    assert [layer for layer, _ in solves] == ["realized"] * 6
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


def test_fullscale_driver_rejects_a_worker_count_below_one(data_dir, tmp_path, capsys):
    argv = driver_args(data_dir, tmp_path / "cache", "--skip-schedule", "--workers", "0")
    assert load_script().main(argv) == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"


def test_fullscale_driver_rejects_an_empty_budget_element(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert load_script().main(driver_args(data_dir, cache_dir, "--budgets", "900,,1700")) == 1
    assert capsys.readouterr() == ("", "usage error: --budgets: bad value '900,,1700'\n")
    assert not cache_dir.exists()
