"""The full-scale driver script, run end to end on the desk fixtures."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import roadworks.scenario as scenario
import roadworks.scheduler as scheduler
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


def unstamped(out):
    return re.sub(r"^\[[0-9:]+\] ", "", out, flags=re.M)


def record_solves(monkeypatch):
    """Log every equilibrium solve as (layer, (network, demand, subset)).

    The network is the one a subset is built on, so one key per subset-layer
    solve means no subset was solved twice under the same conditions.
    """
    solves = []
    built = {}
    apply_upgrades = scenario.apply_upgrades

    def recording_apply(net, upgrades, subset):
        modified = apply_upgrades(net, upgrades, subset)
        built[id(modified)] = (modified, network_fingerprint(net), tuple(subset))
        return modified

    def recorder(layer, solve_with):
        def recording_solve(net, demand, settings):
            _, base, subset = built.get(id(net), (net, network_fingerprint(net), ()))
            solves.append((layer, (base, demand_fingerprint(demand), subset)))
            return solve_with(net, demand, settings)

        return recording_solve

    monkeypatch.setattr(scenario, "apply_upgrades", recording_apply)
    monkeypatch.setattr(scenario, "solve_with", recorder("scenario", scenario.solve_with))
    monkeypatch.setattr(scheduler, "solve_with", recorder("scheduler", scheduler.solve_with))
    return solves


def test_fullscale_driver_runs_on_desk(data_dir, desk, tmp_path, capsys, monkeypatch):
    script = load_script()
    cache_dir = tmp_path / "cache"
    growth = tmp_path / "growth.rules"
    growth.write_text("SCALE 1-3 1.1\n")
    argv = driver_args(data_dir, cache_dir, "--budgets", "900,900,1700", "--growth-file", str(growth))
    solves = record_solves(monkeypatch)
    assert script.main(argv) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    out = captured.out
    for stage in ("baseline VHT", "greedy schedule over 3 periods", "independent schedule realized NPV",
                  "at-horizon NPV"):
        assert stage in out

    # cold: 50 distinct subset-layer solves, each once, and 6 in realized_npv
    subset_layer = Counter(key for layer, key in solves if layer == "scenario")
    assert max(subset_layer.values()) == 1
    assert len(solves) <= 56
    assert [layer for layer, _ in solves].count("scheduler") == 6

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
    assert [layer for layer, _ in solves] == ["scheduler"] * 6
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
        "--gap", "1e-8", "--max-iters", "1000", "--cache", path,
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    rerun = subprocess.run(
        [sys.executable, str(SCRIPT), *driver_args(data_dir, cache_dir, "--skip-schedule", gap="1e-6")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert rerun.returncode == 2
    assert "Traceback" not in rerun.stderr
    assert rerun.stderr.startswith(f"error: cache {cache_dir}")
    assert "different target_gap" in rerun.stderr
