"""The full-scale driver script, run end to end on the desk fixtures."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_fullscale.py"


def test_fullscale_driver_runs_on_desk(data_dir, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_fullscale", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cache_dir = tmp_path / "cache"
    argv = [
        "--net", str(data_dir / "desk_net.tntp"),
        "--trips", str(data_dir / "desk_trips.tntp"),
        "--nodes", str(data_dir / "desk_nodes.tntp"),
        "--projects", str(data_dir / "desk_upgrades.upg"),
        "--gap", "1e-8",
        "--max-iters", "1000",
        "--budgets", "900,900,1700",
        "--cache-dir", str(cache_dir),
    ]
    assert script.main(argv) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    out = captured.out
    for stage in ("baseline VHT", "greedy schedule over 3 periods", "independent schedule realized NPV",
                  "at-horizon NPV"):
        assert stage in out
    assert (cache_dir / "deltas.cache").exists()
    assert sorted(p.name for p in cache_dir.glob("deltas_t*.cache")) == [f"deltas_t{t}.cache" for t in (1, 2, 3)]
