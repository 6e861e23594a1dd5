"""End-to-end command-line behaviour, including exit codes."""

import argparse
import json
import re
from pathlib import Path

import pytest

from roadworks.cli import build_parser, main

DESK = {
    "net": "desk_net.tntp",
    "trips": "desk_trips.tntp",
    "nodes": "desk_nodes.tntp",
    "upgrades": "desk_upgrades.upg",
}


def desk_args(data_dir, command, *extra):
    args = [
        command,
        "--net", str(data_dir / DESK["net"]),
        "--trips", str(data_dir / DESK["trips"]),
    ]
    if command != "solve":
        args += ["--nodes", str(data_dir / DESK["nodes"])]
    args += ["--upgrades", str(data_dir / DESK["upgrades"])]
    return args + list(extra)


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_solve_prints_summary(data_dir, capsys):
    rc = main(desk_args(data_dir, "solve", "--gap", "1e-6"))
    assert rc == 0
    lines = out_lines(capsys)
    assert lines[0].startswith("vht ")
    assert lines[1].startswith("relative_gap ")
    assert float(lines[1].split()[1]) <= 1e-6
    assert lines[2].startswith("iterations ")
    assert int(lines[2].split()[1]) >= 1


def test_solve_writes_flow_file(data_dir, tmp_path, capsys):
    out = tmp_path / "flows.txt"
    rc = main(desk_args(data_dir, "solve", "--gap", "1e-6", "--out", str(out)))
    assert rc == 0
    text = out.read_text()
    assert text.startswith("~ vht ")
    assert len(text.strip().splitlines()) == 1 + 6
    capsys.readouterr()


def test_solve_with_only_intrazonal_trips_solves_to_zero(data_dir, tmp_path, capsys):
    # a trip that stays in its zone loads no link: the same solve as no trips
    trips = tmp_path / "trips.tntp"
    trips.write_text((data_dir / DESK["trips"]).read_text().replace("2 :    1000.0;", "1 :    1000.0;"))
    empty = tmp_path / "empty.tntp"
    empty.write_text("<NUMBER OF ZONES> 2\n<TOTAL OD FLOW> 0.0\n<END OF METADATA>\n")
    for path in (trips, empty):
        rc = main(["solve", "--net", str(data_dir / DESK["net"]), "--trips", str(path)])
        assert (rc, out_lines(capsys)) == (0, ["vht 0.0", "relative_gap 0.0", "iterations 0"])


def test_solve_apply_reduces_vht(data_dir, capsys):
    rc = main(desk_args(data_dir, "solve", "--gap", "1e-7"))
    base = float(out_lines(capsys)[0].split()[1])
    rc2 = main(desk_args(data_dir, "solve", "--gap", "1e-7", "--apply", "C-A1,C-B1"))
    upgraded = float(out_lines(capsys)[0].split()[1])
    assert rc == rc2 == 0
    assert upgraded < base


def test_solve_apply_accepts_indices(data_dir, capsys):
    main(desk_args(data_dir, "solve", "--gap", "1e-7", "--apply", "C-A1"))
    by_id = out_lines(capsys)[0]
    main(desk_args(data_dir, "solve", "--gap", "1e-7", "--apply", "1"))
    by_index = out_lines(capsys)[0]
    assert by_id == by_index


def test_numeric_upgrade_ids_are_ids_not_positions(data_dir, tmp_path, capsys):
    # projects named 2 then 1: the token 2 names project 2, not the second project
    projects = (
        "PROJECT {} 800 capacity-upgrade\n  MOD 1 3 CAPACITY=800\n"
        "PROJECT {} 1500 new-road\n  ADD 3 5 600 2 2 0.15 4\n  ADD 5 3 600 2 2 0.15 4\n"
        "PROJECT {} 800 capacity-upgrade\n  MOD 5 6 CAPACITY=800\n"
    )
    numbered, lettered = tmp_path / "numbered.upg", tmp_path / "lettered.upg"
    numbered.write_text(projects.format("2", "1", "C"))
    lettered.write_text(projects.format("A", "X", "C"))

    def run(command, upgrades, *extra):
        argv = desk_args(data_dir, command, "--gap", "1e-7", *extra)
        argv[argv.index("--upgrades") + 1] = str(upgrades)
        assert main(argv) == 0
        return out_lines(capsys)

    explicit = ("--mode", "explicit", "--subset")
    by_number = run("deltas", numbered, *explicit, "2")[1].split()
    by_letter = run("deltas", lettered, *explicit, "A")[1].split()
    assert by_number[0] == "2" and by_number[1:] == by_letter[1:]
    assert run("solve", numbered, "--apply", "2") == run("solve", lettered, "--apply", "A")
    # a bare integer that names no upgrade is still a 1-based position
    assert run("solve", numbered, "--apply", "3") == run("solve", lettered, "--apply", "C")


def test_missing_file_names_path(data_dir, capsys):
    rc = main(
        [
            "solve",
            "--net", "/nowhere/net.tntp",
            "--trips", str(data_dir / DESK["trips"]),
        ]
    )
    assert rc == 2
    assert "/nowhere/net.tntp" in capsys.readouterr().err


def test_garbage_network_is_a_data_error(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.tntp"
    bad.write_text("this is not a network\n")
    rc = main(["solve", "--net", str(bad), "--trips", str(data_dir / DESK["trips"])])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_reserved_upgrade_id_is_a_data_error(data_dir, tmp_path, capsys):
    text = (data_dir / DESK["upgrades"]).read_text()
    upg = tmp_path / "renamed.upg"
    upg.write_text(text.replace("PROJECT C-A1 ", "PROJECT BASELINE "))
    cache = tmp_path / "c.cache"
    args = desk_args(data_dir, "deltas", "--mode", "individual", "--cache", str(cache))
    args[args.index("--upgrades") + 1] = str(upg)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "BASELINE" in err
    assert not cache.exists()


def test_usage_errors_exit_1(data_dir, capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["solve"]) == 1  # --net/--trips missing
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(desk_args(data_dir, "solve", "--algorithm", "warp")) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() or "error" in err.lower()
    # one solver, on one thread: neither option exists
    for flag in ("--algorithm", "--threads"):
        assert main(desk_args(data_dir, "solve", flag, "1")) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


# the solver flags each command lost: none of them reads or names a solve by
# it, and no command takes `workers` (subsets are solved on the calling thread)
NO_SOLVER_FLAG = [
    ("solve", "workers"),
    ("deltas", "workers"),
    ("schedule", "workers"),
    ("select", "max-iters"),
    ("select", "workers"),
    ("error-report", "max-iters"),
    ("error-report", "workers"),
    ("predict-pairs", "gap"),
    ("predict-pairs", "max-iters"),
    ("predict-pairs", "workers"),
]


@pytest.mark.parametrize("command,flag", NO_SOLVER_FLAG)
def test_solver_flags_only_on_commands_that_read_them(data_dir, tmp_path, capsys, command, flag):
    assert main(desk_args(data_dir, command, f"--{flag}", "1")) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag.replace("-", "_"): 1}))
    assert main(desk_args(data_dir, command, "--config", str(config))) == 1
    assert "matches no flag" in capsys.readouterr().err


def test_solve_converges_sioux_falls_with_defaults(data_dir, capsys):
    sf = [
        "solve",
        "--net", str(data_dir / "siouxfalls_net.tntp"),
        "--trips", str(data_dir / "siouxfalls_trips.tntp"),
    ]
    assert main(sf) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[1].startswith("relative_gap ")
    assert float(lines[1].split()[1]) <= 1e-4
    assert int(lines[2].split()[1]) <= 1000
    assert captured.err == ""


def test_solve_warns_when_stopped_at_the_cap(data_dir, capsys):
    rc = main(desk_args(data_dir, "solve", "--gap", "1e-8", "--max-iters", "1"))
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["vht", "relative_gap", "iterations"]
    assert lines[2] == "iterations 1"
    gap = float(lines[1].split()[1])
    assert captured.err == (
        f"warning: stopped after 1 iterations at relative gap {gap:.3e} > target 1e-08\n"
    )


def test_deltas_warns_per_capped_subset(data_dir, tmp_path, capsys):
    cache = tmp_path / "c.cache"
    args = desk_args(
        data_dir, "deltas", "--mode", "explicit", "--subset", "C-A1", "--subset", "C-B1,C-B2",
        "--gap", "1e-8", "--max-iters", "1", "--cache", str(cache),
    )
    assert main(args) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3  # the baseline and both subsets
    assert err[0].startswith("warning: baseline: stopped after 1 iterations")
    assert err[1].startswith("warning: subset {C-A1}: stopped after 1 iterations")
    assert err[2].startswith("warning: subset {C-B1,C-B2}: stopped after 1 iterations")
    assert all(line.endswith("> target 1e-08") for line in err)


def test_deltas_individual_and_cache_reuse(data_dir, tmp_path, capsys):
    cache = tmp_path / "desk.cache"
    args = desk_args(
        data_dir, "deltas", "--gap", "1e-6", "--mode", "individual", "--cache", str(cache)
    )
    assert main(args) == 0
    lines = out_lines(capsys)
    assert lines[0].startswith("baseline_vht ")
    rows = [l for l in lines[1:-1]]
    assert len(rows) == 8  # one per project
    assert lines[-1] == "tap_solves 9"
    assert cache.exists()

    assert main(args) == 0
    warm = out_lines(capsys)
    assert warm[-1] == "tap_solves 0"
    assert warm[:-1] == lines[:-1]


def test_deltas_explicit_subsets(data_dir, tmp_path, capsys):
    args = desk_args(
        data_dir,
        "deltas",
        "--gap", "1e-6",
        "--mode", "explicit",
        "--subset", "C-A1,C-B1",
        "--subset", "1",
    )
    assert main(args) == 0
    lines = out_lines(capsys)
    body = lines[1:-1]
    assert [l.split()[0] for l in body] == ["C-A1", "C-A1,C-B1"]
    assert main(desk_args(data_dir, "deltas", "--mode", "explicit")) == 1
    capsys.readouterr()


def test_deltas_pairs_with_threshold(data_dir, capsys):
    args = desk_args(
        data_dir,
        "deltas",
        "--gap", "1e-6",
        "--mode", "pairs",
        "--pairs-threshold", "10.5",
    )
    assert main(args) == 0
    lines = out_lines(capsys)
    body = [l.split()[0] for l in lines[1:-1]]
    assert "C-A1,C-B1" in body and "C-A3,C-B3" in body
    assert len([b for b in body if "," in b]) == 2
    assert len([b for b in body if "," not in b]) == 8


def test_deltas_all_subsets_size_cap(data_dir, capsys):
    args = desk_args(
        data_dir, "deltas", "--gap", "1e-5", "--mode", "all-subsets", "--max-size", "2"
    )
    assert main(args) == 0
    lines = out_lines(capsys)
    assert len(lines) == 1 + 8 + 28 + 1
    bad = desk_args(data_dir, "deltas", "--mode", "all-subsets", "--max-size", "99")
    assert main(bad) == 1
    capsys.readouterr()


def test_predict_pairs_threshold(data_dir, capsys):
    rc = main(desk_args(data_dir, "predict-pairs", "--pairs-threshold", "10.5"))
    assert rc == 0
    lines = out_lines(capsys)
    assert [l.split()[:2] for l in lines] == [["C-A1", "C-B1"], ["C-A3", "C-B3"]]
    assert all(float(l.split()[2]) == 10.0 for l in lines)


def test_predict_pairs_needs_exactly_one_mode(data_dir, capsys):
    assert main(desk_args(data_dir, "predict-pairs")) == 1
    capsys.readouterr()
    both = desk_args(
        data_dir, "predict-pairs", "--pairs-threshold", "10", "--pairs-count", "1"
    )
    assert main(both) == 1
    capsys.readouterr()


def test_predict_pairs_takes_no_pairs_file(data_dir, tmp_path, capsys):
    # predict-pairs screens pairs; a pair file is read only by the commands that use one
    screen = ("--pairs-threshold", "10.5")
    assert main(desk_args(data_dir, "predict-pairs", *screen, "--pairs-file", "/nonexistent/pairs.txt")) == 1
    assert "unrecognized arguments: --pairs-file" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pairs_file": "/nonexistent/pairs.txt"}))
    assert main(desk_args(data_dir, "predict-pairs", *screen, "--config", str(config))) == 1
    assert "matches no flag" in capsys.readouterr().err


def test_predict_pairs_kmeans(data_dir, capsys):
    rc = main(desk_args(data_dir, "predict-pairs", "--kmeans-k", "4", "--seed", "3"))
    assert rc == 0
    first = out_lines(capsys)
    rc = main(desk_args(data_dir, "predict-pairs", "--kmeans-k", "4", "--seed", "3"))
    assert rc == 0
    assert out_lines(capsys) == first  # seeded, so stable


def select_pipeline(data_dir, tmp_path, capsys, budget):
    cache = tmp_path / "desk.cache"
    assert (
        main(
            desk_args(
                data_dir,
                "deltas",
                "--gap", "1e-6",
                "--mode", "pairs",
                "--cache", str(cache),
            )
        )
        == 0
    )
    capsys.readouterr()
    rc = main(
        desk_args(
            data_dir,
            "select",
            "--gap", "1e-6",
            "--cache", str(cache),
            "--budget", str(budget),
        )
    )
    return rc, out_lines(capsys)


def test_malformed_cache_number_is_a_data_error(data_dir, tmp_path, capsys):
    rc, _ = select_pipeline(data_dir, tmp_path, capsys, 2400.0)
    assert rc == 0
    cache = tmp_path / "desk.cache"
    lines = cache.read_text().count("\n")
    with open(cache, "a") as fh:
        fh.write("C-A1 1.2.3 1e-16\n")
    args = desk_args(data_dir, "select", "--gap", "1e-6", "--cache", str(cache), "--budget", "2400")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{cache}, line {lines + 1}: bad number in 'C-A1 1.2.3 1e-16'" in err


def test_torn_last_cache_row_is_dropped(data_dir, tmp_path, capsys):
    cache = tmp_path / "desk.cache"
    args = desk_args(
        data_dir, "deltas", "--mode", "explicit", "--subset", "C-A1,C-A2", "--gap", "1e-6",
        "--cache", str(cache),
    )
    assert main(args) == 0
    whole = cache.read_text()
    capsys.readouterr()
    # a run killed mid-write: a cut gap that still parses, and no newline
    torn = "C-A1,C-B1 123.4 1"
    with open(cache, "a") as fh:
        fh.write(torn)

    more = desk_args(
        data_dir, "deltas", "--mode", "explicit", "--subset", "C-A1,C-B1", "--gap", "1e-6",
        "--cache", str(cache),
    )
    assert main(more) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: cache {cache}: dropped the incomplete last line {torn!r}\n"
    assert "tap_solves 1" in captured.out  # re-solved, not read from the torn row
    text = cache.read_text()
    assert text.startswith(whole)
    assert text[len(whole):].startswith("C-A1,C-B1 ")
    assert text.endswith("\n") and text.count("\n") == whole.count("\n") + 1

    assert main(more) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "tap_solves 0" in captured.out


def test_select_full_pipeline(data_dir, tmp_path, capsys):
    rc, lines = select_pipeline(data_dir, tmp_path, capsys, 2400.0)
    assert rc == 0
    ids_line = [l for l in lines if l.startswith("ids ")][0]
    chosen = ids_line.split()[1].split(",")
    assert len(chosen) == 3
    text = "\n".join(lines)
    assert "spend" in text and "net benefit" in text


def test_select_zero_budget_returns_empty(data_dir, tmp_path, capsys):
    rc, lines = select_pipeline(data_dir, tmp_path, capsys, 0.0)
    assert rc == 0
    assert any(l.strip() == "ids (none)" for l in lines)


def test_select_without_needed_rows(data_dir, tmp_path, capsys):
    cache = tmp_path / "sparse.cache"
    assert (
        main(
            desk_args(
                data_dir,
                "deltas",
                "--gap", "1e-6",
                "--mode", "explicit",
                "--subset", "C-A1",
                "--cache", str(cache),
            )
        )
        == 0
    )
    capsys.readouterr()
    rc = main(
        desk_args(
            data_dir, "select", "--gap", "1e-6", "--cache", str(cache), "--budget", "1000"
        )
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing subsets" in err
    assert "deltas" in err  # points at the fix


def test_schedule_greedy_and_warm_cache(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    args = desk_args(
        data_dir,
        "schedule",
        "--gap", "1e-6",
        "--budgets", "900,2500",
        "--rate", "0.05",
        "--cache-dir", str(cache_dir),
        "--pairs-threshold", "10.5",
    )
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "Time period t" in first
    assert "Budget" in first and "Expenditure" in first
    assert "npv_kd " in first

    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_schedule_independent(data_dir, capsys):
    args = desk_args(
        data_dir,
        "schedule",
        "--gap", "1e-6",
        "--budgets", "900,2500",
        "--rate", "0.05",
        "--independent",
    )
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "npv_kd " in text


def test_schedule_independent_without_growth_solves_each_row_once(data_dir, tmp_path, capsys, batch_sizes):
    cache_dir = tmp_path / "caches"
    args = desk_args(data_dir, "schedule", "--gap", "1e-6", "--budgets", "900,900,1700", "--rate", "0.05",
                     "--independent", "--cache-dir", str(cache_dir))
    assert main(args) == 0
    first = capsys.readouterr().out
    # every period has the base demand, so its three tables are one cache's
    # rows: the baseline and 8 singles, each solved once, in one batch
    assert batch_sizes == [9]
    (cache,) = cache_dir.glob("*.cache")
    rows = [line.split()[0] for line in cache.read_text().splitlines()[4:]]
    assert rows == ["BASELINE", "C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3", "C-X1", "C-X2"]
    assert main(args) == 0
    assert (capsys.readouterr().out, batch_sizes) == (first, [9])


def test_schedule_single_period_matches_select(data_dir, tmp_path, capsys):
    rc, lines = select_pipeline(data_dir, tmp_path, capsys, 2400.0)
    assert rc == 0
    ids_line = [l for l in lines if l.startswith("ids ")][0]
    chosen = set(ids_line.split()[1].split(","))

    args = desk_args(
        data_dir, "schedule", "--gap", "1e-6", "--budgets", "2400", "--rate", "0"
    )
    assert main(args) == 0
    listing = [
        l for l in capsys.readouterr().out.splitlines() if l and l.split()[-1] == "1"
    ]
    scheduled = {l.split()[0] for l in listing if not l.startswith(" ")}
    assert scheduled == chosen


def test_schedule_cache_dir_rerun_at_another_gap_names_the_file(data_dir, tmp_path, capsys):
    cache_dir = tmp_path / "caches"
    flags = ("--budgets", "900", "--cache-dir", str(cache_dir))
    assert main(desk_args(data_dir, "schedule", "--gap", "1e-6", *flags)) == 0
    capsys.readouterr()
    assert main(desk_args(data_dir, "schedule", "--gap", "1e-5", *flags)) == 2
    err = capsys.readouterr().err
    assert "different target_gap" in err
    assert any(f"cache {path} was built" in err for path in cache_dir.glob("deltas_*.cache"))


def test_error_report_from_cache(data_dir, tmp_path, capsys):
    cache = tmp_path / "full.cache"
    assert (
        main(
            desk_args(
                data_dir,
                "deltas",
                "--gap", "1e-5",
                "--mode", "all-subsets",
                "--max-size", "3",
                "--cache", str(cache),
            )
        )
        == 0
    )
    capsys.readouterr()
    rc = main(
        desk_args(
            data_dir,
            "error-report",
            "--gap", "1e-5",
            "--cache", str(cache),
            "--orders", "1,2,3",
        )
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "individual only" in text
    assert "all pairwise" in text
    # n=8 candidates: 8, then +28 pairs, then +56 triples
    for count in ("8", "36", "92"):
        assert any(line.split()[-3] == count for line in text.splitlines()[2:])

    rc = main(
        desk_args(
            data_dir,
            "error-report",
            "--gap", "1e-5",
            "--cache", str(cache),
            "--orders", "0",
        )
    )
    assert rc == 1
    capsys.readouterr()


def _explicit_cache(data_dir, path, *subsets):
    flags = [arg for S in subsets for arg in ("--subset", S)]
    argv = desk_args(data_dir, "deltas", "--gap", "1e-5", "--mode", "explicit", "--cache", str(path), *flags)
    assert main(argv) == 0


def test_error_report_without_subsets_of_size_three_exits_2(data_dir, tmp_path, capsys):
    cache = tmp_path / "pairs.cache"
    _explicit_cache(data_dir, cache, "C-A1", "C-A2", "C-A1,C-A2")
    capsys.readouterr()
    rc = main(desk_args(data_dir, "error-report", "--gap", "1e-5", "--cache", str(cache)))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "no subset of size >= 3" in captured.err
    assert "deltas --mode all-subsets" in captured.err and str(cache) in captured.err
    assert "Traceback" not in captured.err


def test_pair_files_with_unknown_upgrades_exit_2_in_every_command(data_dir, tmp_path, capsys):
    cache = tmp_path / "triple.cache"
    triple = ("C-A1", "C-A2", "C-B1", "C-A1,C-A2", "C-A1,C-B1", "C-A2,C-B1", "C-A1,C-A2,C-B1")
    _explicit_cache(data_dir, cache, *triple)
    bad = tmp_path / "bad_pairs.txt"
    bad.write_text("C-A1 C-A2\nC-A1 C-ZZ\n")
    good = tmp_path / "pairs.txt"
    good.write_text("C-A1 C-A2\n")
    capsys.readouterr()
    common = ("--gap", "1e-5", "--cache", str(cache))
    for argv in (
        desk_args(data_dir, "deltas", *common, "--mode", "pairs", "--pairs-file", str(bad)),
        desk_args(data_dir, "select", *common, "--budget", "2400", "--pairs-file", str(bad)),
        desk_args(data_dir, "error-report", *common, "--pairs-file", str(bad)),
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err == "error: pair file names unknown upgrade 'C-ZZ'\n", argv[0]
    assert main(desk_args(data_dir, "error-report", *common, "--pairs-file", str(good))) == 0
    assert "significant pairwise" in capsys.readouterr().out


def test_error_report_labels_rows_by_the_coefficients_they_sum(data_dir, tmp_path, capsys):
    cache = tmp_path / "triple.cache"
    _explicit_cache(data_dir, cache, "C-A1", "C-A2", "C-B1", "C-A1,C-A2", "C-A1,C-B1", "C-A2,C-B1",
                    "C-A1,C-A2,C-B1")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("C-A1 C-A2\n")
    capsys.readouterr()
    common = ("--gap", "1e-5", "--cache", str(cache), "--orders", "1,2,3,4")
    assert main(desk_args(data_dir, "error-report", *common, "--pairs-file", str(pairs))) == 0
    restricted = [line[:24].strip() for line in out_lines(capsys)[2:]]
    assert restricted == ["individual only"] + ["significant pairwise"] * 3
    assert main(desk_args(data_dir, "error-report", *common)) == 0
    full = [line[:24].strip() for line in out_lines(capsys)[2:]]
    assert full == ["individual only", "all pairwise"] + ["all subsets size <= 3"] * 2


def test_error_report_says_some_when_subsets_of_a_size_are_missing(data_dir, tmp_path, capsys):
    # the 8 singles, the pairs and the one triple of C-A1, C-A2, C-B1: 1 of the 56 triples
    cache = tmp_path / "sparse.cache"
    singles = ["C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3", "C-X1", "C-X2"]
    _explicit_cache(data_dir, cache, *singles, "C-A1,C-A2", "C-A1,C-B1", "C-A2,C-B1", "C-A1,C-A2,C-B1")
    capsys.readouterr()
    assert main(desk_args(data_dir, "error-report", "--gap", "1e-5", "--cache", str(cache), "--orders", "1,2,3")) == 0
    rows = [(line[:24].strip(), int(line[24:37])) for line in out_lines(capsys)[2:]]
    assert rows == [("individual only", 8), ("significant pairwise", 11), ("some subsets size <= 3", 12)]


def test_cache_refused_for_other_node_coordinates_says_why(data_dir, tmp_path, capsys):
    cache = tmp_path / "desk.cache"
    without_nodes = desk_args(data_dir, "deltas", "--gap", "1e-5", "--mode", "individual", "--cache", str(cache))
    nodes = without_nodes.index("--nodes")
    del without_nodes[nodes:nodes + 2]
    assert main(without_nodes) == 0
    capsys.readouterr()
    assert main(desk_args(data_dir, "select", "--gap", "1e-5", "--cache", str(cache), "--budget", "900")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache {cache} was built for a different network")
    assert "node coordinates count" in err and "same --nodes file" in err
    # another gap on the same network is refused without the hint
    assert main(["1e-6" if arg == "1e-5" else arg for arg in without_nodes]) == 2
    err = capsys.readouterr().err
    assert "different target_gap" in err and "--nodes" not in err


def test_config_file_fills_unset_flags(data_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "net": str(data_dir / DESK["net"]),
                "trips": str(data_dir / DESK["trips"]),
                "gap": 1e-6,
            }
        )
    )
    assert main(["solve", "--config", str(config)]) == 0
    loose = float(out_lines(capsys)[1].split()[1])
    assert loose <= 1e-6

    # explicit flags beat the config file
    assert main(["solve", "--config", str(config), "--max-iters", "1"]) == 0
    lines = out_lines(capsys)
    assert lines[2] == "iterations 1"


def test_config_rejects_unknown_keys(data_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    for key in ("nett", "threads", "algorithm"):
        config.write_text(json.dumps({key: 1}))
        assert main(["solve", "--config", str(config)]) == 1
        assert "matches no flag" in capsys.readouterr().err
    config.write_text("{not json")
    assert main(["solve", "--config", str(config)]) == 1
    capsys.readouterr()



def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def body_subsets(capsys):
    return [line.split()[0] for line in out_lines(capsys)[1:-1]]


# each was taken at face value: "false" ran the independent model, true became
# a target gap of 1.0 and 2.7 a cap of 2 iterations
@pytest.mark.parametrize(
    "command,key,value",
    [
        ("schedule", "independent", "false"),
        ("schedule", "independent", 1),
        ("solve", "gap", True),
        ("solve", "max_iters", 2.7),
        ("deltas", "subset", [["C-A1", "C-B1"]]),
    ],
)
def test_config_values_of_the_wrong_type_exit_1(data_dir, tmp_path, capsys, command, key, value):
    extra = ["--budgets", "900,1700"] if command == "schedule" else []
    assert main(desk_args(data_dir, command, *extra, "--config", write_config(tmp_path, {key: value}))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert key.replace("_", "-") in captured.err.replace("_", "-")


def test_config_subset_string_is_one_subset(data_dir, tmp_path, capsys):
    config = write_config(tmp_path, {"mode": "explicit", "subset": "C-A1,C-B1"})
    assert main(desk_args(data_dir, "deltas", "--config", config)) == 0
    assert body_subsets(capsys) == ["C-A1,C-B1"]


def test_explicit_subset_replaces_the_config_list(data_dir, tmp_path, capsys):
    # one subset per element; a number is a 1-based position, as on the command line
    config = write_config(tmp_path, {"mode": "explicit", "subset": ["C-A1,C-B1", 2]})
    assert main(desk_args(data_dir, "deltas", "--config", config)) == 0
    assert body_subsets(capsys) == ["C-A2", "C-A1,C-B1"]
    assert main(desk_args(data_dir, "deltas", "--config", config, "--subset", "C-B2")) == 0
    assert body_subsets(capsys) == ["C-B2"]


def test_config_lists_match_the_comma_form(data_dir, tmp_path, capsys):
    outputs = []
    for budgets in ("900,900,1700", [900, 900, 1700]):
        config = write_config(tmp_path, {"budgets": budgets, "rate": 0.05, "pairs_threshold": 10.5})
        assert main(desk_args(data_dir, "schedule", "--gap", "1e-6", "--config", config)) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]

    cache = tmp_path / "triple.cache"
    _explicit_cache(data_dir, cache, "C-A1", "C-A2", "C-B1", "C-A1,C-A2", "C-A1,C-A2,C-B1")
    capsys.readouterr()
    outputs = []
    for orders in ("1,2,3", [1, 2, 3]):
        config = write_config(tmp_path, {"orders": orders})
        assert main(desk_args(data_dir, "error-report", "--gap", "1e-5", "--cache", str(cache), "--config", config)) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_config_files_do_not_leak_between_calls(data_dir, tmp_path, capsys):
    # the parser is built once per process and shared by every call
    assert build_parser() is build_parser()

    def solve(*extra):
        assert main(desk_args(data_dir, "solve", *extra)) == 0
        return capsys.readouterr()

    plain = solve()
    built = write_config(tmp_path, {"apply": "C-A1"}, "built.json")
    capped = write_config(tmp_path, {"max_iters": 1}, "capped.json")
    assert solve("--config", built) == solve("--apply", "C-A1") != plain
    assert solve("--config", capped) == solve("--max-iters", "1") != plain
    assert solve() == plain


# rejected and read-only calls: each exits 2 before it creates a cache file
NO_CACHE_LEFT = {
    "deltas-max-iters-0": ("deltas", "--cache", "{tmp}/w.cache", "--max-iters", "0"),
    "deltas-gap-0": ("deltas", "--cache", "{tmp}/w.cache", "--gap", "0"),
    "deltas-gap-inf": ("deltas", "--cache", "{tmp}/w.cache", "--gap", "inf"),
    "deltas-unknown-subset": ("deltas", "--mode", "explicit", "--subset", "C-ZZ", "--cache", "{tmp}/w.cache"),
    "schedule-max-iters-0": ("schedule", "--budgets", "900", "--cache-dir", "{tmp}/d", "--max-iters", "0"),
    "select-missing-cache": ("select", "--budget", "900", "--cache", "{tmp}/missing.cache"),
    "error-report-missing-cache": ("error-report", "--cache", "{tmp}/missing.cache"),
}


@pytest.mark.parametrize("case", sorted(NO_CACHE_LEFT))
def test_rejected_calls_leave_no_cache_file(data_dir, tmp_path, capsys, case):
    command, *flags = NO_CACHE_LEFT[case]
    assert main(desk_args(data_dir, command, *(f.format(tmp=tmp_path) for f in flags))) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_missing_cache_points_at_deltas(data_dir, tmp_path, capsys):
    missing = tmp_path / "missing.cache"
    assert main(desk_args(data_dir, "select", "--budget", "900", "--cache", str(missing))) == 2
    assert capsys.readouterr().err == (
        f"error: cache {missing} does not exist; run the deltas command to build it\n"
    )
    # the refused file was never created, so deltas at another gap may build it
    assert main(desk_args(data_dir, "deltas", "--gap", "1e-5", "--cache", str(missing))) == 0
    capsys.readouterr()


# the desk network's first link row: from to capacity length fftime b power
LINK_ROW = "1\t3\t400.0\t10.0\t10.0\t0.15\t4"


def _link_row_with(column, value):
    fields = LINK_ROW.split("\t")
    fields[column] = value
    return "\t".join(fields)


# NaN in a numeric input, an infinite m, rate or link parameter other than
# capacity, or a rate whose discount overflows: each a data error (exit 2)
# before any solve, named on one line.  So is an m that makes the objective
# overflow, once the deltas are solved.  (command, flags, file edit, message)
OVERFLOWING_M = "m (yearly value of one unit of daily VHT) times the deltas overflows"
BAD_NUMBERS = {
    "select-budget-nan": ("select", ("--budget", "nan"), None, "budget must be non-negative"),
    "select-m-nan": ("select", ("--budget", "900", "--m", "nan"), None, "must be positive and finite"),
    "select-m-inf": ("select", ("--budget", "900", "--m", "inf"), None, "must be positive and finite"),
    "schedule-budgets-nan": ("schedule", ("--budgets", "900,nan"), None, "period budgets must be non-negative"),
    "schedule-rate-nan": ("schedule", ("--budgets", "900", "--rate", "nan"), None, "interest rate"),
    "schedule-rate-inf": ("schedule", ("--budgets", "900", "--rate", "inf"), None, "interest rate"),
    "schedule-rate-huge": ("schedule", ("--budgets", "900,900", "--rate", "1e200"), None,
                           "interest rate 1e+200 overflows when discounting over 2 periods"),
    "schedule-m-inf": ("schedule", ("--budgets", "900", "--m", "inf"), None, "must be positive and finite"),
    "select-objective-overflows": ("select", ("--budget", "1e308", "--m", "1e308"), None, OVERFLOWING_M),
    "schedule-objective-overflows": ("schedule", ("--budgets", "1e308,1e308", "--rate", "0.05", "--m", "1e308"),
                                     None, OVERFLOWING_M),
    "schedule-independent-objective-overflows": ("schedule", ("--budgets", "1e308,1e308", "--rate", "0.05",
                                                              "--m", "1e308", "--independent"), None, OVERFLOWING_M),
    "schedule-growth-nan": ("schedule", ("--budgets", "900,900", "--growth-file", "{tmp}/growth.rules"), None,
                            "growth factor must be non-negative"),
    "predict-pairs-threshold-nan": ("predict-pairs", ("--pairs-threshold", "nan"), None,
                                    "distance threshold must be non-negative"),
    "project-cost-nan": ("deltas", (), ("upgrades", "PROJECT C-A1 800", "PROJECT C-A1 nan"), "C-A1: negative cost"),
    "mod-capacity-nan": ("deltas", (), ("upgrades", "MOD 1 3 CAPACITY=800", "MOD 1 3 CAPACITY=nan"),
                         "MOD capacity must be positive"),
    "mod-fftime-nan": ("deltas", (), ("upgrades", "MOD 1 3 CAPACITY=800", "MOD 1 3 CAPACITY=800 FFTIME=nan"),
                       "MOD free-flow time"),
    "add-capacity-nan": ("deltas", (), ("upgrades", "ADD 3 5 600", "ADD 3 5 nan"), "capacity must be positive"),
    "link-capacity-nan": ("solve", (), ("net", LINK_ROW, _link_row_with(2, "nan")), "capacity must be positive"),
    "link-fftime-nan": ("solve", (), ("net", LINK_ROW, _link_row_with(4, "nan")), "negative free-flow time"),
    "link-alpha-nan": ("solve", (), ("net", LINK_ROW, _link_row_with(5, "nan")), "negative BPR parameter"),
    "link-beta-nan": ("solve", (), ("net", LINK_ROW, _link_row_with(6, "nan")), "negative BPR parameter"),
    "link-fftime-inf": ("solve", (), ("net", LINK_ROW, _link_row_with(4, "inf")),
                        "line 8: link 1->3: infinite free-flow time or BPR parameter"),
    "link-alpha-inf": ("solve", (), ("net", LINK_ROW, _link_row_with(5, "inf")),
                       "line 8: link 1->3: infinite free-flow time or BPR parameter"),
    "link-beta-inf": ("solve", (), ("net", LINK_ROW, _link_row_with(6, "1e999")),
                      "line 8: link 1->3: infinite free-flow time or BPR parameter"),
    "add-fftime-inf": ("deltas", (), ("upgrades", "ADD 3 5 600 2 2", "ADD 3 5 600 2 inf"),
                       "line 19: link 3->5: infinite free-flow time or BPR parameter"),
    "add-alpha-inf": ("deltas", (), ("upgrades", "ADD 3 5 600 2 2 0.15", "ADD 3 5 600 2 2 inf"),
                      "line 19: link 3->5: infinite free-flow time or BPR parameter"),
    "mod-fftime-inf": ("deltas", (), ("upgrades", "MOD 1 3 CAPACITY=800", "MOD 1 3 CAPACITY=800 FFTIME=inf"),
                       "line 6: MOD free-flow time must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_nan_and_infinite_numbers_exit_2(data_dir, tmp_path, capsys, case):
    command, flags, edit, message = BAD_NUMBERS[case]
    (tmp_path / "growth.rules").write_text("SCALE 1-3 nan\n")
    argv = desk_args(data_dir, command, *(f.format(tmp=tmp_path) for f in flags))
    if edit is not None:
        key, old, new = edit
        text = (data_dir / DESK[key]).read_text()
        assert old in text
        edited = tmp_path / DESK[key]
        edited.write_text(text.replace(old, new, 1))
        argv[argv.index(f"--{key}") + 1] = str(edited)
    if command == "select":
        cache = str(tmp_path / "c.cache")
        assert main(desk_args(data_dir, "deltas", "--cache", cache)) == 0
        capsys.readouterr()
        argv += ["--cache", cache]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_an_infinite_capacity_solves(data_dir, tmp_path, capsys):
    net = tmp_path / DESK["net"]
    net.write_text((data_dir / DESK["net"]).read_text().replace(LINK_ROW, _link_row_with(2, "inf"), 1))
    argv = desk_args(data_dir, "solve")
    argv[argv.index("--net") + 1] = str(net)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("vht ") and err == ""


@pytest.mark.parametrize("budgets", ["900,,1700", "900,1700,", ""])
def test_empty_budget_element_is_a_usage_error(data_dir, capsys, budgets):
    assert main(desk_args(data_dir, "schedule", "--budgets", budgets)) == 1
    assert capsys.readouterr().err == f"usage error: --budgets: bad value {budgets!r}\n"


# growth that is infinite, or overflows when compounded or applied to a trip
# count: a data error (exit 2) before any solve.  (rule, budgets, message)
BAD_GROWTH = {
    "infinite": ("SCALE 1-2 inf", "900,900", "growth factor must be non-negative and finite"),
    "compounded": ("SCALE 1-2 1e300", "900,900,900", "growth factor 1e+300 compounded over 2 periods overflows"),
    "scaled-entry": ("SCALE 1-2 1e306", "900,900", "demand entry (1,2) scaled by 1e+306 overflows"),
}


@pytest.mark.parametrize("case", sorted(BAD_GROWTH))
def test_growth_that_overflows_exits_2(data_dir, tmp_path, capsys, case):
    rule, budgets, message = BAD_GROWTH[case]
    rules = tmp_path / "growth.rules"
    rules.write_text(rule + "\n")
    assert main(desk_args(data_dir, "schedule", "--budgets", budgets, "--growth-file", str(rules))) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("total", ["1000.0", "1e309"])
def test_an_infinite_trip_entry_is_a_parse_error(data_dir, tmp_path, capsys, total):
    # with an infinite declared total too, the total check cannot catch it
    text = (data_dir / DESK["trips"]).read_text()
    trips = tmp_path / DESK["trips"]
    trips.write_text(text.replace("1000.0;", "1e309;").replace("<TOTAL OD FLOW> 1000.0", f"<TOTAL OD FLOW> {total}"))
    argv = desk_args(data_dir, "solve")
    argv[argv.index("--trips") + 1] = str(trips)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: line 6: demand 1e309 for pair (1,2) is not finite\n")


@pytest.mark.parametrize("orders", ["1,,3", "1,2,", ""])
def test_empty_orders_element_is_a_usage_error(data_dir, tmp_path, capsys, orders):
    # rejected before the cache is read: none exists at this path
    argv = desk_args(data_dir, "error-report", "--cache", str(tmp_path / "c.cache"), "--orders", orders)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: --orders: bad value {orders!r}\n")


def test_readme_solver_flag_table_matches_the_parser():
    # each command's solver flags in the README table, against the parser's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Command | Solver flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = set()
    for row in table.splitlines():
        _, commands, flags, _ = row.split("|")
        documented = set(re.findall(r"`(--[\w-]+)`", flags))
        for command in re.findall(r"`([\w-]+)`", commands):
            listed.add(command)
            taken = subparsers.choices[command]._option_string_actions
            assert documented == {f for f in ("--gap", "--max-iters", "--workers") if f in taken}, command
    assert listed == set(subparsers.choices)


@pytest.mark.parametrize("restarts", ["0", "-4"])
def test_kmeans_restarts_below_one_exit_2(data_dir, capsys, restarts):
    argv = desk_args(data_dir, "predict-pairs", "--kmeans-k", "4", "--kmeans-restarts", restarts)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: k-means restarts must be at least 1\n"
