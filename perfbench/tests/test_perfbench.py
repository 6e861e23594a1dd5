"""Tests of the benchmark itself: a deterministic generator and checks that bite.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import roadworks as rw  # noqa: E402

import gridgen  # noqa: E402
import oracles  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import Ops, Round, _warm_matches  # noqa: E402

DESK = os.path.join(ROOT, "tests", "data")


def _desk_text(name):
    with open(os.path.join(DESK, f"desk_{name}")) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# grid generator


def test_grid_is_deterministic_for_a_seed():
    assert gridgen.generate(3) == gridgen.generate(3)


def test_grid_seeds_relabel_the_same_network():
    a, b = gridgen.generate(3), gridgen.generate(4)
    assert a["net"] != b["net"]
    assert a["trips"] == b["trips"]  # zones keep ids 1..25
    meta_a, links_a = oracles.read_links(a["net"])
    meta_b, links_b = oracles.read_links(b["net"])
    assert meta_a == meta_b
    assert meta_a["NUMBER OF NODES"] == 4096 and len(links_a) == 16128
    assert sorted(l[2:] for l in links_a) == sorted(l[2:] for l in links_b)
    assert len(oracles.read_trips(a["trips"])) == 600


def test_grid_parses_and_screens_its_one_pair():
    g = gridgen.generate(1)
    net = rw.parse_network(g["net"]).with_coordinates(rw.parse_nodes(g["nodes"]))
    ups = rw.parse_upgrades(g["upgrades"], network=net)
    pairs = rw.predict_pairs_threshold(rw.pairwise_distances(net, ups), gridgen.PAIR_THRESHOLD)
    assert pairs == {("G-COL", "G-ROW")}


# ---------------------------------------------------------------------------
# equilibrium checks on a real desk solve


@pytest.fixture(scope="module")
def desk():
    net = rw.parse_network(_desk_text("net.tntp"))
    demand = rw.parse_demand(_desk_text("trips.tntp"))
    base = rw.solve_with(net, demand, rw.SolverSettings(target_gap=1e-8, max_iters=1000))
    meta, links = oracles.read_links(_desk_text("net.tntp"))
    return meta, links, oracles.read_trips(_desk_text("trips.tntp")), base


def _check(desk, flows=None, vht=None, history=None):
    meta, links, trips, base = desk
    flows = list(base.flows) if flows is None else flows
    if vht is None:
        vht = sum(f * oracles.bpr(l, f) for l, f in zip(links, flows))
    history = list(base.beckmann_history) if history is None else history
    return oracles.check_assignment(meta, links, trips, flows, vht, history, 1e-8, "desk")


def test_assignment_passes_as_solved(desk):
    assert _check(desk, vht=desk[3].vht) == []


def test_assignment_fails_on_scaled_flows(desk):
    fails = _check(desk, flows=[1.01 * f for f in desk[3].flows])
    assert any("conservation" in f for f in fails)


def test_assignment_fails_on_a_wrong_vht(desk):
    assert any("reported VHT" in f for f in _check(desk, vht=1.001 * desk[3].vht))


def test_assignment_fails_off_equilibrium(desk):
    # shift 50 vehicles from the south corridor (links 3-5) to the north one:
    # flow is still conserved, but the north route is now the slower one
    flows = [f + 50.0 if k < 3 else f - 50.0 for k, f in enumerate(desk[3].flows)]
    fails = _check(desk, flows=flows, history=None)
    assert any("relative gap" in f for f in fails)
    assert not any("conservation" in f for f in fails)


def test_assignment_fails_on_a_rising_beckmann_history(desk):
    history = list(reversed(desk[3].beckmann_history))
    assert any("rose" in f or "does not end" in f for f in _check(desk, vht=desk[3].vht, history=history))


# ---------------------------------------------------------------------------
# two-route oracle and the estimator's telescoping


def _corridors():
    _, links = oracles.read_links(_desk_text("net.tntp"))
    mods = oracles.read_capacity_mods(_desk_text("upgrades.upg"))
    return links, {p: mods[p] for p in ("C-A1", "C-B2")}


def test_two_route_symmetric_split():
    links, _ = _corridors()
    north = links[:3]
    expected = 1000.0 * sum(oracles.bpr(l, 500.0) for l in north)
    assert oracles.two_route_vht(north, north, 1000.0) == pytest.approx(expected, rel=1e-12)


def test_two_route_check_passes_and_fails(desk):
    links, widenings = _corridors()
    net = rw.parse_network(_desk_text("net.tntp"))
    demand = rw.parse_demand(_desk_text("trips.tntp"))
    ups = rw.parse_upgrades(_desk_text("upgrades.upg"), network=net)
    table = rw.compute_deltas(net, demand, ups, [(p,) for p in widenings],
                              rw.SolverSettings(target_gap=1e-8, max_iters=1000))
    deltas = {p: table.evaluated_subsets[(p,)] for p in widenings}
    assert oracles.check_two_route(links, 1000.0, widenings, table.baseline_vht, deltas, "desk") == []
    assert oracles.check_two_route(links, 1000.0, widenings, 1.001 * table.baseline_vht, deltas, "desk")
    deltas["C-A1"] *= 1.01
    assert oracles.check_two_route(links, 1000.0, widenings, table.baseline_vht, deltas, "desk")


def test_full_order_check():
    good = "all subsets size <= 8               255        0.000           0\n"
    assert oracles.check_full_order(good, 8) == []
    assert oracles.check_full_order(good.replace("0.000", "0.012"), 8)
    assert oracles.check_full_order("", 8)


# ---------------------------------------------------------------------------
# selection and scheduling checks

VALUES = {"a": 100.0, "b": 80.0, "c": 30.0}
COSTS = {"a": 200.0, "b": 150.0, "c": 100.0}
PAIRS = {("a", "b"): -60.0}


def test_selection_check():
    # m = 3650: terms a 165, b 142, c 9.5, pair a-b -219
    assert oracles.check_selection(("a", "c"), VALUES, COSTS, PAIRS, 400.0, 3650.0, "s") == []
    assert oracles.check_selection(("b", "c"), VALUES, COSTS, PAIRS, 400.0, 3650.0, "s")  # swapped
    assert oracles.check_selection(("a", "b", "c"), VALUES, COSTS, {}, 400.0, 3650.0, "s")  # over budget


def _period_values():
    return {(i, t): v * (1.0 + 0.1 * t) for i, v in VALUES.items() for t in (1, 2)}


def test_independent_check():
    values = _period_values()
    budgets = (200.0, 250.0)
    best = max(oracles.feasible_schedules(COSTS, budgets),
               key=lambda a: oracles.schedule_npv(a, values, {}, COSTS, 0.05, 3650.0))
    npv = oracles.schedule_npv(best, values, {}, COSTS, 0.05, 3650.0)
    assert oracles.check_independent(best, npv, values, COSTS, budgets, 0.05, 3650.0, "i") == []
    assert oracles.check_independent(best, npv + 1.0, values, COSTS, budgets, 0.05, 3650.0, "i")
    assert oracles.check_independent({}, 0.0, values, COSTS, budgets, 0.05, 3650.0, "i")  # builds nothing
    over = {"a": 1, "b": 1}
    over_npv = oracles.schedule_npv(over, values, {}, COSTS, 0.05, 3650.0)
    assert oracles.check_independent(over, over_npv, values, COSTS, budgets, 0.05, 3650.0, "i")


def test_feasible_schedules_match_the_full_product():
    from itertools import product

    budgets = (200.0, 250.0)
    ids = sorted(COSTS)
    full = []
    for choice in product(range(3), repeat=3):
        assign = {i: t for i, t in zip(ids, choice) if t}
        if not oracles.check_budgets(assign, COSTS, budgets, ""):
            full.append(sorted(assign.items()))
    assert sorted(sorted(a.items()) for a in oracles.feasible_schedules(COSTS, budgets)) == sorted(full)


def test_greedy_check():
    values = _period_values()
    plan = {"a": 1, "c": 2}
    npv = oracles.schedule_npv(plan, values, {}, COSTS, 0.05, 3650.0)
    assert oracles.check_greedy(plan, npv, values, {}, COSTS, (200.0, 100.0), 0.05, 3650.0, "g") == []
    assert oracles.check_greedy(plan, npv, values, {}, COSTS, (200.0, 50.0), 0.05, 3650.0, "g")  # over budget
    assert oracles.check_greedy(plan, npv * 1.01, values, {}, COSTS, (200.0, 100.0), 0.05, 3650.0, "g")


def test_warm_pass_must_match_the_cold_pass(tmp_path):
    rnd = Round(str(tmp_path / "round0"))
    assert _warm_matches(rnd, [("select", "ids a", "ids a")]) == []
    assert _warm_matches(rnd, [("select", "ids a", "ids b")])
    rnd.warm_fresh = True
    assert _warm_matches(rnd, [])


def test_unconverged_cache_rows_count_as_failed(tmp_path):
    path = tmp_path / "x.cache"
    path.write_text("# roadworks delta cache\nnetwork ab\ndemand cd\ntarget_gap 1e-08\n"
                    "BASELINE 100.0 1e-12\na 5.0 1e-9\na,b 7.0 9.4e-05\n")
    ops = Ops()
    ops.cache_rows([str(path)], 1e-8)
    assert (ops.attempted, ops.failed) == (3, 1)


# ---------------------------------------------------------------------------
# one real round


def test_desk_round_passes_its_checks_with_two_known_failures():
    result = run_workload("desk-cli", seed=5, seconds=0, trace=False)
    assert result["check_failures"] == []
    assert result["correct"] and result["failed"] == 2
    assert all(" C-A1,C-B3,C-X1,C-X2 " in f or " C-A3,C-B1,C-X1,C-X2 " in f for f in result["failed_operations"])


def test_traced_desk_run_reports_every_layer_metric():
    result = run_workload("desk-cli", seed=5, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 4  # the untraced round and the traced one
    assert set(result["metrics"]) == set(PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["scenario.warm_tap_solves"] == 0
    assert metrics["cli.calls"] > 0 and metrics["scenario.tap_solves"] > 255
