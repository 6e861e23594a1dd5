"""Acceptance checks for the whole pipeline, one numbered criterion each.

Every test emits a single `criterion N: PASS/FAIL ...` line straight to the
terminal (it bypasses capture, so it shows up in plain `pytest -v` output)
and then asserts, so an honest red still reports which bar was missed.
"""

import math
import py_compile
import random
import re
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from roadworks import (
    DemandMatrix,
    Link,
    LinkModification,
    Network,
    PlanningHorizon,
    SelectionProblem,
    SolverSettings,
    Upgrade,
    UpgradeSet,
    apply_upgrades,
    check_schedule,
    compute_deltas,
    error_report,
    estimate_delta,
    evaluate_selection,
    greedy_schedule,
    independent_schedule,
    optimize_subset,
    pairwise_distances,
    predict_pairs_threshold,
    shortest_paths,
    solve_with,
)

from roadworks.shortest_path import _BatchGraph, _trees_for_origins

from netfixtures import braess_demand, braess_net, braess_upgrades, two_link_demand, two_link_net
from oracles import (
    dijkstra,
    exhaustive_best_schedule,
    exhaustive_best_subset,
    knapsack_best_value,
    two_link_flows,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def criterion_line(request):
    """Emit exactly one capture-proof verdict line for this criterion."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    number = int(re.search(r"criterion_(\d+)", request.node.name).group(1))
    state = {"written": False}

    def write(line):
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line)

    def verdict(ok, detail=""):
        state["written"] = True
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
        write(line)
        assert ok, line

    yield verdict
    if not state["written"]:
        write(f"criterion {number}: FAIL (aborted before verdict)")


def _random_digraph(rng):
    n = rng.randint(2, 200)
    m = rng.randint(1, 2000)
    pool = (0.0, 0.25, 1.0, 2.5, 5.0, 10.0)
    links = []
    costs = []
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        links.append(Link(u, v, 1.0, 1.0, 0.0, 1.0))
        costs.append(rng.choice(pool) if rng.random() < 0.2 else rng.uniform(0.0, 10.0))
    if not links:
        links.append(Link(1, 2, 1.0, 1.0, 0.0, 1.0))
        costs.append(rng.uniform(0.0, 10.0))
    first_thru = rng.choice([1, 1, 1, rng.randint(1, max(1, n // 4))])
    net = Network(node_count=n, links=tuple(links), zone_count=1, first_thru_node=first_thru)
    return net, costs


def test_criterion_1_shortest_path_oracle_equivalence(criterion_line):
    rng = random.Random(193)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        net, costs = _random_digraph(rng)
        source = rng.randint(1, net.node_count)
        ref, _ = dijkstra(net.node_count, net.adjacency, costs, source, net.first_thru_node)
        kernel = shortest_paths(net, costs, source).labels
        array, _ = _trees_for_origins(_BatchGraph([net]), np.array(costs), [source], [0])
        for labels in (kernel, array[0].tolist()):
            for node in net.nodes:
                got, want = labels[node], ref[node]
                if got == want:
                    continue
                if math.isinf(got) != math.isinf(want):
                    worst = math.inf
                else:
                    worst = max(worst, abs(got - want) / max(abs(got), abs(want)))
    elapsed = time.perf_counter() - t0
    criterion_line(
        worst <= 1e-12 and elapsed < 30.0,
        f"bellman-ford kernel and array path vs binary-heap dijkstra on 1000 digraphs, "
        f"max relative label diff {worst:.1e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_two_link_analytic_equilibrium(criterion_line):
    net = two_link_net(t1=10.0, t2=20.0, q1=1000.0, q2=1000.0, alpha=0.15, beta=4.0)
    demand = two_link_demand(1500.0)
    t0 = time.perf_counter()
    result = solve_with(net, demand, SolverSettings(target_gap=1e-8, max_iters=10_000))
    elapsed = time.perf_counter() - t0
    want = two_link_flows(net, 1500.0)
    diff = max(abs(result.flows[0] - want[0]), abs(result.flows[1] - want[1]))
    criterion_line(
        diff <= 1e-4 and result.relative_gap <= 1e-8 and elapsed < 1.0,
        f"flows ({result.flows[0]:.6f}, {result.flows[1]:.6f}) vs bisection oracle "
        f"({want[0]:.6f}, {want[1]:.6f}), diff {diff:.1e} vehicles at gap "
        f"{result.relative_gap:.1e}, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_braess_bypass_hurts(criterion_line):
    net = braess_net()
    demand = braess_demand()
    upgrades = braess_upgrades(net)
    settings = SolverSettings(target_gap=1e-8, max_iters=10_000)
    t0 = time.perf_counter()
    base = solve_with(net, demand, settings)
    bypassed = solve_with(apply_upgrades(net, upgrades, ("bypass",)), demand, settings)
    table = compute_deltas(net, demand, upgrades, [("bypass",)], settings)
    elapsed = time.perf_counter() - t0
    v1 = table.singles["bypass"]
    criterion_line(
        bypassed.vht > base.vht and v1 < 0.0 and elapsed < 1.0,
        f"VHT {base.vht:.1f} -> {bypassed.vht:.1f} after adding the free bypass, "
        f"v_1 = {v1:.1f} < 0, both at gap 1e-8, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_sioux_falls_convergence(criterion_line, sioux, sioux_tables_by_workers):
    t0 = time.perf_counter()
    result = solve_with(sioux.net, sioux.demand, SolverSettings(target_gap=1e-4, max_iters=2000))
    elapsed = time.perf_counter() - t0

    hist = result.beckmann_history
    monotone = all(b <= a + 1e-12 * abs(a) for a, b in zip(hist, hist[1:]))

    excess = defaultdict(float)
    for link, flow in zip(sioux.net.links, result.flows):
        excess[link.from_node] += float(flow)
        excess[link.to_node] -= float(flow)
    for (r, s), q in sioux.demand.entries.items():
        excess[r] -= q
        excess[s] += q
    worst_node = max(abs(excess[v]) for v in range(1, sioux.net.node_count + 1))

    one, two = sioux_tables_by_workers
    identical = one == two

    criterion_line(
        result.relative_gap <= 1e-4
        and result.iterations <= 2000
        and monotone
        and worst_node <= 1e-6
        and identical
        and elapsed < 10.0,
        f"gap {result.relative_gap:.2e} in {result.iterations} iterations, Beckmann "
        f"monotone, worst node imbalance {worst_node:.1e}, delta tables on workers 1 vs 2 "
        f"{'bit-identical' if identical else 'DIFFER'}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_5_estimator_exact_at_full_order(criterion_line, desk_table):
    worst_exact = 0.0
    for subset, exact in desk_table.evaluated_subsets.items():
        estimate = estimate_delta(desk_table, subset, len(subset))
        worst_exact = max(worst_exact, abs(estimate - exact) / abs(exact))
    rows = error_report(desk_table, orders=[1, 2, 3, 4, 5, 6])
    means = [row.mean_error_pct for row in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    criterion_line(
        worst_exact <= 1e-9 and monotone,
        f"order-|S| estimate within {worst_exact:.1e} relative over all 63 subsets, "
        f"mean error % by order {['%.3f' % m for m in means]} non-increasing",
    )


def _random_dense_problem(rng, n):
    ids = tuple(f"u{i:02d}" for i in range(n))
    values = {i: rng.uniform(-500.0, 2000.0) for i in ids}
    costs = {i: float(rng.randint(1, 60)) for i in ids}
    corrections = {}
    for a in range(n):
        for b in range(a + 1, n):
            corrections[(ids[a], ids[b])] = rng.uniform(-400.0, 200.0)
    budget = rng.uniform(0.0, sum(costs.values()))
    return SelectionProblem(
        ids=ids, values=values, costs=costs, corrections=corrections, budget=budget, m=1000.0
    )


def test_criterion_6_portfolio_matches_exhaustive(criterion_line):
    rng = random.Random(826)
    t0 = time.perf_counter()
    for _ in range(200):
        problem = _random_dense_problem(rng, rng.randint(2, 15))
        want = exhaustive_best_subset(problem)
        got = optimize_subset(problem)
        assert got.chosen == want.chosen
        assert got.objective == want.objective

    # with every interaction term zero the objective separates per item, so a
    # 0/1 knapsack over integer profits must agree exactly
    for _ in range(200):
        n = rng.randint(1, 20)
        ids = tuple(f"k{i:02d}" for i in range(n))
        values = {i: float(rng.randint(-10, 60)) for i in ids}
        costs = {i: float(rng.randint(1, 30)) for i in ids}
        budget = rng.randint(0, 90)
        problem = SelectionProblem(
            ids=ids, values=values, costs=costs, corrections={},
            budget=float(budget), m=1000.0,
        )
        got = optimize_subset(problem)
        profits = [int(values[i] - costs[i]) for i in ids]
        weights = [int(costs[i]) for i in ids]
        assert got.objective == float(knapsack_best_value(profits, weights, budget))
    elapsed = time.perf_counter() - t0
    criterion_line(
        elapsed < 60.0,
        f"200 dense instances (n <= 15) equal exhaustive enumeration exactly, "
        f"200 zero-interaction instances equal the knapsack oracle, {elapsed:.1f}s (< 60s)",
    )


CHICAGO_COSTS = {
    "03-02-9005": 999.0,
    "03-03-0101": 465.0,
    "03-95-0001": 4000.0,
    "03-96-0024": 1000.0,
    "07-06-0014": 472.0,
    "07-94-0027": 700.0,
    "07-96-0013": 748.0,
    "07-97-0055": 4000.0,
}
BERLIN_COSTS = {
    "ber01": 300.0,
    "ber02": 1000.0,
    "ber03": 800.0,
    "ber04": 2500.0,
    "ber05": 2000.0,
    "ber06": 4000.0,
    "ber06a": 8000.0,
    "ber10": 1200.0,
    "ber10a": 8700.0,
}


def _aggregate_problem(costs, chosen, reduction):
    share = reduction / len(chosen)
    values = {i: (share if i in chosen else 0.0) for i in costs}
    return SelectionProblem(
        ids=tuple(sorted(costs)), values=values, costs=dict(costs),
        corrections={}, budget=10_000.0, m=3650.0,
    )


def test_criterion_7_reference_arithmetic(criterion_line):
    chi_chosen = ("03-95-0001", "07-06-0014", "07-94-0027", "07-96-0013", "07-97-0055")
    chi = evaluate_selection(_aggregate_problem(CHICAGO_COSTS, chi_chosen, 48_844.0), chi_chosen)
    ber_chosen = ("ber01", "ber06a", "ber10")
    ber = evaluate_selection(_aggregate_problem(BERLIN_COSTS, ber_chosen, 127_679.0), ber_chosen)
    nets_ok = (
        abs(chi.objective - 168_358.0) <= 10.0
        and chi.spend == 9920.0
        and abs(ber.objective - 456_532.0) <= 10.0
        and ber.spend == 9500.0
    )

    upgrades = UpgradeSet(tuple(
        Upgrade(id=i, cost=c, kind="capacity-upgrade",
                modifications=(LinkModification(1, 2, capacity=100.0),))
        for i, c in sorted(CHICAGO_COSTS.items())
    ))
    horizon = PlanningHorizon(
        budgets=(1000.0, 4000.0, 1500.0, 3000.0, 5000.0),
        rate=0.04,
        demands=tuple(DemandMatrix({}) for _ in range(5)),
        m=3650.0,
    )
    schedules = [
        ({"03-02-9005": 1, "03-95-0001": 2, "07-94-0027": 3, "07-96-0013": 3,
          "03-03-0101": 4, "03-96-0024": 4, "07-06-0014": 4, "07-97-0055": 5},
         (999.0, 4000.0, 1448.0, 1937.0, 4000.0), 12_384.0),
        ({"07-96-0013": 1, "03-95-0001": 2, "07-06-0014": 3, "07-94-0027": 3,
          "03-03-0101": 4, "07-97-0055": 5},
         (748.0, 4000.0, 1172.0, 465.0, 4000.0), 10_385.0),
        ({"07-96-0013": 1, "03-95-0001": 2, "03-03-0101": 3, "07-06-0014": 4,
          "07-94-0027": 5, "07-97-0055": 5},
         (748.0, 4000.0, 465.0, 472.0, 4700.0), 10_385.0),
    ]
    rows_ok = True
    for assignments, want_spend, want_total in schedules:
        report = check_schedule(upgrades, horizon, assignments)
        rows_ok = rows_ok and report.ok
        rows_ok = rows_ok and report.per_period_spend == want_spend
        rows_ok = rows_ok and sum(report.per_period_spend) == want_total

    criterion_line(
        nets_ok and rows_ok,
        f"net values {chi.objective:.1f} / {ber.objective:.1f} k$ within 10 of the "
        f"reference 168358 / 456532; all three expenditure rows and totals exact",
    )


def test_criterion_8_scheduler_exactness(criterion_line, desk):
    rng = random.Random(8318)
    t0 = time.perf_counter()
    biggest_nmax = {1: 8, 2: 8, 3: 6, 4: 6}
    for _ in range(100):
        T = rng.randint(1, 4)
        N = rng.randint(1, biggest_nmax[T])
        upgrades = UpgradeSet(tuple(
            Upgrade(id=f"u{i}", cost=float(rng.randint(1, 40)), kind="capacity-upgrade",
                    modifications=(LinkModification(1, 2, capacity=100.0),))
            for i in range(N)
        ))
        horizon = PlanningHorizon(
            budgets=tuple(float(rng.randint(0, 80)) for _ in range(T)),
            rate=rng.choice([0.0, 0.04, 0.1]),
            demands=tuple(DemandMatrix({}) for _ in range(T)),
            m=1000.0,
        )
        values = {
            (f"u{i}", t): rng.uniform(-30.0, 120.0)
            for i in range(N) for t in range(1, T + 1)
        }
        want_npv, want_assign = exhaustive_best_schedule(values, {}, upgrades, horizon)
        got = independent_schedule(values, upgrades, horizon)
        assert got.npv == want_npv
        assert dict(got.assignments) == want_assign
        assert check_schedule(upgrades, horizon, got.assignments).ok

    # with one period and no discounting the greedy scheduler must reduce to
    # the budgeted subset optimizer
    settings = SolverSettings(target_gap=1e-8, max_iters=4000)
    pairs = sorted(predict_pairs_threshold(pairwise_distances(desk.net, desk.upgrades), 10.5))
    horizon1 = PlanningHorizon.with_growth((2400.0,), 0.0, desk.demand, (), m=3650.0)
    schedule = greedy_schedule(desk.net, desk.upgrades, horizon1, settings, pairs=pairs)
    table = compute_deltas(
        desk.net, desk.demand, desk.upgrades,
        [(i,) for i in desk.upgrades.ids] + [tuple(p) for p in pairs], settings,
    )
    problem = SelectionProblem.from_delta_table(table, desk.upgrades, 2400.0, m=3650.0)
    selection = optimize_subset(problem)
    assert dict(schedule.assignments) == {i: 1 for i in selection.chosen}
    assert check_schedule(desk.upgrades, horizon1, schedule.assignments).ok

    elapsed = time.perf_counter() - t0
    criterion_line(
        elapsed < 60.0,
        f"independent model equals exhaustive enumeration on 100 instances "
        f"(N <= 8, T <= 4), greedy at T=1 picks {{{', '.join(selection.chosen)}}} "
        f"like the subset optimizer, every schedule feasible, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_fullscale_reproduction_documented(criterion_line):
    script = ROOT / "scripts" / "reproduce_fullscale.py"
    exists = script.exists()
    compiles = False
    if exists:
        py_compile.compile(str(script), doraise=True)
        compiles = True
    readme = (ROOT / "README.md").read_text()
    documented = "reproduce_fullscale" in readme and all(
        token in readme for token in ("33,657,132", "20,817,229", "164,359")
    )
    criterion_line(
        exists and compiles and documented,
        "full-scale runs need the original datasets and hours of compute, so they are "
        "not executed here; scripts/reproduce_fullscale.py compiles and the README "
        "records the reference values it should reproduce",
    )
