"""Multi-period scheduling: NPV arithmetic, exact and heuristic solvers."""

import random
from itertools import product
from pathlib import Path

import pytest

from roadworks import (
    DataError,
    DeltaBook,
    DemandMatrix,
    GrowthRule,
    LinkModification,
    ParseError,
    PlanningHorizon,
    Schedule,
    SolverSettings,
    Upgrade,
    UpgradeSet,
    apply_upgrades,
    better_assignment,
    check_schedule,
    compute_deltas,
    format_schedule_listing,
    format_schedule_table,
    greedy_schedule,
    independent_schedule,
    optimize_subset,
    parse_growth_rules,
    parse_upgrades,
    period_singles,
    period_spend,
    present_value,
    realized_npv,
    schedule_npv,
    SelectionProblem,
)

from oracles import exhaustive_best_schedule


def dummy_upgrade(uid, cost):
    return Upgrade(
        id=uid,
        cost=float(cost),
        kind="capacity-upgrade",
        modifications=(LinkModification(1, 2, capacity=100.0),),
    )


def paper_horizon(budgets, rate=0.0, m=1000.0):
    return PlanningHorizon(
        budgets=tuple(float(b) for b in budgets),
        rate=rate,
        demands=tuple(DemandMatrix({}) for _ in budgets),
        m=m,
    )


def test_parse_growth_rules():
    rules = parse_growth_rules("# comment\nSCALE 1,3 1.05\nSCALE 5-8 1.10\n")
    assert rules == (
        GrowthRule(zones=(1, 3), factor=1.05),
        GrowthRule(zones=(5, 6, 7, 8), factor=1.10),
    )
    with pytest.raises(ParseError):
        parse_growth_rules("SCALE 1\n")
    with pytest.raises(ParseError):
        parse_growth_rules("SCALE 1,2 fast\n")
    with pytest.raises(ParseError):
        parse_growth_rules("GROW 1 1.05\n")
    with pytest.raises(ParseError):
        parse_growth_rules("SCALE 8-5 1.05\n")


def test_with_growth_compounds():
    base = DemandMatrix({(1, 2): 100.0, (3, 4): 50.0})
    rules = (GrowthRule(zones=(1,), factor=1.10),)
    horizon = PlanningHorizon.with_growth([10, 10, 10], 0.0, base, rules)
    assert horizon.demand_for(1).entries[(1, 2)] == pytest.approx(100.0)
    assert horizon.demand_for(2).entries[(1, 2)] == pytest.approx(110.0)
    assert horizon.demand_for(3).entries[(1, 2)] == pytest.approx(121.0)
    # untouched entry stays flat
    assert horizon.demand_for(3).entries[(3, 4)] == 50.0


def test_overlapping_rules_multiply():
    base = DemandMatrix({(1, 2): 100.0})
    rules = (GrowthRule(zones=(1,), factor=1.10), GrowthRule(zones=(2,), factor=1.20))
    horizon = PlanningHorizon.with_growth([10, 10], 0.0, base, rules)
    assert horizon.demand_for(2).entries[(1, 2)] == pytest.approx(100.0 * 1.10 * 1.20)


def test_horizon_validation():
    with pytest.raises(DataError):
        paper_horizon([])
    with pytest.raises(DataError):
        paper_horizon([10, -1])
    with pytest.raises(DataError):
        PlanningHorizon(budgets=(10.0,), rate=-0.1, demands=(DemandMatrix({}),))
    with pytest.raises(DataError):
        PlanningHorizon(budgets=(10.0, 20.0), rate=0.0, demands=(DemandMatrix({}),))
    h = paper_horizon([10, 20])
    with pytest.raises(DataError):
        h.demand_for(3)


def test_present_value():
    assert present_value(110.0, 1, 0.10) == pytest.approx(100.0)
    assert present_value(121.0, 2, 0.10) == pytest.approx(100.0)
    assert present_value(50.0, 3, 0.0) == 50.0


def test_period_spend_and_check():
    ups = UpgradeSet((dummy_upgrade("a", 10), dummy_upgrade("b", 20), dummy_upgrade("c", 5)))
    horizon = paper_horizon([15, 25])
    spend = period_spend(ups, horizon, {"a": 1, "c": 1, "b": 2})
    assert spend == (15.0, 20.0)
    report = check_schedule(ups, horizon, {"a": 1, "c": 1, "b": 2})
    assert report.ok
    assert report.per_period_spend == (15.0, 20.0)

    over = check_schedule(ups, horizon, {"a": 1, "b": 1})
    assert not over.ok
    assert any("period 1" in v for v in over.violations)

    bad_id = check_schedule(ups, horizon, {"zz": 1})
    assert not bad_id.ok
    bad_period = check_schedule(ups, horizon, {"a": 3})
    assert not bad_period.ok


def test_npv_counts_pairs_only_when_built_together():
    ups = UpgradeSet((dummy_upgrade("a", 10), dummy_upgrade("b", 20)))
    horizon = paper_horizon([100, 100])
    values = {("a", 1): 50.0, ("b", 1): 70.0, ("a", 2): 55.0, ("b", 2): 77.0}
    pairs = {(("a", "b"), 1): 8.0, (("a", "b"), 2): 9.0}
    together = schedule_npv(values, pairs, ups, horizon, {"a": 1, "b": 1})
    assert together == pytest.approx(50.0 + 70.0 + 8.0 - 30.0)
    split = schedule_npv(values, pairs, ups, horizon, {"a": 1, "b": 2})
    assert split == pytest.approx(50.0 - 10.0 + 77.0 - 20.0)  # no pair term
    later = schedule_npv(values, pairs, ups, horizon, {"a": 2, "b": 2})
    assert later == pytest.approx(55.0 + 77.0 + 9.0 - 30.0)


def test_npv_discounts_benefits_not_costs():
    ups = UpgradeSet((dummy_upgrade("a", 10),))
    horizon = PlanningHorizon(
        budgets=(100.0, 100.0), rate=0.10, demands=(DemandMatrix({}),) * 2, m=1000.0
    )
    values = {("a", 1): 50.0, ("a", 2): 50.0}
    now = schedule_npv(values, {}, ups, horizon, {"a": 1})
    assert now == pytest.approx(50.0 / 1.1 - 10.0)
    wait = schedule_npv(values, {}, ups, horizon, {"a": 2})
    assert wait == pytest.approx(50.0 / 1.21 - 10.0)


def test_npv_missing_value_is_an_error():
    ups = UpgradeSet((dummy_upgrade("a", 10),))
    horizon = paper_horizon([100, 100])
    with pytest.raises(DataError, match="period-2"):
        schedule_npv({("a", 1): 5.0}, {}, ups, horizon, {"a": 2})
    with pytest.raises(DataError):
        schedule_npv({("a", 1): 5.0}, {}, ups, horizon, {"zz": 1})
    with pytest.raises(DataError):
        schedule_npv({("a", 1): 5.0}, {}, ups, horizon, {"a": 9})


def test_better_assignment_order():
    assert better_assignment(10.0, {"a": 1}, 5.0, {})
    assert not better_assignment(5.0, {}, 10.0, {"a": 1})
    # tie on npv: fewer builds
    assert better_assignment(5.0, {"a": 1}, 5.0, {"a": 1, "b": 2})
    # tie on npv and count: lex smaller (id, period) items
    assert better_assignment(5.0, {"a": 1}, 5.0, {"a": 2})
    assert better_assignment(5.0, {"a": 2}, 5.0, {"b": 1})


def random_linear_instance(rng):
    while True:
        n = rng.randint(2, 8)
        T = rng.randint(1, 4)
        if (T + 1) ** n <= 3000:
            break
    ups = UpgradeSet(
        tuple(dummy_upgrade(f"p{i:02d}", rng.randint(1, 60)) for i in range(n))
    )
    horizon = PlanningHorizon(
        budgets=tuple(float(rng.randint(20, 120)) for _ in range(T)),
        rate=rng.choice([0.0, 0.03, 0.10]),
        demands=tuple(DemandMatrix({}) for _ in range(T)),
        m=rng.choice([365.0, 1000.0, 3650.0]),
    )
    values = {
        (i, t): rng.uniform(-50.0, 200.0)
        for i in ups.ids
        for t in range(1, T + 1)
    }
    return values, ups, horizon


def tied_linear_instance(rng):
    """Equal costs, integer values, rate 0 and m' = 1: many equal optima."""
    n, T = rng.randint(2, 6), rng.randint(1, 3)
    while (T + 1) ** n > 3000:
        n -= 1
    ids = rng.sample([f"q{i}" for i in range(n)], n)  # not in id order
    ups = UpgradeSet(tuple(dummy_upgrade(i, 10) for i in ids))
    horizon = paper_horizon([float(rng.choice([0, 10, 20, 30])) for _ in range(T)])
    values = {(i, t): float(rng.choice([5, 10, 20, 20])) for i in ids for t in range(1, T + 1)}
    return values, ups, horizon


def test_independent_matches_exhaustive():
    rng = random.Random(88)
    instances = [random_linear_instance(rng) for _ in range(30)] + [tied_linear_instance(rng) for _ in range(40)]
    tied = 0
    for values, ups, horizon in instances:
        got = independent_schedule(values, ups, horizon)
        want_npv, want_assign = exhaustive_best_schedule(values, {}, ups, horizon)
        assert got.npv == want_npv
        assert got.assignments == want_assign
        assert list(got.assignments) == sorted(got.assignments)
        assert check_schedule(ups, horizon, got.assignments).ok
        ids = sorted(ups.ids)
        optima = 0
        for choice in product(range(horizon.T + 1), repeat=len(ids)):
            assign = {i: t for i, t in zip(ids, choice) if t}
            if check_schedule(ups, horizon, assign).ok:
                optima += schedule_npv(values, {}, ups, horizon, assign) == want_npv
        tied += optima > 1
    assert tied >= 10  # the tie-break decides many of these


def test_independent_requires_complete_values():
    ups = UpgradeSet((dummy_upgrade("a", 10),))
    horizon = paper_horizon([100, 100])
    with pytest.raises(DataError, match="missing"):
        independent_schedule({("a", 1): 5.0}, ups, horizon)


def test_independent_empty_when_nothing_pays():
    ups = UpgradeSet((dummy_upgrade("a", 50), dummy_upgrade("b", 60)))
    horizon = paper_horizon([100, 100])
    values = {(i, t): 1.0 for i in ("a", "b") for t in (1, 2)}
    sched = independent_schedule(values, ups, horizon)
    assert sched.assignments == {}
    assert sched.npv == 0.0


def desk_horizon(desk, budgets, rate=0.0, growth=()):
    return PlanningHorizon.with_growth(budgets, rate, desk.demand, growth)


def test_greedy_single_period_equals_subset_optimum(desk):
    settings = SolverSettings(target_gap=1e-7)
    budget = 2400.0
    horizon = desk_horizon(desk, [budget])
    sched = greedy_schedule(desk.net, desk.upgrades, horizon, settings)
    assert check_schedule(desk.upgrades, horizon, sched.assignments).ok

    table = compute_deltas(
        desk.net,
        desk.demand,
        desk.upgrades,
        [(i,) for i in desk.upgrades.ids],
        settings,
    )
    problem = SelectionProblem.from_delta_table(
        table, desk.upgrades, budget=budget, m=horizon.m
    )
    best = optimize_subset(problem)
    assert set(sched.assignments) == set(best.chosen)
    assert all(t == 1 for t in sched.assignments.values())


def test_greedy_multi_period_is_feasible_and_reported(desk):
    settings = SolverSettings(target_gap=1e-6)
    horizon = desk_horizon(
        desk, [900.0, 900.0, 1700.0], rate=0.05, growth=(GrowthRule((1,), 1.08),)
    )
    sched = greedy_schedule(
        desk.net,
        desk.upgrades,
        horizon,
        settings,
        pairs=[("C-A1", "C-B1"), ("C-A2", "C-B2"), ("C-A3", "C-B3")],
    )
    report = check_schedule(desk.upgrades, horizon, sched.assignments)
    assert report.ok
    assert sched.per_period_spend == report.per_period_spend
    assert sched.assignments  # the corridor projects comfortably pay off
    realized = realized_npv(desk.net, desk.upgrades, horizon, sched.assignments, settings)
    assert realized == pytest.approx(sched.npv, rel=0.25)


def test_greedy_rejects_bad_pairs(desk):
    settings = SolverSettings(target_gap=1e-6)
    horizon = desk_horizon(desk, [1000.0])
    with pytest.raises(DataError):
        greedy_schedule(desk.net, desk.upgrades, horizon, settings, pairs=[("C-A1", "C-A1")])
    with pytest.raises(DataError):
        greedy_schedule(desk.net, desk.upgrades, horizon, settings, pairs=[("C-A1", "nope")])


def test_greedy_cache_dir_round_trip(desk, tmp_path):
    settings = SolverSettings(target_gap=1e-6)
    horizon = desk_horizon(desk, [1700.0, 1700.0], rate=0.04)
    cache_dir = str(tmp_path / "caches")
    first = greedy_schedule(
        desk.net, desk.upgrades, horizon, settings, cache_dir=cache_dir
    )
    files = sorted(Path(cache_dir).glob("*.cache"))
    assert files
    snapshot = {f: f.read_text() for f in files}

    second = greedy_schedule(
        desk.net, desk.upgrades, horizon, settings, cache_dir=cache_dir
    )
    assert second.assignments == first.assignments
    assert second.npv == first.npv
    # warm caches absorbed every solve: no file grew
    assert {f: f.read_text() for f in sorted(Path(cache_dir).glob("*.cache"))} == snapshot


def test_realized_npv_one_build_matches_estimate(desk):
    settings = SolverSettings(target_gap=1e-8)
    horizon = desk_horizon(desk, [800.0])
    table = compute_deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)], settings)
    values = {("C-A1", 1): table.singles["C-A1"]}
    estimate = schedule_npv(values, {}, desk.upgrades, horizon, {"C-A1": 1})
    realized = realized_npv(desk.net, desk.upgrades, horizon, {"C-A1": 1}, settings)
    assert realized == pytest.approx(estimate, rel=1e-6)


def test_realized_npv_rejects_infeasible(desk):
    settings = SolverSettings(target_gap=1e-6)
    horizon = desk_horizon(desk, [10.0])
    with pytest.raises(DataError, match="infeasible"):
        realized_npv(desk.net, desk.upgrades, horizon, {"C-A1": 1}, settings)


def test_realized_npv_warns_when_a_solve_is_capped(desk):
    settings = SolverSettings(target_gap=1e-8, max_iters=1)
    horizon = desk_horizon(desk, [800.0, 800.0])
    with pytest.warns(RuntimeWarning) as caught:
        realized_npv(desk.net, desk.upgrades, horizon, {"C-A1": 1, "C-B1": 2}, settings)
    labels = [str(w.message).split(": stopped")[0] for w in caught]
    assert labels == ["baseline", "subset {C-A1}", "baseline", "subset {C-B1}"]


def test_realized_npv_rejects_a_mod_conflict_between_periods(desk):
    text = (Path(__file__).parent / "data" / "desk_upgrades.upg").read_text()
    upgrades = parse_upgrades(text.replace("MOD 3 4 CAPACITY=800", "MOD 1 3 CAPACITY=900"), network=desk.net)
    horizon = desk_horizon(desk, [800.0, 800.0])
    with pytest.raises(DataError, match="upgrades C-A1 and C-A2 both modify link"):
        realized_npv(desk.net, upgrades, horizon, {"C-A1": 1, "C-A2": 2}, SolverSettings(target_gap=1e-6))


def test_realized_npv_reads_through_a_book(desk):
    settings = SolverSettings(target_gap=1e-8)
    horizon = desk_horizon(desk, [800.0, 800.0])
    schedule = {"C-A1": 1, "C-B1": 2}
    book = DeltaBook(settings)
    # period 1's baseline and C-A1 row are already in the book
    book.deltas(desk.net, horizon.demand_for(1), desk.upgrades, [("C-A1",)])
    alone = realized_npv(desk.net, desk.upgrades, horizon, schedule, settings)
    assert realized_npv(desk.net, desk.upgrades, horizon, schedule, settings, book=book) == alone
    # period 1 reused the book's row; period 2's baseline and row are now in the book
    assert list(book.cache(desk.net, horizon.demand_for(1)).rows()) == [("C-A1",)]
    built = apply_upgrades(desk.net, desk.upgrades, ["C-A1"])
    assert book.deltas(built, horizon.demand_for(2), desk.upgrades, [("C-B1",)]).tap_solves == 0
    with pytest.raises(DataError, match="the book solves at"):
        realized_npv(desk.net, desk.upgrades, horizon, schedule, SolverSettings(target_gap=1e-6), book=book)


def test_period_singles_reads_every_period_from_the_book(desk):
    settings = SolverSettings(target_gap=1e-6)
    horizon = desk_horizon(desk, [800.0, 800.0], growth=(GrowthRule((1,), 1.2),))
    book = DeltaBook(settings)
    values = period_singles(book, desk.net, desk.upgrades, horizon)
    ids = desk.upgrades.ids
    assert list(values) == [(i, t) for t in (1, 2) for i in ids]
    for t in (1, 2):
        table = compute_deltas(desk.net, horizon.demand_for(t), desk.upgrades, [(i,) for i in ids], settings)
        assert {i: values[(i, t)] for i in ids} == table.singles
    # a second pass reads the book's caches and solves nothing
    again = [book.deltas(desk.net, horizon.demand_for(t), desk.upgrades, [(i,) for i in ids]) for t in (1, 2)]
    assert [table.tap_solves for table in again] == [0, 0]


def _realized_period_by_period(book, net, upgrades, horizon, assignments):
    """realized_npv with one `book.deltas` call per period, in period order."""
    current, npv = net, 0.0
    for t in range(1, horizon.T + 1):
        batch = tuple(sorted(i for i, period in assignments.items() if period == t))
        if batch:
            table = book.deltas(current, horizon.demand_for(t), upgrades, [batch])
            npv += present_value(horizon.m / 1000.0, t, horizon.rate) * table.evaluated_subsets[batch]
            for i in batch:
                npv -= upgrades.by_id[i].cost
            current = apply_upgrades(net, upgrades, tuple(sorted(i for i, p in assignments.items() if p <= t)))
    return npv


def test_realized_npv_and_period_singles_fill_every_period_in_one_batch(desk, batch_sizes):
    settings = SolverSettings(target_gap=1e-8)
    horizon = desk_horizon(desk, [1600.0, 900.0, 1700.0], rate=0.05, growth=(GrowthRule((1,), 1.08),))
    schedule = {"C-A1": 1, "C-B1": 1, "C-A2": 2, "C-X1": 3}
    ids = desk.upgrades.ids
    expected_npv = _realized_period_by_period(DeltaBook(settings), desk.net, desk.upgrades, horizon, schedule)
    book = DeltaBook(settings)
    expected_values = {}
    for t in (1, 2, 3):
        table = book.deltas(desk.net, horizon.demand_for(t), desk.upgrades, [(i,) for i in ids])
        expected_values.update({(i, t): table.singles[i] for i in ids})

    batch_sizes.clear()  # the expected values' solves above
    assert repr(realized_npv(desk.net, desk.upgrades, horizon, schedule, settings)) == repr(expected_npv)
    assert batch_sizes == [6]  # three baselines and three period batches
    values = period_singles(DeltaBook(settings), desk.net, desk.upgrades, horizon)
    assert batch_sizes == [6, 3 * (1 + len(ids))]
    assert repr(values) == repr(expected_values)


def test_format_schedule_table(desk):
    ups = UpgradeSet((dummy_upgrade("a", 10), dummy_upgrade("b", 20)))
    horizon = paper_horizon([15, 25])
    sched = Schedule({"a": 1, "b": 2}, (10.0, 20.0), 47.0)
    text = format_schedule_table(ups, horizon, sched)
    lines = text.splitlines()
    assert "Time period t" in lines[0]
    assert "Budget" in lines[1]
    assert lines[1].rstrip().endswith("40")  # budget total column
    assert any("a" in l and "X" in l for l in lines)
    assert "Expenditure" in lines[-1]
    assert lines[-1].rstrip().endswith("30")


def test_format_schedule_listing():
    sched = Schedule({"a": 1}, (10.0,), 40.0)
    text = format_schedule_listing(sched)
    assert text.splitlines()[0] == "a 1"
    assert text.splitlines()[1].startswith("npv_kd ")
    assert float(text.splitlines()[1].split()[1]) == sched.npv
