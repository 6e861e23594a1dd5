"""Budgeted selection: canonical objective, tie-breaks, exact optimizer."""

import random
from itertools import combinations

import pytest

from roadworks import (
    DataError,
    SelectionProblem,
    UpgradeSet,
    better_selection,
    evaluate_selection,
    format_selection,
    optimize_subset,
)

from oracles import exhaustive_best_subset, knapsack_best_value

CORRIDOR = ("C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3")


def toy_problem(budget=40.0, m=1000.0):
    return SelectionProblem(
        ids=("a", "b", "c"),
        values={"a": 100.0, "b": 200.0, "c": 50.0},
        costs={"a": 10.0, "b": 30.0, "c": 5.0},
        corrections={("a", "b"): 20.0},
        budget=budget,
        m=m,
    )


def random_problem(rng, n=None, zero_pairs=False):
    n = n or rng.randint(2, 10)
    ids = tuple(f"u{i:02d}" for i in range(1, n + 1))
    values = {i: rng.uniform(-200.0, 800.0) for i in ids}
    costs = {i: rng.uniform(0.0, 100.0) for i in ids}
    if zero_pairs:
        corrections = {}
    else:
        corrections = {}
        for x in range(n):
            for y in range(x + 1, n):
                corrections[(ids[x], ids[y])] = rng.uniform(-150.0, 150.0)
    budget = rng.uniform(0.0, 0.7 * sum(costs.values()))
    m = rng.choice([3650.0, 1000.0, 365.0])
    return SelectionProblem(
        ids=ids, values=values, costs=costs, corrections=corrections, budget=budget, m=m
    )


def test_evaluate_selection_by_hand():
    sel = evaluate_selection(toy_problem(), ("b", "a"))
    assert sel.chosen == ("a", "b")
    # m' = 1: (100 - 10) + (200 - 30) + 20
    assert sel.objective == pytest.approx(280.0)
    assert sel.spend == pytest.approx(40.0)
    assert sel.estimated_delta_vht == pytest.approx(320.0)
    empty = evaluate_selection(toy_problem(), ())
    assert empty.objective == 0.0 and empty.spend == 0.0


def test_evaluate_selection_rejects_unknown_and_duplicate():
    with pytest.raises(DataError):
        evaluate_selection(toy_problem(), ("zz",))
    with pytest.raises(DataError):
        evaluate_selection(toy_problem(), ("a", "a"))


def test_m_scales_benefits_only():
    sel = evaluate_selection(toy_problem(m=2000.0), ("a", "b"))
    # m' = 2: 2*(100 + 200 + 20) - 40
    assert sel.objective == pytest.approx(600.0)
    assert sel.spend == pytest.approx(40.0)


def test_better_selection_total_order():
    p = toy_problem()
    hi = evaluate_selection(p, ("a", "b"))
    lo = evaluate_selection(p, ("c",))
    assert better_selection(hi, lo) and not better_selection(lo, hi)
    twin = SelectionProblem(
        ids=("x", "y"),
        values={"x": 10.0, "y": 10.0},
        costs={"x": 5.0, "y": 5.0},
        corrections={},
        budget=5.0,
        m=1000.0,
    )
    x = evaluate_selection(twin, ("x",))
    y = evaluate_selection(twin, ("y",))
    assert better_selection(x, y)  # equal objective, lex-smaller tuple wins
    free = SelectionProblem(
        ids=("x", "z"),
        values={"x": 10.0, "z": 5.0},
        costs={"x": 5.0, "z": 5.0},  # z is exactly break-even
        corrections={},
        budget=10.0,
        m=1000.0,
    )
    solo = evaluate_selection(free, ("x",))
    padded = evaluate_selection(free, ("x", "z"))
    assert solo.objective == padded.objective
    assert better_selection(solo, padded)  # equal objective, fewer items win


def test_optimizer_on_hand_instance():
    sel = optimize_subset(toy_problem(budget=40.0))
    assert sel.chosen == ("a", "b")  # c fits no more; a+b beats everything
    tight = optimize_subset(toy_problem(budget=15.0))
    assert tight.chosen == ("a", "c")
    tighter = optimize_subset(toy_problem(budget=14.0))
    assert tighter.chosen == ("a",)  # a+c costs 15, just over
    assert optimize_subset(toy_problem(budget=0.0)).chosen == ()


def test_optimizer_prefers_lex_on_ties():
    twin = SelectionProblem(
        ids=("y", "x"),
        values={"x": 10.0, "y": 10.0},
        costs={"x": 5.0, "y": 5.0},
        corrections={},
        budget=5.0,
        m=1000.0,
    )
    assert optimize_subset(twin).chosen == ("x",)


def test_negative_item_needs_synergy():
    # each alone loses 5, together the pair term makes them worth it
    p = SelectionProblem(
        ids=("L", "R"),
        values={"L": 10.0, "R": 10.0},
        costs={"L": 15.0, "R": 15.0},
        corrections={("L", "R"): 30.0},
        budget=100.0,
        m=1000.0,
    )
    assert optimize_subset(p).chosen == ("L", "R")
    solo = SelectionProblem(
        ids=("L", "R"),
        values={"L": 10.0, "R": 10.0},
        costs={"L": 15.0, "R": 15.0},
        corrections={},
        budget=100.0,
        m=1000.0,
    )
    assert optimize_subset(solo).chosen == ()


def tied_problem(rng):
    """Integer values and pair terms at m' = 1 over two cost levels: many equal optima."""
    n = rng.randint(2, 8)
    ids = tuple(rng.sample([f"t{i}" for i in range(n)], n))  # not in id order
    pairs = [(a, b) for a in ids for b in ids if a < b and rng.random() < 0.3]
    return SelectionProblem(
        ids=ids,
        values={i: float(rng.choice([10, 25, 25, 40])) for i in ids},
        costs={i: float(rng.choice([10, 20])) for i in ids},
        corrections={pair: float(rng.choice([-15, 0, 5])) for pair in pairs},
        budget=float(rng.choice([0, 10, 20, 30, 40, 60])),
        m=1000.0,
    )


def test_optimizer_matches_exhaustive_search():
    rng = random.Random(1618)
    problems = [random_problem(rng) for _ in range(60)] + [tied_problem(rng) for _ in range(60)]
    tied = 0
    for p in problems:
        got = optimize_subset(p)
        want = exhaustive_best_subset(p)
        assert got.chosen == want.chosen
        assert got.objective == want.objective
        assert got.spend <= p.budget
        every = [evaluate_selection(p, S) for r in range(len(p.ids) + 1) for S in combinations(p.ids, r)]
        tied += sum(s.objective == want.objective and s.spend <= p.budget for s in every) > 1
    assert tied >= 10  # the tie-break decides many of these


def test_optimizer_matches_knapsack_when_pairs_vanish():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(2, 14)
        ids = tuple(f"k{i:02d}" for i in range(n))
        values = {i: float(rng.randint(0, 80)) for i in ids}
        costs = {i: float(rng.randint(1, 50)) for i in ids}
        budget = rng.randint(10, 150)
        p = SelectionProblem(
            ids=ids,
            values=values,
            costs=costs,
            corrections={},
            budget=float(budget),
            m=1000.0,
        )
        profits = [int(values[i]) - int(costs[i]) for i in ids]
        want = knapsack_best_value(profits, [int(costs[i]) for i in ids], budget)
        assert optimize_subset(p).objective == float(want)


def test_from_delta_table(desk, desk_table):
    corridor_set = UpgradeSet(tuple(desk.upgrades.by_id[i] for i in CORRIDOR))
    p = SelectionProblem.from_delta_table(desk_table, corridor_set, budget=2400.0)
    assert p.values == {W[0]: c for W, c in desk_table.coefficients.items() if len(W) == 1}
    assert p.corrections == {W: c for W, c in desk_table.coefficients.items() if len(W) == 2}
    assert p.costs == {i: 800.0 for i in CORRIDOR}
    got = optimize_subset(p)
    want = exhaustive_best_subset(p)
    assert got.chosen == want.chosen
    assert len(got.chosen) == 3  # 2400 pays for exactly three widenings
    with pytest.raises(DataError):
        SelectionProblem.from_delta_table(desk_table, desk.upgrades, budget=100.0)


def test_validation():
    with pytest.raises(DataError):
        SelectionProblem(
            ids=("a", "a"), values={"a": 1.0}, costs={"a": 1.0}, corrections={}, budget=1.0
        )
    with pytest.raises(DataError):
        SelectionProblem(ids=("a",), values={}, costs={"a": 1.0}, corrections={}, budget=1.0)
    with pytest.raises(DataError):
        SelectionProblem(
            ids=("a",), values={"a": 1.0}, costs={"a": -1.0}, corrections={}, budget=1.0
        )
    with pytest.raises(DataError):
        SelectionProblem(
            ids=("a", "b"),
            values={"a": 1.0, "b": 1.0},
            costs={"a": 1.0, "b": 1.0},
            corrections={("b", "a"): 1.0},
            budget=1.0,
        )
    with pytest.raises(DataError):
        SelectionProblem(
            ids=("a",), values={"a": 1.0}, costs={"a": 1.0}, corrections={}, budget=-1.0
        )
    with pytest.raises(DataError):
        SelectionProblem(
            ids=("a",), values={"a": 1.0}, costs={"a": 1.0}, corrections={}, budget=1.0, m=0.0
        )


def test_format_selection_mentions_the_numbers():
    p = toy_problem()
    sel = optimize_subset(p)
    text = format_selection(p, sel)
    assert "a" in text and "b" in text
    assert "spend" in text
    assert "net benefit" in text
    assert "delta" in text.lower()
