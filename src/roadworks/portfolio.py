"""Budgeted upgrade selection as a quadratic knapsack.

Building subset S of the candidate upgrades is worth, in thousands of
dollars per year,

    obj(S) = sum over i in S of (m' v_i - c_i)  +  m' * sum over i<j in S of d_ij

where v_i is the single-upgrade drop in daily vehicle-hours, d_ij the
pairwise interaction correction, c_i the construction cost in k$, and
m' = m / 1000 converts one unit of daily VHT into k$ per year.  The budget
constrains sum of c_i.

One exact branch and bound, `_best_assignment`, maximizes obj as one budget
bin and `scheduler.independent_schedule`'s NPV as one bin per period.  It
compares only canonical scores (`evaluate_selection` sums item terms in id
order and pair terms in sorted-key order, so equal choices give bit-identical
floats) under one tie-break, `better_assignment`: higher objective, then
fewer upgrades, then lexicographically smallest (id, bin) items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DataError
from .network import UpgradeSet
from .scenario import DeltaTable

__all__ = [
    "SelectionProblem",
    "Selection",
    "evaluate_selection",
    "better_assignment",
    "better_selection",
    "optimize_subset",
    "format_selection",
]

DEFAULT_M = 3650.0


@dataclass(frozen=True)
class SelectionProblem:
    """Inputs of one budgeted selection: values, costs, pairwise corrections."""

    ids: tuple[str, ...]
    values: Mapping[str, float]
    costs: Mapping[str, float]
    corrections: Mapping[tuple[str, str], float]
    budget: float
    m: float = DEFAULT_M

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise DataError("selection problem repeats an upgrade id")
        known = set(self.ids)
        for label, mapping in (("value", self.values), ("cost", self.costs)):
            missing = [i for i in self.ids if i not in mapping]
            if missing:
                raise DataError(f"no {label} for upgrade(s) {', '.join(missing)}")
        for i in self.ids:
            if not self.costs[i] >= 0:
                raise DataError(f"upgrade {i} has negative cost")
        for pair in self.corrections:
            if len(pair) != 2 or pair[0] >= pair[1]:
                raise DataError(f"correction key {pair!r} must be a sorted pair of distinct ids")
            if pair[0] not in known or pair[1] not in known:
                raise DataError(f"correction {pair!r} names an unknown upgrade")
        if not self.budget >= 0:
            raise DataError("budget must be non-negative")
        if not 0 < self.m < math.inf:
            raise DataError("m (yearly value of one unit of daily VHT) must be positive and finite")

    @classmethod
    def from_delta_table(
        cls,
        table: DeltaTable,
        upgrades: UpgradeSet,
        budget: float,
        m: float = DEFAULT_M,
    ) -> "SelectionProblem":
        """Wire a computed delta table and the candidate costs into a problem.

        Values are the table's single-upgrade coefficients and corrections its
        pair coefficients among `upgrades`; other coefficients are ignored.
        """
        coeffs = table.coefficients
        missing = [i for i in upgrades.ids if (i,) not in coeffs]
        if missing:
            raise DataError(
                "delta table lacks single-upgrade rows for " + ", ".join(missing)
            )
        idset = set(upgrades.ids)
        return cls(
            ids=upgrades.ids,
            values={i: coeffs[(i,)] for i in upgrades.ids},
            costs={u.id: u.cost for u in upgrades},
            corrections={
                W: c
                for W, c in coeffs.items()
                if len(W) == 2 and W[0] in idset and W[1] in idset
            },
            budget=budget,
            m=m,
        )


@dataclass(frozen=True)
class Selection:
    """One evaluated choice of upgrades."""

    chosen: tuple[str, ...]
    objective: float
    spend: float
    estimated_delta_vht: float


def _objective(problem: SelectionProblem, chosen: tuple[str, ...]) -> tuple[float, float, float]:
    # chosen must already be sorted; combinations() then yields sorted keys
    mprime = problem.m / 1000.0
    obj = 0.0
    spend = 0.0
    delta = 0.0
    for i in chosen:
        obj += mprime * problem.values[i] - problem.costs[i]
        spend += problem.costs[i]
        delta += problem.values[i]
    for pair in combinations(chosen, 2):
        d = problem.corrections.get(pair)
        if d is not None:
            obj += mprime * d
            delta += d
    return obj, spend, delta


def evaluate_selection(problem: SelectionProblem, ids: Iterable[str]) -> Selection:
    """Canonical score of an explicit selection (budget not enforced here)."""
    chosen = tuple(sorted(ids))
    if len(set(chosen)) != len(chosen):
        raise DataError("selection repeats an upgrade")
    known = set(problem.ids)
    unknown = [i for i in chosen if i not in known]
    if unknown:
        raise DataError(f"selection names unknown upgrade(s) {', '.join(unknown)}")
    obj, spend, delta = _objective(problem, chosen)
    return Selection(chosen, obj, spend, delta)


def better_assignment(
    npv_a: float, assign_a: Mapping[str, int], npv_b: float, assign_b: Mapping[str, int]
) -> bool:
    """True when a beats b: NPV (or objective), then fewer builds, then lex (id, period)s."""
    if npv_a != npv_b:
        return npv_a > npv_b
    if len(assign_a) != len(assign_b):
        return len(assign_a) < len(assign_b)
    return sorted(assign_a.items()) < sorted(assign_b.items())


def better_selection(a: Selection, b: Selection) -> bool:
    """True when a beats b: objective, then fewer upgrades, then lex ids."""
    return better_assignment(a.objective, dict.fromkeys(a.chosen, 1), b.objective, dict.fromkeys(b.chosen, 1))


def _best_assignment(
    costs: Mapping[str, float],
    terms: Mapping[str, Sequence[float]],
    pair_terms: Mapping[tuple[str, str], float],
    budgets: Sequence[float],
    leaf: Callable[[dict[str, int]], tuple[float, bool, object]],
) -> tuple[dict[str, int], object]:
    """Exact best assignment of each id of `terms` to one bin t in 1..T, or none.

    Id i in bin t earns terms[i][t-1], a pair its term when both share a bin,
    and bin t holds at most budgets[t-1] of cost.  Ids go in (cost, id) order,
    bins before none; the suffix bound adds each id's best positive term and
    each positive pair term at the pair's later id.  Pruning and budgets keep
    a float slack, each surviving leaf is re-scored by the caller's canonical
    `leaf(assign) -> (score, fits, result)`, and the incumbent (first the
    empty assignment) changes only under `better_assignment`, so the result
    matches exhaustive enumeration, ties included.  Returns the best
    assignment and its leaf's result.  Terms whose absolute sum is not
    finite raise DataError: every non-empty choice would score inf or nan,
    and the tie-break, not the objective, would pick.
    """
    size = sum(abs(x) for row in terms.values() for x in row) + sum(map(abs, pair_terms.values()))
    if not math.isfinite(size):
        raise DataError("objective is not finite: m (yearly value of one unit of daily VHT) times the deltas overflows")
    order = sorted(terms, key=lambda i: (costs[i], i))
    n = len(order)
    pos = {i: p for p, i in enumerate(order)}
    cost = [costs[i] for i in order]
    options = [list(enumerate(terms[i], 1)) for i in order]
    pairs_at: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), term in pair_terms.items():
        pa, pb = pos[a], pos[b]
        pairs_at[max(pa, pb)].append((min(pa, pb), term))
    bound = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        acc = bound[j + 1] + max(0.0, *terms[order[j]])
        for _, term in pairs_at[j]:
            if term > 0:
                acc += term
        bound[j] = acc

    cap = [0.0] + [b + 1e-9 * (1.0 + b) for b in budgets]
    spend = [0.0] * len(cap)
    bin_of = [0] * n
    best_assign: dict[str, int] = {}
    best_score, _, best = leaf(best_assign)
    floor = best_score - 1e-9 * (1.0 + abs(best_score))

    def dfs(j: int, cur: float) -> None:
        nonlocal best_score, best_assign, best, floor
        if cur + bound[j] < floor:
            return
        if j == n:
            assign = {order[p]: t for p, t in enumerate(bin_of) if t}
            score, fits, result = leaf(assign)
            if fits and better_assignment(score, assign, best_score, best_assign):
                best_score, best_assign, best = score, assign, result
                floor = score - 1e-9 * (1.0 + abs(score))
            return
        c = cost[j]
        for t, extra in options[j]:
            held = spend[t]
            if held + c <= cap[t]:
                for other, term in pairs_at[j]:
                    if bin_of[other] == t:
                        extra += term
                bin_of[j] = t
                spend[t] = held + c
                dfs(j + 1, cur + extra)
                spend[t] = held
                bin_of[j] = 0
        dfs(j + 1, cur)

    dfs(0, 0.0)
    del dfs  # dfs refers to itself; breaking the cycle frees the search state now, not at a GC pass
    return best_assign, best


def optimize_subset(problem: SelectionProblem) -> Selection:
    """Exact maximizer of the selection objective within the budget: one bin
    of `_best_assignment`, item terms m' v - c, pair terms m' d."""
    mprime = problem.m / 1000.0

    def leaf(assign: dict[str, int]) -> tuple[float, bool, Selection]:
        sel = evaluate_selection(problem, assign)
        return sel.objective, sel.spend <= problem.budget, sel

    terms = {i: (mprime * problem.values[i] - problem.costs[i],) for i in problem.ids}
    pair_terms = {pair: mprime * d for pair, d in problem.corrections.items()}
    return _best_assignment(problem.costs, terms, pair_terms, (problem.budget,), leaf)[1]


def format_selection(problem: SelectionProblem, selection: Selection) -> str:
    """Small human-readable block describing one selection."""
    names = " ".join(selection.chosen) if selection.chosen else "(none)"
    return (
        f"selected            {names}\n"
        f"spend k$            {selection.spend:.3f} (budget {problem.budget:.3f})\n"
        f"net benefit k$/yr   {selection.objective:.3f}\n"
        f"delta VHT/day       {selection.estimated_delta_vht:.3f}\n"
    )
