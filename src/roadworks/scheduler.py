"""Multi-period upgrade scheduling by net present value.

A schedule assigns each built upgrade to one period t in 1..T.  Its NPV, in
k$, discounts the yearly time saving but not the cost (budgets and costs are
taken as present values):

    npv = sum over t of [ sum_{i built at t} (m' v_it / (1+r)^t - c_i)
                          + m' / (1+r)^t * sum_{i<j both built at t} d_ijt ]

with m' = m / 1000 and v_it, d_ijt the deltas under period-t conditions
(demand grown to period t, earlier-period upgrades already in the network).

Exact optimization would need a factorial number of equilibrium solves, so
two tractable strategies are provided: a greedy heuristic (pick the subset
that is optimal at the horizon, then re-optimize what to build period by
period on the evolving network) and an exact solver for the linear model
that ignores interactions.  Both run `portfolio`'s one branch and bound and
tie-break: greedy through `optimize_subset`, the linear model with T bins.

Every delta, in greedy's period tables, `period_singles` and `realized_npv`,
comes from a `scenario.DeltaBook`, so a (network, demand) pair reached twice
in one book, or across runs with a cache directory, is read from its cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import le
from typing import Iterable, Mapping, Sequence

from .equilibrium import SolverSettings
from .errors import DataError, ParseError
from .network import DemandMatrix, Network, UpgradeSet, apply_upgrades
from .portfolio import DEFAULT_M, SelectionProblem, _best_assignment, optimize_subset
from .scenario import DeltaBook

__all__ = [
    "GrowthRule",
    "parse_growth_rules",
    "PlanningHorizon",
    "Schedule",
    "FeasibilityReport",
    "present_value",
    "period_spend",
    "check_schedule",
    "schedule_npv",
    "independent_schedule",
    "greedy_schedule",
    "period_singles",
    "realized_npv",
    "format_schedule_table",
    "format_schedule_listing",
]

PeriodValues = Mapping[tuple[str, int], float]
PeriodPairs = Mapping[tuple[tuple[str, str], int], float]


@dataclass(frozen=True)
class GrowthRule:
    """Per-period demand scaling for trips touching the listed zones."""

    zones: tuple[int, ...]
    factor: float

    def __post_init__(self):
        if not self.zones:
            raise DataError("growth rule lists no zones")
        if any(z < 1 for z in self.zones):
            raise DataError("growth rule zone ids must be >= 1")
        if not 0 <= self.factor < math.inf:
            raise DataError("growth factor must be non-negative and finite")


def parse_growth_rules(text: str) -> tuple[GrowthRule, ...]:
    """Read `SCALE <zone-list> <factor>` lines; zone lists allow ranges (5-8)."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "SCALE" or len(fields) != 3:
            raise ParseError("expected 'SCALE <zone-list> <factor>'", line=lineno)
        zones: list[int] = []
        for part in fields[1].split(","):
            if "-" in part[1:]:
                lo_s, hi_s = part.split("-", 1)
                try:
                    lo, hi = int(lo_s), int(hi_s)
                except ValueError:
                    raise ParseError(f"bad zone range {part!r}", line=lineno)
                if lo > hi:
                    raise ParseError(f"empty zone range {part!r}", line=lineno)
                zones.extend(range(lo, hi + 1))
            else:
                try:
                    zones.append(int(part))
                except ValueError:
                    raise ParseError(f"bad zone id {part!r}", line=lineno)
        try:
            factor = float(fields[2])
        except ValueError:
            raise ParseError(f"non-numeric growth factor {fields[2]!r}", line=lineno)
        rules.append(GrowthRule(tuple(sorted(set(zones))), factor))
    return tuple(rules)


@dataclass(frozen=True)
class PlanningHorizon:
    """Budgets, discounting, and per-period demand for a T-period plan."""

    budgets: tuple[float, ...]
    rate: float
    demands: tuple[DemandMatrix, ...]
    m: float = DEFAULT_M

    def __post_init__(self):
        if not self.budgets:
            raise DataError("planning horizon needs at least one period")
        if not all(b >= 0 for b in self.budgets):
            raise DataError("period budgets must be non-negative")
        if not 0 <= self.rate < math.inf:
            raise DataError("interest rate must be non-negative and finite")
        present_value(1.0, self.T, self.rate)  # an overflowing discount fails before any solve
        if not 0 < self.m < math.inf:
            raise DataError("m (yearly value of one unit of daily VHT) must be positive and finite")
        if len(self.demands) != len(self.budgets):
            raise DataError(
                f"{len(self.budgets)} budgets but {len(self.demands)} demand matrices"
            )

    @property
    def T(self) -> int:
        return len(self.budgets)

    def demand_for(self, t: int) -> DemandMatrix:
        if not 1 <= t <= self.T:
            raise DataError(f"period {t} outside 1..{self.T}")
        return self.demands[t - 1]

    @classmethod
    def with_growth(
        cls,
        budgets: Sequence[float],
        rate: float,
        base_demand: DemandMatrix,
        rules: Iterable[GrowthRule] = (),
        m: float = DEFAULT_M,
    ) -> "PlanningHorizon":
        """Build per-period demand by compounding each rule: factor^(t-1).

        Period 1 is the base matrix.  Rules with overlapping zone lists
        compose multiplicatively.
        """
        rules = tuple(rules)
        demands = []
        for t in range(1, len(budgets) + 1):
            d = base_demand
            for rule in rules:
                try:
                    factor = rule.factor ** (t - 1)
                except OverflowError:
                    raise DataError(
                        f"growth factor {rule.factor!r} compounded over {t - 1} periods overflows"
                    ) from None
                d = d.scaled(set(rule.zones), factor)
            demands.append(d)
        return cls(tuple(budgets), rate, tuple(demands), m)


@dataclass(frozen=True)
class Schedule:
    """Build period per upgrade id (unlisted ids are never built)."""

    assignments: Mapping[str, int]
    per_period_spend: tuple[float, ...]
    npv: float


@dataclass(frozen=True)
class FeasibilityReport:
    per_period_spend: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def present_value(amount: float, t: int, rate: float) -> float:
    """Value today of `amount` arriving t periods out at interest `rate`."""
    if not t >= 0:
        raise DataError("period must be non-negative")
    if not 0 <= rate < math.inf:
        raise DataError("interest rate must be non-negative and finite")
    try:
        return amount / (1.0 + rate) ** t
    except OverflowError:
        raise DataError(f"interest rate {rate!r} overflows when discounting over {t} periods") from None


def period_spend(
    upgrades: UpgradeSet, horizon: PlanningHorizon, assignments: Mapping[str, int]
) -> tuple[float, ...]:
    """Canonical k$ spend per period: costs summed in sorted-id order."""
    spend = [0.0] * horizon.T
    for i in sorted(assignments):
        t = assignments[i]
        if i in upgrades.by_id and 1 <= t <= horizon.T:
            spend[t - 1] += upgrades.by_id[i].cost
    return tuple(spend)


def check_schedule(
    upgrades: UpgradeSet, horizon: PlanningHorizon, assignments: Mapping[str, int]
) -> FeasibilityReport:
    """Validate a schedule: known ids, periods in range, budgets respected."""
    violations = []
    for i in sorted(assignments):
        if i not in upgrades.by_id:
            violations.append(f"unknown upgrade id {i!r}")
        t = assignments[i]
        if not (isinstance(t, int) and 1 <= t <= horizon.T):
            violations.append(f"upgrade {i}: period {t} outside 1..{horizon.T}")
    spend = period_spend(upgrades, horizon, assignments)
    for t in range(1, horizon.T + 1):
        if spend[t - 1] > horizon.budgets[t - 1]:
            violations.append(
                f"period {t}: spend {spend[t - 1]:g} exceeds budget {horizon.budgets[t - 1]:g}"
            )
    return FeasibilityReport(spend, tuple(violations))


def schedule_npv(
    period_values: PeriodValues,
    period_pairs: PeriodPairs,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
    assignments: Mapping[str, int],
) -> float:
    """Canonical NPV of a schedule, k$.

    Iterates periods ascending, ids ascending, then sorted pairs, so equal
    schedules produce bit-identical floats.  A missing v_it for a scheduled
    build is an error; a missing pair correction counts as zero.
    """
    by_period: dict[int, list[str]] = {}
    for i, t in assignments.items():
        if i not in upgrades.by_id:
            raise DataError(f"schedule names unknown upgrade id {i!r}")
        if not 1 <= t <= horizon.T:
            raise DataError(f"upgrade {i}: period {t} outside 1..{horizon.T}")
        by_period.setdefault(t, []).append(i)
    mprime = horizon.m / 1000.0
    npv = 0.0
    for t in sorted(by_period):
        coeff = present_value(mprime, t, horizon.rate)
        built = sorted(by_period[t])
        for i in built:
            if (i, t) not in period_values:
                raise DataError(f"no period-{t} delta for upgrade {i}")
            npv += coeff * period_values[(i, t)] - upgrades.by_id[i].cost
        for pair in combinations(built, 2):
            d = period_pairs.get((pair, t))
            if d is not None:
                npv += coeff * d
    return npv


def independent_schedule(
    period_values: PeriodValues,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
) -> Schedule:
    """Exact optimum of the no-interaction (linear) schedule model: T bins of
    `portfolio._best_assignment`, where upgrade i in period t earns
    m' v_it / (1+r)^t - c_i; leaves are scored by `schedule_npv` and must
    keep the canonical `period_spend` within every budget.
    """
    T = horizon.T
    missing = [(i, t) for i in sorted(upgrades.ids) for t in range(1, T + 1) if (i, t) not in period_values]
    if missing:
        i, t = missing[0]
        raise DataError(f"independent model needs v_it for every upgrade and period; "
                        f"missing ({i}, {t}) and {len(missing) - 1} more")
    mprime = horizon.m / 1000.0
    coeff = [present_value(mprime, t, horizon.rate) for t in range(1, T + 1)]
    costs = {u.id: u.cost for u in upgrades}
    terms = {i: [k * period_values[(i, t)] - c for t, k in enumerate(coeff, 1)] for i, c in costs.items()}

    def leaf(assign: dict[str, int]) -> tuple[float, bool, tuple | None]:
        spend = period_spend(upgrades, horizon, assign)
        if not all(map(le, spend, horizon.budgets)):
            return 0.0, False, None
        npv = schedule_npv(period_values, {}, upgrades, horizon, assign)
        return npv, True, (spend, npv)

    assign, (spend, npv) = _best_assignment(costs, terms, {}, horizon.budgets, leaf)
    return Schedule(dict(sorted(assign.items())), spend, npv)


def greedy_schedule(
    net: Network,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
    settings: SolverSettings,
    pairs: Iterable[tuple[str, str]] = (),
    workers: int = 1,
    cache_dir: str | None = None,
) -> Schedule:
    """Two-step heuristic schedule.

    Step 1 picks the subset U that is optimal at the end of the horizon:
    deltas under period-T demand on the base network, benefit discounted by
    (1+r)^T, budget = the sum of all period budgets.  Step 2 walks t = 1..T,
    each time re-evaluating the surviving candidates (and their predicted
    significant pairs) on the network as built so far with period-t demand,
    selecting within budget B_t at discount (1+r)^t, and committing the picks.

    The returned Schedule's NPV uses the period-t deltas observed while
    scheduling.  Pair corrections outside `pairs` are treated as zero.
    """
    sig_pairs = {tuple(sorted(p)) for p in pairs}
    for p in sig_pairs:
        if len(p) != 2 or p[0] == p[1]:
            raise DataError(f"bad interaction pair {p!r}")
        for i in p:
            if i not in upgrades.by_id:
                raise DataError(f"interaction pair names unknown upgrade {i!r}")
    # `workers` is read by nothing; it stays only for the benchmark's call shape
    if workers < 1:
        raise DataError("workers must be at least 1")
    book = DeltaBook(settings, cache_dir=cache_dir)
    T = horizon.T

    # step 1: the subset to aim for by the end of the horizon
    table = book.deltas(net, horizon.demand_for(T), upgrades, [(i,) for i in upgrades.ids] + sorted(sig_pairs))
    problem = SelectionProblem.from_delta_table(
        table, upgrades, budget=sum(horizon.budgets), m=present_value(horizon.m, T, horizon.rate)
    )
    remaining = set(optimize_subset(problem).chosen)

    assignments: dict[str, int] = {}
    period_values: dict[tuple[str, int], float] = {}
    period_pairs: dict[tuple[tuple[str, str], int], float] = {}
    current = net
    for t in range(1, T + 1):
        if not remaining:
            break
        demand_t = horizon.demand_for(t)
        alive = sorted(remaining)
        subsets = [(i,) for i in alive]
        subsets += [p for p in sorted(sig_pairs) if p[0] in remaining and p[1] in remaining]
        table_t = book.deltas(current, demand_t, upgrades, subsets)
        problem_t = SelectionProblem.from_delta_table(
            table_t,
            UpgradeSet(tuple(u for u in upgrades if u.id in remaining)),
            budget=horizon.budgets[t - 1],
            m=present_value(horizon.m, t, horizon.rate),
        )
        period_values.update({(i, t): v for i, v in problem_t.values.items()})
        period_pairs.update({(p, t): d for p, d in problem_t.corrections.items()})
        picked = optimize_subset(problem_t).chosen
        for i in picked:
            assignments[i] = t
        if picked:
            # always rebuild from the base: re-applying onto `current` would
            # duplicate added links
            current = apply_upgrades(net, upgrades, tuple(sorted(assignments)))
        remaining -= set(picked)
    return Schedule(
        assignments=assignments,
        per_period_spend=period_spend(upgrades, horizon, assignments),
        npv=schedule_npv(period_values, period_pairs, upgrades, horizon, assignments),
    )


def period_singles(
    book: DeltaBook, net: Network, upgrades: UpgradeSet, horizon: PlanningHorizon
) -> dict[tuple[str, int], float]:
    """The independent model's v_it: each upgrade alone on the base network,
    period-t demand, with every period's table filled in one `book.tables` call."""
    singles = [(i,) for i in upgrades.ids]
    tables = book.tables(upgrades, [(net, horizon.demand_for(t), singles) for t in range(1, horizon.T + 1)])
    return {(i, t): table.singles[i] for t, table in enumerate(tables, start=1) for i in upgrades.ids}


def realized_npv(
    net: Network,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
    assignments: Mapping[str, int],
    settings: SolverSettings,
    *,
    book: DeltaBook | None = None,
) -> float:
    """NPV of a schedule with each period's joint effect solved exactly.

    For each period the VHT drop of that period's whole batch is measured on
    the evolving network (everything built earlier included) under period-t
    demand, so all interaction effects are realized rather than estimated.
    Each is the batch's delta read through `book` (default: a fresh
    in-memory `DeltaBook`), so a book shared with greedy or another
    realized evaluation reuses its baselines and rows; its settings must be
    `settings`.
    """
    report = check_schedule(upgrades, horizon, assignments)
    if not report.ok:
        raise DataError("infeasible schedule: " + "; ".join(report.violations))
    if book is None:
        book = DeltaBook(settings)
    elif book.settings != settings:
        raise DataError(f"realized_npv: the book solves at {book.settings}, not at {settings}")
    # every period's network follows from the schedule alone, so all periods
    # are filled in one `book.tables` call
    periods, requests = [], []
    current = net
    for t in range(1, horizon.T + 1):
        batch = tuple(sorted(i for i, period in assignments.items() if period == t))
        if not batch:
            continue
        periods.append((t, batch))
        requests.append((current, horizon.demand_for(t), [batch]))
        # rebuild from the base: re-applying onto `current` would duplicate
        # added links, and a MOD conflict between periods raises here
        built = tuple(sorted(i for i, period in assignments.items() if period <= t))
        current = apply_upgrades(net, upgrades, built)
    mprime = horizon.m / 1000.0
    npv = 0.0
    for (t, batch), table in zip(periods, book.tables(upgrades, requests)):
        npv += present_value(mprime, t, horizon.rate) * table.evaluated_subsets[batch]
        for i in batch:
            npv -= upgrades.by_id[i].cost
    return npv


def format_schedule_table(
    upgrades: UpgradeSet, horizon: PlanningHorizon, schedule: Schedule
) -> str:
    """Render the X-mark grid: projects as rows, periods as columns."""
    T = horizon.T
    id_width = max([len("Project Id")] + [len(i) for i in upgrades.ids])
    col = 6
    head1 = f"{'Time period t':>{4 + 2 + id_width}} " + "".join(
        f"{t:>{col}}" for t in range(1, T + 1)
    ) + f"{'Total':>{col + 2}}"
    head2 = f"{'Budget (k$)':>{4 + 2 + id_width}} " + "".join(
        f"{b:>{col}g}" for b in horizon.budgets
    ) + f"{sum(horizon.budgets):>{col + 2}g}"
    lines = [head1, head2, "-" * len(head2)]
    for pos, up in enumerate(upgrades, start=1):
        t_built = schedule.assignments.get(up.id)
        marks = "".join(
            f"{'X' if t_built == t else '':>{col}}" for t in range(1, T + 1)
        )
        lines.append(f"{pos:>4}  {up.id:<{id_width}} {marks}")
    spend = schedule.per_period_spend
    total = f"{'Expenditure (k$)':>{4 + 2 + id_width}} " + "".join(
        f"{s:>{col}g}" for s in spend
    ) + f"{sum(spend):>{col + 2}g}"
    lines.append("-" * len(head2))
    lines.append(total)
    return "\n".join(lines) + "\n"


def format_schedule_listing(schedule: Schedule) -> str:
    """Machine-readable lines: `id period` per build, then the NPV."""
    lines = [f"{i} {t}" for i, t in sorted(schedule.assignments.items())]
    lines.append(f"npv_kd {schedule.npv!r}")
    return "\n".join(lines) + "\n"
