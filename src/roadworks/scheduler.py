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
that ignores interactions.

The greedy heuristic takes its deltas from one `scenario.DeltaBook`, so a
(network, demand) pair reached twice, in one run or, with a cache directory,
across runs, is read from its cache rather than solved again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .equilibrium import SolverSettings, solve_with
from .errors import DataError, ParseError
from .network import DemandMatrix, Network, UpgradeSet, apply_upgrades
from .portfolio import DEFAULT_M, SelectionProblem, optimize_subset
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
    "make_schedule",
    "better_assignment",
    "independent_schedule",
    "greedy_schedule",
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
        if self.factor < 0:
            raise DataError("growth factor must be non-negative")


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
        if any(b < 0 for b in self.budgets):
            raise DataError("period budgets must be non-negative")
        if self.rate < 0:
            raise DataError("interest rate must be non-negative")
        if self.m <= 0:
            raise DataError("m (yearly value of one unit of daily VHT) must be positive")
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
                d = d.scaled(set(rule.zones), rule.factor ** (t - 1))
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
    if t < 0:
        raise DataError("period must be non-negative")
    if rate < 0:
        raise DataError("interest rate must be non-negative")
    return amount / (1.0 + rate) ** t


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
        coeff = mprime / (1.0 + horizon.rate) ** t
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


def make_schedule(
    period_values: PeriodValues,
    period_pairs: PeriodPairs,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
    assignments: Mapping[str, int],
) -> Schedule:
    """Bundle assignments with their canonical spend vector and NPV."""
    return Schedule(
        assignments=dict(assignments),
        per_period_spend=period_spend(upgrades, horizon, assignments),
        npv=schedule_npv(period_values, period_pairs, upgrades, horizon, assignments),
    )


def better_assignment(
    npv_a: float,
    assign_a: Mapping[str, int],
    npv_b: float,
    assign_b: Mapping[str, int],
) -> bool:
    """True when a beats b: NPV, then fewer builds, then lex (id, period)s."""
    if npv_a != npv_b:
        return npv_a > npv_b
    if len(assign_a) != len(assign_b):
        return len(assign_a) < len(assign_b)
    return sorted(assign_a.items()) < sorted(assign_b.items())


def independent_schedule(
    period_values: PeriodValues,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
) -> Schedule:
    """Exact optimum of the no-interaction (linear) schedule model.

    Branch and bound over upgrades in id order; each takes a period in 1..T
    or stays unbuilt.  The bound sums each remaining upgrade's best positive
    term over periods, ignoring budgets, so it never undercounts.  Candidate
    leaves are re-scored by schedule_npv and compared under the same
    tie-break as the portfolio solver, so the result matches exhaustive
    enumeration exactly.
    """
    ids = sorted(upgrades.ids)
    T = horizon.T
    missing = [
        (i, t) for i in ids for t in range(1, T + 1) if (i, t) not in period_values
    ]
    if missing:
        i, t = missing[0]
        raise DataError(
            f"independent model needs v_it for every upgrade and period; "
            f"missing ({i}, {t}) and {len(missing) - 1} more"
        )
    mprime = horizon.m / 1000.0
    term: dict[tuple[str, int], float] = {}
    for i in ids:
        cost = upgrades.by_id[i].cost
        for t in range(1, T + 1):
            coeff = mprime / (1.0 + horizon.rate) ** t
            term[(i, t)] = coeff * period_values[(i, t)] - cost
    n = len(ids)
    bound = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        best_term = max(term[(ids[j], t)] for t in range(1, T + 1)) if T else 0.0
        bound[j] = bound[j + 1] + max(0.0, best_term)

    best_assign: dict[str, int] = {}
    best_npv = schedule_npv(period_values, {}, upgrades, horizon, best_assign)
    budget_slack = [1e-9 * (1.0 + b) for b in horizon.budgets]
    chosen: dict[str, int] = {}
    spend = [0.0] * T

    def consider() -> None:
        nonlocal best_assign, best_npv
        canon = period_spend(upgrades, horizon, chosen)
        for t in range(T):
            if canon[t] > horizon.budgets[t]:
                return
        npv = schedule_npv(period_values, {}, upgrades, horizon, chosen)
        if better_assignment(npv, chosen, best_npv, best_assign):
            best_npv = npv
            best_assign = dict(chosen)

    def dfs(j: int, cur: float) -> None:
        slack = 1e-9 * (1.0 + abs(best_npv))
        if cur + bound[j] < best_npv - slack:
            return
        if j == n:
            consider()
            return
        i = ids[j]
        cost = upgrades.by_id[i].cost
        for t in range(1, T + 1):
            if spend[t - 1] + cost <= horizon.budgets[t - 1] + budget_slack[t - 1]:
                chosen[i] = t
                spend[t - 1] += cost
                dfs(j + 1, cur + term[(i, t)])
                spend[t - 1] -= cost
                del chosen[i]
        dfs(j + 1, cur)

    dfs(0, 0.0)
    return make_schedule(period_values, {}, upgrades, horizon, best_assign)


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
    book = DeltaBook(settings, workers=workers, cache_dir=cache_dir)
    T = horizon.T
    discount_T = (1.0 + horizon.rate) ** T

    # step 1: the subset to aim for by the end of the horizon
    singles = [(i,) for i in upgrades.ids]
    pair_subsets = [p for p in sorted(sig_pairs)]
    table = book.deltas(net, horizon.demand_for(T), upgrades, singles + pair_subsets)
    problem = SelectionProblem.from_delta_table(
        table, upgrades, budget=sum(horizon.budgets), m=horizon.m / discount_T
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
        for i in alive:
            period_values[(i, t)] = table_t.singles[i]
        for p, d in table_t.pair_corrections.items():
            period_pairs[(p, t)] = d
        problem_t = SelectionProblem(
            ids=tuple(i for i in upgrades.ids if i in remaining),
            values={i: table_t.singles[i] for i in alive},
            costs={i: upgrades.by_id[i].cost for i in alive},
            corrections=dict(table_t.pair_corrections),
            budget=horizon.budgets[t - 1],
            m=horizon.m / (1.0 + horizon.rate) ** t,
        )
        picked = optimize_subset(problem_t).chosen
        for i in picked:
            assignments[i] = t
        if picked:
            # always rebuild from the base: re-applying onto `current` would
            # duplicate added links
            current = apply_upgrades(net, upgrades, tuple(sorted(assignments)))
        remaining -= set(picked)
    return make_schedule(period_values, period_pairs, upgrades, horizon, assignments)


def realized_npv(
    net: Network,
    upgrades: UpgradeSet,
    horizon: PlanningHorizon,
    assignments: Mapping[str, int],
    settings: SolverSettings,
) -> float:
    """NPV of a schedule with each period's joint effect solved exactly.

    For each period the VHT drop of that period's whole batch is measured on
    the evolving network (everything built earlier included) under period-t
    demand, so all interaction effects are realized rather than estimated.
    """
    report = check_schedule(upgrades, horizon, assignments)
    if not report.ok:
        raise DataError("infeasible schedule: " + "; ".join(report.violations))
    by_period: dict[int, list[str]] = {}
    for i, t in assignments.items():
        by_period.setdefault(t, []).append(i)
    mprime = horizon.m / 1000.0
    built: list[str] = []
    current = net
    npv = 0.0
    for t in range(1, horizon.T + 1):
        batch = sorted(by_period.get(t, []))
        if not batch:
            continue
        demand_t = horizon.demand_for(t)
        before = solve_with(current, demand_t, settings).vht
        built.extend(batch)
        current = apply_upgrades(net, upgrades, tuple(sorted(built)))
        after = solve_with(current, demand_t, settings).vht
        coeff = mprime / (1.0 + horizon.rate) ** t
        npv += coeff * (before - after)
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
