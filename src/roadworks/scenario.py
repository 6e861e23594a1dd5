"""Exact upgrade-scenario evaluation and k-wise interaction estimates.

For a subset S of upgrades, the exact benefit is the drop in total
vehicle-hours, ``delta(S) = VHT(base) - VHT(base + S)``, each side solved to
user equilibrium.  Writing v_i = delta({i}) and d_ij = delta({i,j}) - v_i -
v_j, higher-order correction terms follow the inclusion-exclusion recursion

    e_W = delta(W) - sum over proper non-empty V of W of e_V,

so the order-k estimate of any subset is the sum of e_W over W within S of
size at most k.  At k = |S| the estimate telescopes back to the exact delta.

Exact deltas are expensive (one equilibrium solve each), so they can be
cached on disk keyed by network and demand fingerprints plus the gap target.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .equilibrium import SolverSettings, solve_with
from .errors import DataError
from .network import (
    DemandMatrix,
    Network,
    UpgradeSet,
    apply_upgrades,
    demand_fingerprint,
    network_fingerprint,
)

__all__ = [
    "DeltaTable",
    "MemoryDeltaCache",
    "FileDeltaCache",
    "compute_deltas",
    "table_from_evaluated",
    "interaction_coefficients",
    "estimate_delta",
    "relative_error",
    "error_report",
    "ErrorReportRow",
    "format_error_report",
    "restricted",
    "canonical_subset",
]

Subset = tuple[str, ...]


def canonical_subset(upgrades: UpgradeSet, subset: Iterable[str | int]) -> Subset:
    """Sorted tuple of upgrade ids (accepts ids or 1-based indices)."""
    return tuple(sorted(u.id for u in upgrades.resolve(subset)))


@dataclass
class DeltaTable:
    """Exact deltas plus the interaction coefficients derivable from them."""

    baseline_vht: float
    singles: dict[str, float] = field(default_factory=dict)
    pair_corrections: dict[tuple[str, str], float] = field(default_factory=dict)
    higher_order: dict[Subset, float] = field(default_factory=dict)
    evaluated_subsets: dict[Subset, float] = field(default_factory=dict)
    gaps: dict[Subset, float] = field(default_factory=dict)
    baseline_gap: float = 0.0
    tap_solves: int = 0


class MemoryDeltaCache:
    """In-process subset cache for one (network, demand, gap) context."""

    def __init__(self):
        self._baseline: tuple[float, float] | None = None
        self._rows: dict[Subset, tuple[float, float]] = {}

    def baseline(self) -> tuple[float, float] | None:
        return self._baseline

    def set_baseline(self, vht: float, gap: float) -> None:
        self._baseline = (vht, gap)

    def get(self, subset: Subset) -> tuple[float, float] | None:
        return self._rows.get(subset)

    def put(self, subset: Subset, delta: float, gap: float) -> None:
        self._rows[subset] = (delta, gap)

    def rows(self) -> dict[Subset, tuple[float, float]]:
        return dict(self._rows)


class FileDeltaCache(MemoryDeltaCache):
    """A MemoryDeltaCache that also appends each row to its file.

    Layout: a header binding the cache to its inputs, then one row per
    evaluated subset::

        # roadworks delta cache
        network <hex>
        demand <hex>
        target_gap <float>
        BASELINE <vht> <gap>
        id1,id2 <delta_vht> <gap>

    Opening an existing file for different inputs raises DataError.  A last
    line with no newline is a row torn by a run that died mid-write: loading
    drops it with a warning and truncates the file after the last newline.
    """

    def __init__(self, path: str, network_hash: str, demand_hash: str, target_gap: float):
        super().__init__()
        self.path = path
        self.network_hash = network_hash
        self.demand_hash = demand_hash
        self.target_gap = target_gap
        if os.path.exists(path):
            self._load()
        else:
            with open(path, "w") as fh:
                fh.write("# roadworks delta cache\n")
                fh.write(f"network {network_hash}\n")
                fh.write(f"demand {demand_hash}\n")
                fh.write(f"target_gap {target_gap!r}\n")

    @classmethod
    def open(cls, path: str, net: Network, demand: DemandMatrix, settings: SolverSettings):
        return cls(path, network_fingerprint(net), demand_fingerprint(demand), settings.target_gap)

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        header: dict[str, str | float] = {}
        for number, raw in enumerate(data[:whole].decode().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fields[0] in ("network", "demand") and len(fields) == 2:
                    header[fields[0]] = fields[1]
                elif fields[0] == "target_gap" and len(fields) == 2:
                    header[fields[0]] = float(fields[1])
                elif fields[0] == "BASELINE" and len(fields) == 3:
                    self._baseline = (float(fields[1]), float(fields[2]))
                elif len(fields) == 3:
                    subset = tuple(fields[0].split(","))
                    self._rows[subset] = (float(fields[1]), float(fields[2]))
                else:
                    raise DataError(f"cache {self.path}, line {number}: unrecognized line {line!r}")
            except ValueError:
                raise DataError(f"cache {self.path}, line {number}: bad number in {line!r}") from None
        mismatches = []
        if header.get("network") != self.network_hash:
            mismatches.append("network")
        if header.get("demand") != self.demand_hash:
            mismatches.append("demand")
        if header.get("target_gap") != self.target_gap:
            mismatches.append("target_gap")
        if mismatches:
            raise DataError(
                f"cache {self.path} was built for a different {'/'.join(mismatches)}; "
                "delete it or point at a fresh path"
            )
        if whole < len(data):
            warnings.warn(
                f"cache {self.path}: dropped the incomplete last line "
                f"{data[whole:].decode(errors='replace')!r}",
                RuntimeWarning,
                stacklevel=3,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(whole)

    def set_baseline(self, vht: float, gap: float) -> None:
        super().set_baseline(vht, gap)
        self._append(f"BASELINE {vht!r} {gap!r}\n")

    def put(self, subset: Subset, delta: float, gap: float) -> None:
        super().put(subset, delta, gap)
        self._append(f"{','.join(subset)} {delta!r} {gap!r}\n")

    def _append(self, line: str) -> None:
        with open(self.path, "a") as fh:
            fh.write(line)


def _coefficients(
    evaluated: Mapping[Subset, float], max_order: int, strict: bool
) -> dict[Subset, float]:
    """e_W for every evaluated subset up to max_order, by the recursion above.

    With strict=True a missing prerequisite subset raises; otherwise the
    affected W is skipped.
    """
    coeffs: dict[Subset, float] = {}
    for W in sorted(evaluated, key=lambda s: (len(s), s)):
        if len(W) > max_order:
            continue
        total = 0.0
        complete = True
        for size in range(1, len(W)):
            for V in combinations(W, size):
                if V not in coeffs:
                    if strict:
                        raise DataError(
                            f"cannot derive coefficient for {{{','.join(W)}}}: "
                            f"subset {{{','.join(V)}}} was never evaluated"
                        )
                    complete = False
                    break
                total += coeffs[V]
            if not complete:
                break
        if complete:
            coeffs[W] = evaluated[W] - total
    return coeffs


def _warn_if_capped(label: str, iterations: int, gap: float, settings: SolverSettings) -> None:
    if gap > settings.target_gap:
        warnings.warn(
            f"{label}: stopped after {iterations} iterations at relative gap "
            f"{gap:.3e} > target {settings.target_gap:g}",
            RuntimeWarning,
            stacklevel=3,
        )


def compute_deltas(
    net: Network,
    demand: DemandMatrix,
    upgrades: UpgradeSet,
    subsets: Iterable[Iterable[str | int]],
    settings: SolverSettings,
    cache: MemoryDeltaCache | FileDeltaCache | None = None,
    workers: int = 1,
) -> DeltaTable:
    """Solve the base network plus every requested subset and tabulate deltas.

    Already-cached subsets are not re-solved; `tap_solves` on the result
    counts fresh equilibrium runs (baseline included).
    """
    unique: set[Subset] = set()
    for s in subsets:
        S = canonical_subset(upgrades, list(s))
        if S:
            unique.add(S)
    wanted = sorted(unique, key=lambda s: (len(s), s))
    solves = 0

    base = cache.baseline() if cache is not None else None
    if base is None:
        assignment = solve_with(net, demand, settings)
        _warn_if_capped("baseline", assignment.iterations, assignment.relative_gap, settings)
        base = (assignment.vht, assignment.relative_gap)
        solves += 1
        if cache is not None:
            cache.set_baseline(*base)
    baseline_vht, baseline_gap = base

    results: dict[Subset, tuple[float, float]] = {}
    missing: list[Subset] = []
    for S in wanted:
        hit = cache.get(S) if cache is not None else None
        if hit is None:
            missing.append(S)
        else:
            results[S] = hit

    def evaluate(S: Subset) -> tuple[float, float, int]:
        modified = apply_upgrades(net, upgrades, S)
        assignment = solve_with(modified, demand, settings)
        return baseline_vht - assignment.vht, assignment.relative_gap, assignment.iterations

    if missing:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(evaluate, missing))
        else:
            fresh = [evaluate(S) for S in missing]
        for S, (delta, gap, iterations) in zip(missing, fresh):
            _warn_if_capped(f"subset {{{','.join(S)}}}", iterations, gap, settings)
            results[S] = (delta, gap)
            solves += 1
            if cache is not None:
                cache.put(S, delta, gap)

    evaluated = {S: results[S][0] for S in wanted}
    gaps = {S: results[S][1] for S in wanted}
    table = table_from_evaluated(baseline_vht, baseline_gap, evaluated, gaps)
    table.tap_solves = solves
    return table


def table_from_evaluated(
    baseline_vht: float,
    baseline_gap: float,
    evaluated: Mapping[Subset, float],
    gaps: Mapping[Subset, float] | None = None,
) -> DeltaTable:
    """Assemble a DeltaTable from already-known exact deltas (cache rows)."""
    ev = dict(evaluated)
    max_order = max((len(S) for S in ev), default=0)
    coeffs = _coefficients(ev, max_order, strict=False)
    return DeltaTable(
        baseline_vht=baseline_vht,
        singles={W[0]: c for W, c in coeffs.items() if len(W) == 1},
        pair_corrections={W: c for W, c in coeffs.items() if len(W) == 2},
        higher_order={W: c for W, c in coeffs.items() if len(W) >= 3},
        evaluated_subsets=ev,
        gaps=dict(gaps) if gaps else {},
        baseline_gap=baseline_gap,
        tap_solves=0,
    )


def interaction_coefficients(table: DeltaTable, max_order: int) -> dict[Subset, float]:
    """Recompute e_W from the exact deltas; missing prerequisites raise."""
    return _coefficients(table.evaluated_subsets, max_order, strict=True)


def _coefficient(table: DeltaTable, W: Subset) -> float:
    if len(W) == 1:
        return table.singles.get(W[0], 0.0)
    if len(W) == 2:
        return table.pair_corrections.get(W, 0.0)  # type: ignore[arg-type]
    return table.higher_order.get(W, 0.0)


def estimate_delta(table: DeltaTable, subset: Iterable[str], order: int) -> float:
    """Order-k estimate: sum of stored coefficients over subsets of size <= k.

    Absent coefficients contribute zero, so a table holding only significant
    pairs degrades gracefully.
    """
    S = tuple(sorted(subset))
    if order < 1:
        raise DataError("estimate order must be at least 1")
    total = 0.0
    for size in range(1, min(order, len(S)) + 1):
        for W in combinations(S, size):
            total += _coefficient(table, W)
    return total


def relative_error(table: DeltaTable, subset: Iterable[str], order: int) -> float:
    """|estimate - exact| / |exact| for one subset at one estimate order."""
    S = tuple(sorted(subset))
    exact = table.evaluated_subsets.get(S)
    if exact is None:
        raise DataError(f"subset {{{','.join(S)}}} has no exact delta in the table")
    if exact == 0.0:
        raise DataError(f"subset {{{','.join(S)}}} has zero exact delta; relative error undefined")
    return abs(estimate_delta(table, S, order) - exact) / abs(exact)


@dataclass(frozen=True)
class ErrorReportRow:
    order: int
    label: str
    computations: int
    mean_error_pct: float
    count_over_10pct: int
    subset_count: int
    negative_delta_count: int


def error_report(
    table: DeltaTable,
    orders: Sequence[int],
    reference: DeltaTable | None = None,
) -> list[ErrorReportRow]:
    """Accuracy of the order-k estimator against exact deltas.

    Errors are averaged over every evaluated subset of size >= 3 in
    `reference` (default: `table` itself) whose exact delta is nonzero; the
    computations column counts the coefficient subsets an order-k estimator
    consumes from `table`.
    """
    ref = reference if reference is not None else table
    gold = {S: d for S, d in ref.evaluated_subsets.items() if len(S) >= 3}
    n = len(table.singles)
    all_pairs = n * (n - 1) // 2
    rows = []
    for k in orders:
        if k == 1:
            label = "individual only"
        elif k == 2:
            label = "all pairwise" if len(table.pair_corrections) == all_pairs else "significant pairwise"
        else:
            label = f"all subsets size <= {k}"
        computations = n
        if k >= 2:
            computations += len(table.pair_corrections)
        if k >= 3:
            computations += sum(1 for W in table.higher_order if len(W) <= k)
        errors = []
        negatives = 0
        for S in sorted(gold):
            exact = gold[S]
            if exact == 0.0:
                continue
            if exact < 0:
                negatives += 1
            estimate = estimate_delta(table, S, k)
            errors.append(abs(estimate - exact) / abs(exact))
        mean_pct = 100.0 * sum(errors) / len(errors) if errors else 0.0
        rows.append(
            ErrorReportRow(
                order=k,
                label=label,
                computations=computations,
                mean_error_pct=mean_pct,
                count_over_10pct=sum(1 for e in errors if e > 0.10),
                subset_count=len(errors),
                negative_delta_count=negatives,
            )
        )
    return rows


def format_error_report(rows: Sequence[ErrorReportRow]) -> str:
    header = f"{'data used':<24} {'computations':>12} {'mean error %':>12} {'errors >10%':>11}"
    out = [header, "-" * len(header)]
    for row in rows:
        out.append(
            f"{row.label:<24} {row.computations:>12} {row.mean_error_pct:>12.3f} "
            f"{row.count_over_10pct:>11}"
        )
    return "\n".join(out) + "\n"


def restricted(
    table: DeltaTable,
    pairs: Iterable[Iterable[str]] | None = None,
    max_order: int | None = None,
) -> DeltaTable:
    """Copy of the table as a leaner estimator would see it.

    `pairs` keeps only the named pair corrections (and drops all higher-order
    terms); `max_order` truncates the coefficient hierarchy. Exact deltas are
    retained for use as an error reference.
    """
    new = replace(table)
    new.singles = dict(table.singles)
    new.pair_corrections = dict(table.pair_corrections)
    new.higher_order = dict(table.higher_order)
    new.evaluated_subsets = dict(table.evaluated_subsets)
    new.gaps = dict(table.gaps)
    if pairs is not None:
        keep = {tuple(sorted(p)) for p in pairs}
        new.pair_corrections = {p: d for p, d in new.pair_corrections.items() if p in keep}
        new.higher_order = {}
    if max_order is not None:
        if max_order < 2:
            new.pair_corrections = {}
        new.higher_order = {W: c for W, c in new.higher_order.items() if len(W) <= max_order}
    return new
