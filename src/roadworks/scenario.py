"""Exact upgrade-scenario evaluation and k-wise interaction estimates.

For a subset S of upgrades, the exact benefit is the drop in total
vehicle-hours, ``delta(S) = VHT(base) - VHT(base + S)``, each side solved to
user equilibrium.  Writing v_i = delta({i}) and d_ij = delta({i,j}) - v_i -
v_j, higher-order correction terms follow the inclusion-exclusion recursion

    e_W = delta(W) - sum over proper non-empty V of W of e_V,

so the order-k estimate of any subset is the sum of e_W over W within S of
size at most k.  At k = |S| the estimate telescopes back to the exact delta.
A `DeltaTable` keeps every derivable e_W in one map, `coefficients`, keyed by
the sorted id tuple W; an absent W counts as zero.

Exact deltas are expensive (one equilibrium solve each), so every table is
read from a cache of solved subsets, in memory or on disk keyed by network and
demand fingerprints plus the gap target.  `DeltaBook` is the one subset
layer: it maps each (network, demand) to its cache and, for one table or
for several (network, demand, subsets) requests at once, solves what their
caches lack on the calling thread as one stream of lock-step batches of at
most _BATCH_LINKS links, caches the rows in request order, each as soon as
it and every row before it are solved, and reads the tables back;
`compute_deltas` is the same over one given cache.  If a subset fails, the
rows before it are cached and the error is raised.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb, isfinite
from typing import Iterable, Mapping, Sequence

from .equilibrium import SolverSettings, _solve_batch
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
    "DeltaBook",
    "DeltaTable",
    "MemoryDeltaCache",
    "FileDeltaCache",
    "compute_deltas",
    "table_from_cache",
    "warn_if_capped",
    "estimate_delta",
    "error_report",
    "ErrorReportRow",
    "format_error_report",
    "restricted",
    "canonical_subset",
]

Subset = tuple[str, ...]
Subsets = Iterable[Iterable[str | int]]
# one table to fill: its cache, then the network, demand and subsets it is of
Request = tuple["MemoryDeltaCache", Network, DemandMatrix, Subsets]

# Links in all of the networks that one lock-step batch solves; a network
# with more links is solved alone, as the grids' 16k-link ones are.  A batch
# ends with a tail, its last problems iterating alone, so fewer and wider
# batches pay, the more so since a batch's AON is one array pass.  CPU time
# against 256 links, medians of 15 alternating pairs: desk's 255 subsets at
# gap 1e-8 (6-10 links each, all in one batch) 0.82x at 1,024 and 0.77x at
# 4,096; Sioux Falls' 4 singles and 6 pairs at 1e-4 (76-78 links each, one
# batch of 11 from 1,024 on) 0.67-0.70x.  perfbench sf-plan `plan_s` fell to
# 0.74-0.78x (two runs of 10 pairs), and its peak RSS rose 1.1 MB (2.9%):
# more networks, trees and walks are alive at once.
_BATCH_LINKS = 4096


def canonical_subset(upgrades: UpgradeSet, subset: Iterable[str | int]) -> Subset:
    """Sorted tuple of upgrade ids (accepts ids or 1-based indices)."""
    return tuple(sorted(u.id for u in upgrades.resolve(subset)))


@dataclass
class DeltaTable:
    """Exact deltas plus the coefficients e_W derivable from them."""

    baseline_vht: float
    coefficients: dict[Subset, float] = field(default_factory=dict)
    evaluated_subsets: dict[Subset, float] = field(default_factory=dict)
    gaps: dict[Subset, float] = field(default_factory=dict)
    baseline_gap: float = 0.0
    tap_solves: int = 0

    @property
    def singles(self) -> dict[str, float]:
        """e_W of the one-upgrade subsets, keyed by upgrade id."""
        return {W[0]: c for W, c in self.coefficients.items() if len(W) == 1}


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

    def refresh(self) -> None:
        """Read rows that other writers added; memory has no other writer."""


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
    `refresh` reads the complete rows that another writer (a second
    DeltaBook over the same directory, say) appended since this object last
    read or wrote the file; it never truncates.
    """

    def __init__(self, path: str, network_hash: str, demand_hash: str, target_gap: float):
        super().__init__()
        self.path = path
        self.network_hash = network_hash
        self.demand_hash = demand_hash
        self.target_gap = target_gap
        self._end = 0  # bytes of the file read or written by this object
        self._lines = 0
        if os.path.exists(path):
            self._load()
        else:
            self._append(
                "# roadworks delta cache\n"
                f"network {network_hash}\n"
                f"demand {demand_hash}\n"
                f"target_gap {target_gap!r}\n"
            )

    @classmethod
    def open(cls, path: str, net: Network, demand: DemandMatrix, settings: SolverSettings):
        return cls(path, network_fingerprint(net), demand_fingerprint(demand), settings.target_gap)

    def _load(self) -> None:
        header, torn = self._read_new()
        mismatches = []
        if header.get("network") != self.network_hash:
            mismatches.append("network")
        if header.get("demand") != self.demand_hash:
            mismatches.append("demand")
        if header.get("target_gap") != self.target_gap:
            mismatches.append("target_gap")
        if mismatches:
            nodes = " (node coordinates count: give the same --nodes file, or none, as at build time)"
            raise DataError(
                f"cache {self.path} was built for a different {'/'.join(mismatches)}"
                f"{nodes if 'network' in mismatches else ''}; delete it or point at a fresh path"
            )
        if torn:
            warnings.warn(
                f"cache {self.path}: dropped the incomplete last line "
                f"{torn.decode(errors='replace')!r}",
                RuntimeWarning,
                stacklevel=3,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(self._end)

    def refresh(self) -> None:
        self._read_new()

    def _read_new(self) -> tuple[dict[str, str | float], bytes]:
        """Parse the complete lines past those already read or written.

        Returns the header fields among them and the bytes after the last
        newline, which are left unread.
        """
        with open(self.path, "rb") as fh:
            fh.seek(self._end)
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        try:
            lines = data[:whole].decode().splitlines()
        except UnicodeDecodeError as exc:
            number = self._lines + data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"cache {self.path}, line {number}: not {exc.encoding} text ({exc.reason})") from None
        header: dict[str, str | float] = {}
        for number, raw in enumerate(lines, start=self._lines + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fields[0] in ("network", "demand") and len(fields) == 2:
                    header[fields[0]] = fields[1]
                elif fields[0] == "target_gap" and len(fields) == 2:
                    header[fields[0]] = _finite(fields[1])
                elif fields[0] == "BASELINE" and len(fields) == 3:
                    self._baseline = (_finite(fields[1]), _finite(fields[2]))
                elif len(fields) == 3:
                    subset = tuple(fields[0].split(","))
                    self._rows[subset] = (_finite(fields[1]), _finite(fields[2]))
                else:
                    raise DataError(f"cache {self.path}, line {number}: unrecognized line {line!r}")
            except ValueError:
                raise DataError(f"cache {self.path}, line {number}: bad number in {line!r}") from None
        self._end += whole
        self._lines += len(lines)
        return header, data[whole:]

    def set_baseline(self, vht: float, gap: float) -> None:
        super().set_baseline(vht, gap)
        self._append(f"BASELINE {vht!r} {gap!r}\n")

    def put(self, subset: Subset, delta: float, gap: float) -> None:
        super().put(subset, delta, gap)
        self._append(f"{','.join(subset)} {delta!r} {gap!r}\n")

    def _append(self, text: str) -> None:
        with open(self.path, "ab") as fh:
            # another writer's rows past _end stay unread until the next refresh
            caught_up = fh.tell() == self._end
            fh.write(text.encode())
            if caught_up:
                self._end = fh.tell()
                self._lines += text.count("\n")


def _finite(text: str) -> float:
    """`text` as a finite float; ValueError for anything else, NaN and inf included."""
    number = float(text)
    if not isfinite(number):
        raise ValueError(text)
    return number


def _coefficients(evaluated: Mapping[Subset, float]) -> dict[Subset, float]:
    """e_W for every evaluated subset, by the recursion above.

    A W with a proper subset that was never evaluated is skipped.
    """
    coeffs: dict[Subset, float] = {}
    for W in sorted(evaluated, key=lambda s: (len(s), s)):
        proper = [V for size in range(1, len(W)) for V in combinations(W, size)]
        if all(V in coeffs for V in proper):
            total = 0.0
            for V in proper:
                total += coeffs[V]
            coeffs[W] = evaluated[W] - total
    return coeffs


def warn_if_capped(iterations: int, gap: float, settings: SolverSettings, label: str = "") -> None:
    """Warn when a solve stopped at its iteration cap above the target gap."""
    if gap > settings.target_gap:
        warnings.warn(
            f"{label + ': ' if label else ''}stopped after {iterations} iterations at relative gap "
            f"{gap:.3e} > target {settings.target_gap:g}",
            RuntimeWarning,
            stacklevel=2,
        )


class DeltaBook:
    """The subset layer: delta tables read from one cache per (network, demand).

    Fingerprints map a network and demand to their cache, in memory or, with
    `cache_dir`, in the file ``deltas_<network>_<demand>.cache`` there, so
    conditions reached twice are cache hits, not fresh solves.  The missing
    baselines and subsets of one `tables` call, or of one table, are solved
    on the calling thread in lock-step batches, and each row is cached as
    soon as it and every row before it are solved.
    """

    def __init__(self, settings: SolverSettings, cache_dir: str | None = None):
        self.settings = settings
        self.cache_dir = cache_dir
        self._caches: dict[tuple[str, str], MemoryDeltaCache] = {}

    def cache(self, net: Network, demand: DemandMatrix) -> MemoryDeltaCache:
        """The cache for this network and demand, opened on first use."""
        key = (network_fingerprint(net), demand_fingerprint(demand))
        if key not in self._caches:
            if self.cache_dir:
                os.makedirs(self.cache_dir, exist_ok=True)
                path = os.path.join(self.cache_dir, f"deltas_{key[0]}_{key[1]}.cache")
                self._caches[key] = FileDeltaCache(path, *key, self.settings.target_gap)
            else:
                self._caches[key] = MemoryDeltaCache()
        return self._caches[key]

    def deltas(self, net: Network, demand: DemandMatrix, upgrades: UpgradeSet, subsets: Subsets) -> DeltaTable:
        """Delta table of `subsets`, solving only what this network and demand's cache lacks."""
        return self.tables(upgrades, [(net, demand, subsets)])[0]

    def tables(
        self, upgrades: UpgradeSet, requests: Iterable[tuple[Network, DemandMatrix, Subsets]]
    ) -> list[DeltaTable]:
        """`deltas` of each (network, demand, subsets) request, in order.

        Every request's subsets are checked first, then its missing rows
        are solved in one stream of batches, a row that two requests share
        through one cache once, and each row is cached as soon as it and
        every row before it, in request order, are solved.
        """
        return self._fill(upgrades, [(self.cache(net, demand), net, demand, subsets)
                                     for net, demand, subsets in requests])

    def _fill(self, upgrades: UpgradeSet, requests: Sequence[Request]) -> list[DeltaTable]:
        wanted: list[list[Subset]] = []
        todo: list[tuple[int, Subset | None]] = []  # (request, subset), None for its cache's baseline
        queued = set()
        for k, (cache, _, _, subsets) in enumerate(requests):
            canonical = {canonical_subset(upgrades, list(s)) for s in subsets}
            wanted.append(sorted((S for S in canonical if S), key=lambda s: (len(s), s)))
            cache.refresh()
            for S in [None] + wanted[-1]:
                missing = cache.baseline() is None if S is None else cache.get(S) is None
                if missing and (id(cache), S) not in queued:
                    queued.add((id(cache), S))
                    todo.append((k, S))
        settings = self.settings
        solves = [0] * len(requests)
        for run, problems in _runs(upgrades, requests, todo):
            # each row is cached as soon as it and every row before it are
            # solved, so an interrupted fill keeps every finished row
            for (k, S), assignment in zip(run, _solve_batch(problems, settings)):
                cache = requests[k][0]
                gap = assignment.relative_gap
                if S is None:
                    warn_if_capped(assignment.iterations, gap, settings, "baseline")
                    cache.set_baseline(assignment.vht, gap)
                else:
                    warn_if_capped(assignment.iterations, gap, settings, f"subset {{{','.join(S)}}}")
                    cache.put(S, cache.baseline()[0] - assignment.vht, gap)
                solves[k] += 1
        return [replace(table_from_cache(cache, rows), tap_solves=count)
                for (cache, *_), rows, count in zip(requests, wanted, solves)]


def _runs(upgrades: UpgradeSet, requests: Sequence[Request], todo: Sequence[tuple[int, Subset | None]]):
    """`todo`, (request, subset) pairs with None for the baseline, in
    consecutive runs of at most _BATCH_LINKS links in all, a larger network
    alone, each with its (network, demand) problems built on its request's
    network and demand.  A run's networks are built only once the run before
    it is solved.  A subset whose network cannot be built ends the run
    before it, which is still solved, and then raises."""
    run: list[tuple[int, Subset | None]] = []
    problems: list[tuple[Network, DemandMatrix]] = []
    links = 0
    for k, S in todo:
        _, net, demand, _ = requests[k]
        size = net.link_count + (0 if S is None else sum(len(u.additions) for u in upgrades.resolve(S)))
        if run and links + size > _BATCH_LINKS:
            yield run, problems
            run, problems, links = [], [], 0
        try:
            built = net if S is None else apply_upgrades(net, upgrades, S)
        except Exception:
            if run:
                yield run, problems
            raise
        run.append((k, S))
        problems.append((built, demand))
        links += size
    if run:
        yield run, problems


def compute_deltas(
    net: Network,
    demand: DemandMatrix,
    upgrades: UpgradeSet,
    subsets: Subsets,
    settings: SolverSettings,
    cache: MemoryDeltaCache | None = None,
    workers: int = 1,
) -> DeltaTable:
    """Solve the base network plus every requested subset and tabulate deltas.

    Subsets already in `cache` (default: a fresh in-memory one) are not
    re-solved; `tap_solves` on the result counts fresh equilibrium runs
    (baseline included).
    """
    # `workers` is read by nothing; it stays only for the benchmark's call shape
    if workers < 1:
        raise DataError("workers must be at least 1")
    cache = MemoryDeltaCache() if cache is None else cache
    return DeltaBook(settings)._fill(upgrades, [(cache, net, demand, subsets)])[0]


def table_from_cache(cache: MemoryDeltaCache, wanted: Sequence[Subset] | None = None) -> DeltaTable:
    """Build a DeltaTable from cache rows alone; never solves.

    `wanted` lists the subsets that must be present (default: every row);
    missing ones raise with a pointer at the deltas command.
    """
    base = cache.baseline()
    if base is None:
        raise DataError("delta cache has no baseline row; run the deltas command first")
    rows = cache.rows()
    if wanted is not None:
        missing = sorted(S for S in wanted if S not in rows)
        if missing:
            names = "; ".join(",".join(S) for S in missing)
            raise DataError(
                f"delta cache is missing subsets: {names} (run the deltas command to add them)"
            )
        rows = {S: rows[S] for S in wanted}
    evaluated = {S: d for S, (d, _) in rows.items()}
    return DeltaTable(
        baseline_vht=base[0],
        coefficients=_coefficients(evaluated),
        evaluated_subsets=evaluated,
        gaps={S: g for S, (_, g) in rows.items()},
        baseline_gap=base[1],
    )


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
            total += table.coefficients.get(W, 0.0)
    return total


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
    consumes from `table`.  A row's label names the largest coefficient size
    it sums, not k, and says "all" only when every subset of each size from 2
    up to it has a coefficient.
    """
    ref = reference if reference is not None else table
    gold = sorted((S, d) for S, d in ref.evaluated_subsets.items() if len(S) >= 3 and d != 0.0)
    if gold and min(orders, default=1) < 1:
        raise DataError("estimate order must be at least 1")
    # each subset's coefficients summed once, as `estimate_delta` sums them:
    # sums[size] is its order-k estimate for every k with min(k, |S|) = size
    top_order = max(orders, default=0)
    partial_sums = []
    for S, _ in gold:
        total, sums = 0.0, [0.0]
        S = tuple(sorted(S))
        for size in range(1, min(top_order, len(S)) + 1):
            for W in combinations(S, size):
                total += table.coefficients.get(W, 0.0)
            sums.append(total)
        partial_sums.append(sums)
    negatives = sum(1 for _, exact in gold if exact < 0)
    sizes = [len(W) for W in table.coefficients]
    n = sizes.count(1)
    rows = []
    for k in orders:
        top = max((size for size in sizes if size <= k), default=1)
        full = all(sizes.count(size) == comb(n, size) for size in range(2, top + 1))
        if top == 1:
            label = "individual only"
        elif top == 2:
            label = "all pairwise" if full else "significant pairwise"
        else:
            label = f"{'all' if full else 'some'} subsets size <= {top}"
        computations = sum(1 for size in sizes if size <= k)
        errors = [abs(sums[min(k, len(S))] - exact) / abs(exact) for (S, exact), sums in zip(gold, partial_sums)]
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


def restricted(table: DeltaTable, pairs: Iterable[Iterable[str]]) -> DeltaTable:
    """Copy of the table as a pairwise estimator over `pairs` would see it.

    Keeps the singles and the named pairs' coefficients and drops every
    other one.  Exact deltas are retained for use as an error reference.
    """
    keep = {tuple(sorted(p)) for p in pairs}
    return replace(
        table,
        coefficients={W: c for W, c in table.coefficients.items() if len(W) == 1 or W in keep},
        evaluated_subsets=dict(table.evaluated_subsets),
        gaps=dict(table.gaps),
    )
