"""Geometric prediction of which upgrade pairs are likely to interact.

Each upgrade gets a representative location: the mean of the midpoints of
every link it adds or modifies.  Pairs are then flagged either by a plain
Euclidean distance threshold or by sharing a cluster under k-means (k-means++
seeding, several restarts, fixed seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DataError, ParseError
from .network import Network, UpgradeSet

__all__ = [
    "UpgradeLocation",
    "compute_locations",
    "pairwise_distances",
    "predict_pairs_threshold",
    "predict_pairs_count",
    "predict_pairs_clustering",
    "kmeans",
    "format_pair_list",
    "parse_pair_list",
]

Pair = tuple[str, str]


@dataclass(frozen=True)
class UpgradeLocation:
    """Planar stand-in for one upgrade's geography."""

    index: int  # 1-based position in the candidate list
    upgrade_id: str
    x: float
    y: float


def compute_locations(net: Network, upgrades: UpgradeSet) -> list[UpgradeLocation]:
    """Mean link-midpoint location of every upgrade; needs node coordinates."""
    if not net.coordinates:
        raise DataError("network has no node coordinates; load a node file first")
    coords = net.coordinates
    locations = []
    for pos, up in enumerate(upgrades, start=1):
        endpoints: list[tuple[int, int]] = []
        for link in up.additions:
            endpoints.append((link.from_node, link.to_node))
        for mod in up.modifications:
            endpoints.append((mod.from_node, mod.to_node))
        missing = sorted({n for pair in endpoints for n in pair if n not in coords})
        if missing:
            raise DataError(
                f"upgrade {up.id}: no coordinates for node(s) {', '.join(map(str, missing))}"
            )
        xs = []
        ys = []
        for a, b in endpoints:
            xs.append(0.5 * (coords[a][0] + coords[b][0]))
            ys.append(0.5 * (coords[a][1] + coords[b][1]))
        locations.append(
            UpgradeLocation(pos, up.id, sum(xs) / len(xs), sum(ys) / len(ys))
        )
    return locations


def pairwise_distances(net: Network, upgrades: UpgradeSet) -> dict[Pair, float]:
    """Euclidean distance between every unordered pair of upgrade locations."""
    locations = compute_locations(net, upgrades)
    out: dict[Pair, float] = {}
    for i in range(len(locations)):
        for j in range(i + 1, len(locations)):
            a, b = locations[i], locations[j]
            key = tuple(sorted((a.upgrade_id, b.upgrade_id)))
            out[key] = math.hypot(a.x - b.x, a.y - b.y)
    return out


def predict_pairs_threshold(distances: Mapping[Pair, float], threshold: float) -> set[Pair]:
    """Pairs strictly closer than `threshold`."""
    if not threshold >= 0:
        raise DataError("distance threshold must be non-negative")
    return {pair for pair, d in distances.items() if d < threshold}


def predict_pairs_count(distances: Mapping[Pair, float], count: int) -> set[Pair]:
    """The `count` closest pairs (ties broken by id)."""
    if count < 0:
        raise DataError("pair count must be non-negative")
    ranked = sorted(distances.items(), key=lambda item: (item[1], item[0]))
    return {pair for pair, _ in ranked[:count]}


def kmeans(
    points: Sequence[tuple[float, float]],
    k: int,
    restarts: int = 10,
    seed: int = 0,
) -> list[int]:
    """Cluster index per point. k-means++ seeding, best WCSS over restarts."""
    n = len(points)
    if not 1 <= k <= n:
        raise DataError(f"k must lie in 1..{n}")
    if restarts < 1:
        raise DataError("k-means restarts must be at least 1")
    best_assign: list[int] | None = None
    best_wcss = math.inf
    for attempt in range(restarts):
        rng = random.Random(f"{seed}:{attempt}")
        centers = _seed_centers(points, k, rng)
        assign = [0] * n
        for _ in range(100):
            changed = False
            for i, p in enumerate(points):
                c = min(range(k), key=lambda j: _sq(p, centers[j]))
                if c != assign[i]:
                    assign[i] = c
                    changed = True
            for j in range(k):
                members = [points[i] for i in range(n) if assign[i] == j]
                if members:
                    centers[j] = (
                        sum(p[0] for p in members) / len(members),
                        sum(p[1] for p in members) / len(members),
                    )
            if not changed:
                break
        wcss = sum(_sq(points[i], centers[assign[i]]) for i in range(n))
        # strict improvement only, so ties keep the earliest attempt
        if best_assign is None or wcss < best_wcss - 1e-12 * max(1.0, best_wcss):
            best_wcss = wcss
            best_assign = list(assign)
    return best_assign


def _sq(a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _seed_centers(points, k, rng) -> list[tuple[float, float]]:
    # k-means++: each next center drawn with probability proportional to the
    # squared distance from the nearest chosen center.
    centers = [points[rng.randrange(len(points))]]
    while len(centers) < k:
        weights = [min(_sq(p, c) for c in centers) for p in points]
        total = sum(weights)
        if total == 0:
            centers.append(points[rng.randrange(len(points))])
            continue
        pick = rng.random() * total
        acc = 0.0
        chosen = len(points) - 1
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                chosen = i
                break
        centers.append(points[chosen])
    return centers


def predict_pairs_clustering(
    locations: Sequence[UpgradeLocation],
    k: int,
    restarts: int = 10,
    seed: int = 0,
) -> set[Pair]:
    """Pairs of upgrades falling in the same k-means cluster."""
    points = [(loc.x, loc.y) for loc in locations]
    assign = kmeans(points, k, restarts=restarts, seed=seed)
    out: set[Pair] = set()
    for i in range(len(locations)):
        for j in range(i + 1, len(locations)):
            if assign[i] == assign[j]:
                out.add(tuple(sorted((locations[i].upgrade_id, locations[j].upgrade_id))))
    return out


def format_pair_list(
    pairs: Iterable[Pair], distances: Mapping[Pair, float] | None = None
) -> str:
    """One `id1 id2 distance` line per pair, ascending by distance then id."""
    dist = dict(distances) if distances else {}
    ordered = sorted(pairs, key=lambda p: (dist.get(p, math.inf), p))
    lines = []
    for pair in ordered:
        if pair in dist:
            lines.append(f"{pair[0]} {pair[1]} {dist[pair]!r}")
        else:
            lines.append(f"{pair[0]} {pair[1]}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_pair_list(text: str) -> list[Pair]:
    """Read a pair-list file; the trailing distance column is optional."""
    pairs: list[Pair] = []
    for i, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseError(f"expected 'id1 id2 [distance]', got {line!r}", line=i + 1)
        if len(fields) == 3:
            try:
                float(fields[2])
            except ValueError:
                raise ParseError(f"non-numeric distance {fields[2]!r}", line=i + 1)
        if fields[0] == fields[1]:
            raise ParseError(f"pair of an upgrade with itself: {fields[0]}", line=i + 1)
        pairs.append(tuple(sorted((fields[0], fields[1]))))
    return pairs
