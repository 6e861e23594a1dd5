"""Single-source shortest paths over the road network.

One algorithm, label-correcting Bellman-Ford, in two forms.  Small networks
take the per-origin kernel ``_bellman_ford``: a FIFO queue of nodes whose
label fell.  Large networks take the array path ``_trees_for_origins``:
numpy Bellman-Ford in passes over a whole chunk of origins at once, along a
CSR layout of the out-links (``Network.out_links``).  The equilibrium solver
picks the array path when origins times links reaches
``_ARRAY_TREES_MIN_WORK`` (see ``equilibrium``), and loads its trees in numpy
as well; below that the kernel, with its Python loading walk, is faster.

Both forms honor the centroid rule: node ids below ``first_thru_node`` are
never expanded as intermediate nodes (the source itself is always expanded).
Labels are the same IEEE sums and exact minima in both, and ties between
equal-cost paths are broken toward the lower link index, so both return the
same labels and predecessor tree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .network import Network

__all__ = ["ShortestPathTree", "shortest_paths"]

_INF = math.inf


@dataclass(frozen=True)
class ShortestPathTree:
    """Labels and tree arcs of one single-source run.

    Unreachable nodes carry a +inf label and no predecessor entry; the source
    has label 0 and no predecessor.
    """

    source: int
    labels: dict[int, float]
    predecessor_link: dict[int, int]


def shortest_paths(
    net: Network,
    link_costs: Sequence[float],
    source: int,
) -> ShortestPathTree:
    """Solve one single-source problem under the given per-link costs."""
    if not 1 <= source <= net.node_count:
        raise DataError(f"source {source} outside 1..{net.node_count}")
    costs = _checked_costs(net, link_costs).tolist()
    dist, pred = _bellman_ford(net.node_count, net.adjacency, costs, source, net.first_thru_node)
    labels = {node: dist[node] for node in range(1, net.node_count + 1)}
    preds = {node: pred[node] for node in range(1, net.node_count + 1) if pred[node] >= 0}
    return ShortestPathTree(source=source, labels=labels, predecessor_link=preds)


def _checked_costs(net: Network, link_costs: Sequence[float]) -> np.ndarray:
    """`link_costs` as a float array, one finite non-negative cost per link of
    `net`; otherwise a DataError naming the first bad link."""
    costs = np.array(link_costs, dtype=float)
    if len(costs) != len(net.links):
        raise DataError(f"got {len(costs)} costs for {len(net.links)} links")
    bad = ~(np.isfinite(costs) & (costs >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        link = net.links[i]
        raise DataError(f"link {link.from_node}->{link.to_node} has invalid cost {float(costs[i])}")
    return costs


def _trees_for_origins(net: Network, costs: np.ndarray, origins: Sequence[int]):
    """Internal array path: trees from every origin in `origins` at once.

    Returns ``(dist, pred)`` of shape ``(len(origins), node_count + 1)``, row
    i holding what ``_bellman_ford`` returns for ``origins[i]``.  Runs
    Bellman-Ford in passes over all rows together: the frontier is the
    (row, node) pairs whose label fell in the last pass, expanded along
    ``net.out_links``.  A predecessor is reset when its label falls and then
    lowered to the smallest tight link index, which is the kernel's tie rule.
    """
    start, link, head = net.out_links
    width = net.node_count + 1
    none = len(net.links)  # "no tight link yet", above every link index
    roots = np.arange(len(origins)) * width + np.asarray(origins, dtype=np.int64)
    dist = np.full(len(origins) * width, _INF)
    pred = np.full(len(origins) * width, none, dtype=np.int64)
    dist[roots] = 0.0
    pred[roots] = -1  # below every link index, so a root never takes a link
    frontier = roots
    while frontier.size:
        node = frontier % width
        first = start[node]
        degree = start[node + 1] - first
        ends = np.cumsum(degree)
        pos = np.arange(ends[-1]) + np.repeat(first - (ends - degree), degree)
        via = link[pos]
        target = np.repeat(frontier - node, degree) + head[pos]
        label = np.repeat(dist[frontier], degree) + costs[via]
        before = dist[target]
        np.minimum.at(dist, target, label)
        after = dist[target]
        tight = label == after
        fell = np.sort(target[tight & (after < before)])
        pred[fell] = none
        np.minimum.at(pred, target[tight], via[tight])
        # each fallen pair once (np.diff costs 2-4x as much here, np.unique up to 30x)
        frontier = fell[np.concatenate(([True], fell[1:] != fell[:-1]))] if fell.size else fell
        if net.first_thru_node > 1:
            # centroids never relay; roots never fall, so only the first
            # frontier holds them
            frontier = frontier[frontier % width >= net.first_thru_node]
    pred[pred == none] = -1
    return dist.reshape(len(origins), width), pred.reshape(len(origins), width)


def _bellman_ford(n, adj, costs, source, first_thru):
    # Label-correcting with a plain FIFO queue; equal labels keep the lower
    # link index.
    dist = [_INF] * (n + 1)
    pred = [-1] * (n + 1)
    dist[source] = 0.0
    in_queue = bytearray(n + 1)
    queue = deque([source])
    in_queue[source] = 1
    while queue:
        u = queue.popleft()
        in_queue[u] = 0
        if u < first_thru and u != source:
            continue
        du = dist[u]
        for v, a in adj[u]:
            nd = du + costs[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                if not in_queue[v]:
                    queue.append(v)
                    in_queue[v] = 1
            elif nd == dv and a < pred[v]:
                pred[v] = a
    return dist, pred
