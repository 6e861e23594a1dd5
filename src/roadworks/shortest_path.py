"""Single-source shortest paths over the road network.

Four kernels share one relaxation contract: a binary-heap Dijkstra
(label-setting) and three label-correcting queue disciplines, namely the
classic FIFO-queue Bellman-Ford method, d'Esopo-Pape (two-ended queue), and
SLF (smaller-label-first).  Both deque methods run with the LLL
(larger-label-last) refinement: the front node is rotated to the back while
its label exceeds the current queue average.

Large networks take an array path instead, ``_trees_for_origins``: numpy
Bellman-Ford in passes over a whole chunk of origins at once, along a CSR
layout of the out-links (``Network.out_links``).  The equilibrium solver picks
it when origins times links reaches ``_ARRAY_TREES_MIN_WORK`` (see
``equilibrium``); below that the per-origin kernel is faster.

All kernels and the array path honor the centroid rule: node ids below
``first_thru_node`` are never expanded as intermediate nodes (the source
itself is always expanded).  Labels are the same IEEE sums and exact minima
everywhere, and ties between equal-cost paths are broken toward the lower
link index, so every path returns the same labels and predecessor tree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .errors import DataError
from .network import Network

__all__ = ["ALGORITHMS", "DEFAULT_ALGORITHM", "ShortestPathTree", "shortest_paths"]

ALGORITHMS = ("dijkstra", "bellman-ford", "desopo-pape-lll", "slf-lll")
DEFAULT_ALGORITHM = "desopo-pape-lll"

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
    algorithm: str = DEFAULT_ALGORITHM,
) -> ShortestPathTree:
    """Solve one single-source problem under the given per-link costs."""
    if algorithm not in ALGORITHMS:
        raise DataError(f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHMS)}")
    if not 1 <= source <= net.node_count:
        raise DataError(f"source {source} outside 1..{net.node_count}")
    costs = [float(c) for c in link_costs]
    if len(costs) != len(net.links):
        raise DataError(f"got {len(costs)} costs for {len(net.links)} links")
    for i, c in enumerate(costs):
        if not (c >= 0 and math.isfinite(c)):
            link = net.links[i]
            raise DataError(f"link {link.from_node}->{link.to_node} has invalid cost {c}")
    dist, pred = _KERNELS[algorithm](net.node_count, net.adjacency, costs, source, net.first_thru_node)
    labels = {node: dist[node] for node in range(1, net.node_count + 1)}
    preds = {node: pred[node] for node in range(1, net.node_count + 1) if pred[node] >= 0}
    return ShortestPathTree(source=source, labels=labels, predecessor_link=preds)


def _tree_arrays(net: Network, costs: list[float], source: int, algorithm: str):
    """Internal fast path: raw (dist, pred) lists, no validation or dict wrapping."""
    return _KERNELS[algorithm](net.node_count, net.adjacency, costs, source, net.first_thru_node)


def _trees_for_origins(net: Network, costs: np.ndarray, origins: Sequence[int]):
    """Internal array path: trees from every origin in `origins` at once.

    Returns ``(dist, pred)`` of shape ``(len(origins), node_count + 1)``, row
    i holding what the per-origin kernels return for ``origins[i]``.  Runs
    Bellman-Ford in passes over all rows together: the frontier is the
    (row, node) pairs whose label fell in the last pass, expanded along
    ``net.out_links``.  A predecessor is reset when its label falls and then
    lowered to the smallest tight link index, which is the kernels' tie rule.
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


def _dijkstra(n, adj, costs, source, first_thru):
    dist = [_INF] * (n + 1)
    pred = [-1] * (n + 1)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        if u < first_thru and u != source:
            continue  # centroids terminate paths
        for v, a in adj[u]:
            nd = d + costs[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                heappush(heap, (nd, v))
            elif nd == dv and a < pred[v]:
                pred[v] = a
    return dist, pred


def _bellman_ford(n, adj, costs, source, first_thru):
    # Label-correcting with a plain FIFO queue.
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


def _desopo_pape_lll(n, adj, costs, source, first_thru):
    # Two-ended queue: first-time nodes enter at the back, re-entrants at the
    # front. Status: 0 never queued, 1 in queue, 2 previously dequeued.
    dist = [_INF] * (n + 1)
    pred = [-1] * (n + 1)
    dist[source] = 0.0
    status = bytearray(n + 1)
    queue = deque([source])
    status[source] = 1
    queue_sum = 0.0
    while queue:
        m = len(queue)
        if m > 1:
            # LLL: defer the front node while its label exceeds the queue
            # average. The rotation count is capped so float drift in the
            # running sum can never cycle forever.
            avg = queue_sum / m
            rotations = 0
            while dist[queue[0]] > avg and rotations < m:
                queue.rotate(-1)
                rotations += 1
        u = queue.popleft()
        status[u] = 2
        queue_sum -= dist[u]
        if u < first_thru and u != source:
            continue
        du = dist[u]
        for v, a in adj[u]:
            nd = du + costs[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                s = status[v]
                if s == 1:
                    queue_sum += nd - dv
                elif s == 0:
                    queue.append(v)
                    status[v] = 1
                    queue_sum += nd
                else:
                    queue.appendleft(v)
                    status[v] = 1
                    queue_sum += nd
            elif nd == dv and a < pred[v]:
                pred[v] = a
    return dist, pred


def _slf_lll(n, adj, costs, source, first_thru):
    # SLF: enqueue at the front when the new label beats the front label,
    # else at the back. Same LLL pop discipline as d'Esopo-Pape.
    dist = [_INF] * (n + 1)
    pred = [-1] * (n + 1)
    dist[source] = 0.0
    in_queue = bytearray(n + 1)
    queue = deque([source])
    in_queue[source] = 1
    queue_sum = 0.0
    while queue:
        m = len(queue)
        if m > 1:
            avg = queue_sum / m
            rotations = 0
            while dist[queue[0]] > avg and rotations < m:
                queue.rotate(-1)
                rotations += 1
        u = queue.popleft()
        in_queue[u] = 0
        queue_sum -= dist[u]
        if u < first_thru and u != source:
            continue
        du = dist[u]
        for v, a in adj[u]:
            nd = du + costs[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                if in_queue[v]:
                    queue_sum += nd - dv
                else:
                    if queue and nd < dist[queue[0]]:
                        queue.appendleft(v)
                    else:
                        queue.append(v)
                    in_queue[v] = 1
                    queue_sum += nd
            elif nd == dv and a < pred[v]:
                pred[v] = a
    return dist, pred


_KERNELS = {
    "dijkstra": _dijkstra,
    "bellman-ford": _bellman_ford,
    "desopo-pape-lll": _desopo_pape_lll,
    "slf-lll": _slf_lll,
}
