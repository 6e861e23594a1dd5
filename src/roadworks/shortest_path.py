"""Single-source shortest paths over the road network.

One algorithm, label-correcting Bellman-Ford, in two forms.  The per-origin
kernel ``_bellman_ford`` keeps a FIFO queue of nodes whose label fell.  The
array path ``_trees_for_origins`` runs numpy Bellman-Ford in passes over many
origins at once, along a CSR layout of the out-links, and the origins may
belong to different networks: a ``_BatchGraph`` lays a batch's networks side
by side, their links numbered as in the batch's link vector.  The
equilibrium solver loads a batch's origins in calls of whole chunks, and a
call takes the array path once its origins times links reach
``_ARRAY_TREES_MIN_WORK``, or ``_ARRAY_BATCH_MIN_WORK`` over two or more
networks (see ``equilibrium``); it loads those trees in numpy as well.
Below that the kernel, with its Python loading walk, is faster.

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


class _BatchGraph:
    """One or more networks as one graph for the array path.

    Node u of network j is graph node ``j * width + u``, with ``width`` one
    more than the largest node count, and link k of network j is batch link
    ``offset_j + k``, the networks' links end to end in their given order
    (the order of ``equilibrium._LinkArrays``).  ``out_links`` is the CSR
    layout of every network's ``Network.out_links`` side by side, holding
    batch link indices and each network's own head nodes.
    """

    def __init__(self, nets: Sequence[Network]):
        self.count = len(nets)
        self.width = max(net.node_count for net in nets) + 1
        if len(nets) == 1:
            self.out_links = nets[0].out_links
        else:
            degrees = np.zeros((len(nets), self.width), dtype=np.int64)
            links, heads, offset = [], [], 0
            for j, net in enumerate(nets):
                start, link, head = net.out_links
                degrees[j, : net.node_count + 1] = np.diff(start)
                links.append(link + offset)
                heads.append(head)
                offset += len(net.links)
            start = np.zeros(degrees.size + 1, dtype=np.int64)
            np.cumsum(degrees.ravel(), out=start[1:])
            self.out_links = start, np.concatenate(links), np.concatenate(heads)
        thru = np.array([net.first_thru_node for net in nets], dtype=np.int64)
        # one value when every network shares it, as subsets of one network do
        self.first_thru = int(thru[0]) if (thru == thru[0]).all() else thru


def _trees_for_origins(graph: _BatchGraph, costs: np.ndarray, origins: Sequence[int], owners: Sequence[int]):
    """Internal array path: trees from every origin in `origins` at once.

    `costs` holds one cost per link of `graph` (a batch's link vector), and
    row i starts at ``origins[i]`` in network ``owners[i]`` of it.  Returns
    ``(dist, pred)`` of shape ``(len(origins), width)``, row i holding what
    ``_bellman_ford`` returns for ``origins[i]`` in its network, with
    predecessors as batch link indices and +inf, -1 on the nodes a narrower
    network lacks.  Runs Bellman-Ford in passes over all rows together: the
    frontier is the (row, node) pairs whose label fell in the last pass,
    expanded along the graph's out-links.  A row only ever reaches its own network's nodes and
    links, so it gets the same tree as alone.  The final labels are the
    least path sums whatever order the frontier takes.  A predecessor is
    reset when its label falls and then lowered to the smallest tight link
    index, which is the kernel's tie rule.
    """
    start, link, head = graph.out_links
    width = graph.width
    none = len(costs)  # "no tight link yet", above every link index
    bases = np.arange(len(origins)) * width
    roots = bases + np.asarray(origins, dtype=np.int64)
    # (row, node) + shift[row] is the node's graph node; one network needs none
    shift, thru = None, graph.first_thru
    if graph.count > 1:
        owners = np.asarray(owners, dtype=np.int64)
        shift = owners * width - bases
        if np.ndim(thru):
            thru = thru[owners]  # each row's own, looked up by row in each pass
    per_row = np.ndim(thru) > 0
    dist = np.full(len(origins) * width, _INF)
    pred = np.full(len(origins) * width, none, dtype=np.int64)
    slot = np.empty(len(origins) * width, dtype=np.int32)  # for the dedup below
    dist[roots] = 0.0
    pred[roots] = -1  # below every link index, so a root never takes a link
    frontier = roots
    while frontier.size:
        node = frontier % width
        at = node if shift is None else frontier + shift[frontier // width]
        first = start[at]
        degree = start[at + 1] - first
        ends = np.cumsum(degree)
        pos = np.arange(ends[-1]) + np.repeat(first - (ends - degree), degree)
        via = link[pos]
        target = np.repeat(frontier - node, degree) + head[pos]
        label = np.repeat(dist[frontier], degree) + costs[via]
        before = dist[target]
        np.minimum.at(dist, target, label)
        after = dist[target]
        tight = label == after
        fell = target[tight & (after < before)]
        pred[fell] = none
        np.minimum.at(pred, target[tight], via[tight])
        # each fallen pair once: the last of its entries claims its slot
        order = np.arange(fell.size, dtype=np.int32)
        slot[fell] = order
        frontier = fell[slot[fell] == order]
        # centroids never relay; roots never fall, so only the first frontier
        # holds them
        if per_row:
            frontier = frontier[frontier % width >= thru[frontier // width]]
        elif thru > 1:
            frontier = frontier[frontier % width >= thru]
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
