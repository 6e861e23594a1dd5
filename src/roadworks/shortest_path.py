"""Shortest-path trees and all-or-nothing (AON) loading over the road network.

Trees come from one algorithm, label-correcting Bellman-Ford, in two forms.
The per-origin kernel ``_bellman_ford`` keeps a FIFO queue of nodes whose
label fell.  The array path ``_trees_for_origins`` runs numpy Bellman-Ford in
passes over many origins at once, along a CSR layout of the out-links, and
the origins may belong to different networks: a ``_BatchGraph`` lays a
batch's networks side by side, their links numbered as in the batch's link
vector.

AON loading puts each O-D pair's trips on its path in its origin's tree.  It
runs in calls (`_Loader`, `_Call`) over one or more (network, demand)
problems, each call holding whole chunks of _CHUNK origins of each problem,
so that a batch of small networks loads in one call and a large network chunk
by chunk.

Path rule: a call whose origins times links, over all its problems, reach
_ARRAY_MIN_WORK takes the array path, its trees from one
``_trees_for_origins`` and one numpy walk over all its O-D pairs
(`_load_trees`).  A smaller call loads each problem's origins through the
kernel and a Python walk per O-D pair (`_load_chunk`), which is faster there.

Both paths follow the same rules, so the choice never changes a result:

- Centroids: node ids below ``first_thru_node`` are never expanded as
  intermediate nodes (the source itself is always expanded).
- Ties: labels are the same IEEE sums and exact minima, and ties between
  equal-cost paths go to the lower link index, so both build the same labels
  and predecessor tree.
- Summation order: each link's load is one running sum from 0.0 that adds
  the problem's O-D pairs in the demand's order, each from its destination
  up, across all of a load's calls.  So a problem's flows depend neither on
  the path, nor on how its origins are cut into calls, nor on its batch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DataError, SolverError
from .network import DemandMatrix, Network

__all__ = ["ShortestPathTree", "shortest_paths", "all_or_nothing"]

_INF = math.inf

# Origins per loading chunk, the unit loading calls are cut in.  It changes
# no result: 16 origins per call is about the fewest at which a large grid's
# array trees pay their per-pass cost (3.8 ms a tree against 12.4 ms at 1).
_CHUNK = 16

# Origins times links of one loading call, over all its problems, from which
# it takes the array path.  The kernel costs about the same per origin and
# link anywhere; the array path pays about 60 us per Bellman-Ford pass.
# Timed alternately, array / kernel, one call: Sioux Falls 1.07x for 1
# problem (1,824), 0.7-0.8x for 2 (3,648), 0.34-0.5x for 3 to 10.  The kernel
# stays for what falls below: desk's lone baseline (6), which desk-cli
# `solve_s` times, solved in 0.144 ms on it against 0.534 ms on the array
# path, and desk's subset tables (up to 2,048) cost 1.5-1.65x on the array
# path.  A deep network with few origins loses above it: a 15x15 grid with 9
# zones (7,560) loads in 1.4-1.6x the kernel's time.  Counting passes instead,
# as origins times links against K times the node count, cannot keep these
# choices: desk's table needs K > 292, the 64x64 grid's second chunk K < 36.
_ARRAY_MIN_WORK = 3072

# Bound on one loading call, in origins plus O-D pairs, times the widest
# network's node count plus one (`_Loader`).  The array path's trees take
# 20 bytes per origin and node, and its walk one entry per pair and pass,
# at most one pass per node; a call of one chunk may exceed the bound.  A
# batch of three Sioux Falls problems counts 43k and loads in one call; the
# 64x64 perfbench grid counts 1.6M for one chunk of 16 origins, so it loads
# chunk by chunk, and so does any larger network.
_CALL_MAX_CELLS = 1 << 20


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
    if len(costs) != net.link_count:
        raise DataError(f"got {len(costs)} costs for {net.link_count} links")
    bad = ~(np.isfinite(costs) & (costs >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"link {net._name(i)} has invalid cost {float(costs[i])}")
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
                offset += net.link_count
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
        # the pass's arrays are built in place and each is dropped once used,
        # which keeps the pass's peak memory down
        ends = np.cumsum(degree)
        total = int(ends[-1])
        ends -= degree
        first -= ends
        pos = np.repeat(first, degree)
        pos += np.arange(total)
        del at, first, ends
        via = link[pos]
        target = np.repeat(frontier - node, degree)
        target += head[pos]
        label = np.repeat(dist[frontier], degree)
        label += costs[via]
        del pos, node, degree
        before = dist[target]
        np.minimum.at(dist, target, label)
        after = dist[target]
        tight = label == after
        fell = target[tight & (after < before)]
        del label, before, after
        pred[fell] = none
        np.minimum.at(pred, target[tight], via[tight])
        del target, via, tight
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


class _Problem:
    """What AON loading reads of one (network, demand) problem.  Its trips
    are the demand's CSR of the entries with flow, one row per origin; a
    demand with a node beyond the network's zones is a DataError."""

    def __init__(self, net: Network, demand: DemandMatrix):
        if demand._top_node > net.zone_count:
            rows, dest, _ = demand._in_order()
            k = int(np.argmax((rows > net.zone_count) | (dest > net.zone_count)))
            raise DataError(f"demand pair ({rows[k]},{dest[k]}) lies outside the zone range 1..{net.zone_count}")
        self.net = net
        self.demand = demand
        self.trips = demand._trips

    @cached_property
    def from_nodes(self) -> list[int]:
        """Each link's tail, for the kernel's walk; built on its first load."""
        return self.net.columns.from_node.tolist()


def _load_chunk(problem: _Problem, costs: np.ndarray, rows: range, flows: list[float]) -> None:
    """AON-load the origins of the problem's trip rows `rows` under the
    cost array `costs` with the per-origin kernel, walking each O-D pair's
    path in Python and adding its trips into `flows`, the problem's running
    load on each link."""
    net = problem.net
    cost_list = costs.tolist()
    adj, n, first_thru = net.adjacency, net.node_count, net.first_thru_node
    from_nodes = problem.from_nodes
    limit = net.node_count + 1
    # `by_origin` holds the rows of `trips`, as (destination, flow) pairs
    for origin, trips in problem.demand.by_origin[rows.start : rows.stop]:
        dist, pred = _bellman_ford(n, adj, cost_list, origin, first_thru)
        for dest, q in trips:
            if not math.isfinite(dist[dest]):
                raise SolverError(f"no path for demanded O-D pair ({origin},{dest})")
            v = dest
            steps = 0
            while v != origin:
                a = pred[v]
                flows[a] += q
                v = from_nodes[a]
                steps += 1
                if steps >= limit:
                    raise SolverError(f"predecessor walk did not terminate for pair ({origin},{dest})")


class _Pairs:
    """One loading call's O-D pairs as arrays, for `_load_trees`.

    One tree row per origin of the call and one pair per O-D pair that
    leaves its zone (intrazonal trips load no link and always have a path),
    in problem order and each problem in its trips' order.  A pair is kept
    as its destination's place in the trees (row times the graph's width
    plus the node) and its trips, 16 bytes."""

    def __init__(self, graph: _BatchGraph, tails: np.ndarray, call: "_Call", problems: Sequence[_Problem]):
        self.graph = graph
        self.tails = tails
        self.row_ends = call.row_ends
        spans = [(problem.trips, a, b) for problem, (a, b) in zip(problems, call.ranges)]
        self.origins = np.concatenate([t.origins[a:b] for t, a, b in spans])
        self.owners = np.repeat(np.arange(len(spans)), np.diff(self.row_ends))
        counts = np.concatenate([np.diff(t.start[a : b + 1]) for t, a, b in spans])
        row = np.repeat(np.arange(len(counts)), counts)
        dest = np.concatenate([t.dest[t.start[a] : t.start[b]] for t, a, b in spans])
        keep = dest != self.origins[row]
        row = row[keep]
        self.at = row * graph.width + dest[keep]
        self.q = np.concatenate([t.q[t.start[a] : t.start[b]] for t, a, b in spans])[keep]
        ends = [0, *accumulate(np.bincount(row, minlength=len(counts)).tolist())]
        self.pair_ends = [ends[end] for end in self.row_ends]


def _load_trees(pairs: _Pairs, costs: np.ndarray, flows: np.ndarray, stop: int):
    """The array path of AON loading: add the loads of one call's origins of
    the first `stop` problems under `costs` into `flows`, the problems'
    running loads over their link vector.

    Trees for every row come from one `_trees_for_origins` call, then every
    O-D pair walks up its tree together with the others, one link per pass.
    A stable sort by pair puts the (pair, link) entries in the per-origin
    walk's order, and `np.add.at` adds their trips one by one in that order,
    so each link's load is summed in the Python walk's order.  Returns
    ``(failed, error)``: `failed` is the first problem, in order, with a
    demanded pair that has no path or whose walk does not end, and `error`
    names that pair; they are `stop` and None when there is none.
    """
    rows, end = pairs.row_ends[stop], pairs.pair_ends[stop]
    width = pairs.graph.width
    dist, pred = _trees_for_origins(pairs.graph, costs, pairs.origins[:rows], pairs.owners[:rows])
    at = pairs.at[:end]  # each pair's destination in the trees
    missing = ~np.isfinite(dist.ravel()[at])
    pred = pred.ravel()
    pair = np.flatnonzero(~missing)
    row = at[pair] // width
    base, goal = row * width, pairs.origins[row]
    walked, taken = [pair], [pred[at[pair]]]
    stuck = pair[:0]
    tails = pairs.tails
    for _ in range(width - 1):
        node = tails[taken[-1]]
        going = node != goal
        if not going.any():
            break
        pair, base, goal = pair[going], base[going], goal[going]
        walked.append(pair)
        taken.append(pred[base + node[going]])
    else:
        # a walk that ends takes at most node_count links; these took more
        stuck = walked[-1]
    failed, error = stop, None
    if stuck.size or missing.any():
        bad = missing.copy()
        bad[stuck] = True
        i = int(np.argmax(bad))
        failed = bisect_right(pairs.pair_ends, i) - 1
        o, d = pairs.origins[at[i] // width], at[i] % width
        if missing[i]:
            error = SolverError(f"no path for demanded O-D pair ({o},{d})")
        else:
            error = SolverError(f"predecessor walk did not terminate for pair ({o},{d})")
    # each list and index is dropped once used, which keeps the call's peak
    # memory down
    pair = np.concatenate(walked)
    del walked
    order = np.argsort(pair, kind="stable")
    trips = pairs.q[pair[order]]
    del pair
    links = np.concatenate(taken)[order]
    del taken, order
    np.add.at(flows, links, trips)
    return failed, error


class _Call:
    """One AON loading call of a batch: chunks `first` up to `end` of every
    problem, its trip rows (origins) ``first * _CHUNK`` up to ``end *
    _CHUNK``, kept as one (start, end) range of rows per problem, and its
    path by the rule above."""

    def __init__(self, problems: Sequence[_Problem], first: int, end: int):
        sizes = [len(problem.trips.origins) for problem in problems]
        self.ranges = [(min(first * _CHUNK, size), min(end * _CHUNK, size)) for size in sizes]
        rows = [b - a for a, b in self.ranges]
        self.row_ends = [0, *accumulate(rows)]
        work = sum(count * problem.net.link_count for count, problem in zip(rows, problems))
        self.array = work >= _ARRAY_MIN_WORK
        self.pairs = None  # built on the first array-path load


class _Loader:
    """AON loading of a batch's problems in calls (`_Call`) of whole chunk
    indices, cut by _CALL_MAX_CELLS, each call adding into the batch's one
    flow vector."""

    def __init__(self, problems: Sequence[_Problem], slices: Sequence[slice]):
        self.problems = problems
        self.slices = slices
        chunks = -(-max(len(problem.trips.origins) for problem in problems) // _CHUNK)
        cuts = [0]
        if chunks > 1:
            width = max(problem.net.node_count for problem in problems) + 1
            sizes = np.zeros(chunks, dtype=np.int64)
            for problem in problems:
                rows = len(problem.trips.origins)
                edges = np.append(np.arange(0, rows, _CHUNK), rows)
                # each chunk's origins and O-D pairs
                sizes[: len(edges) - 1] += (np.diff(edges) + np.diff(problem.trips.start[edges])) * width
            cells = 0
            for c, size in enumerate(sizes.tolist()):
                if c > cuts[-1] and cells + size > _CALL_MAX_CELLS:
                    cuts.append(c)
                    cells = 0
                cells += size
        cuts.append(chunks)
        self.calls = [_Call(problems, first, end) for first, end in zip(cuts, cuts[1:])]
        self.graph = self.tails = None  # built on the first array-path load

    def __call__(self, costs: np.ndarray, stop: int):
        """AON flows under `costs`, the problems' link vector, for the
        problems before `stop` (the rest of the vector is to be ignored).
        Returns ``(flows, failed, error)``: `failed` is the first problem, in
        order, whose loading raised or failed, and `error` what it raised;
        they are `stop` and None when there is none."""
        flows, failed, error = np.zeros(len(costs)), stop, None
        for call in self.calls:
            if not call.row_ends[failed]:  # no origins this far out before `failed`
                break
            k, exc = self._load(call, costs, flows, failed)
            if exc is not None:
                failed, error = k, exc
        return flows, failed, error

    def _load(self, call: _Call, costs: np.ndarray, flows: np.ndarray, stop: int):
        """Add the loads of `call` for the problems before `stop` into
        `flows`; returns `failed` and `error` as `__call__` does."""
        if call.array:
            if call.pairs is None:
                if self.graph is None:
                    self.graph = _BatchGraph([problem.net for problem in self.problems])
                    self.tails = np.concatenate([problem.net.columns.from_node for problem in self.problems])
                call.pairs = _Pairs(self.graph, self.tails, call, self.problems)
            try:
                return _load_trees(call.pairs, costs, flows, stop)
            except Exception as exc:  # no one pair's fault: the first problem loaded takes it
                return next(k for k in range(stop) if call.row_ends[k + 1] > call.row_ends[k]), exc
        for k, s in enumerate(self.slices[:stop]):
            running = flows[s].tolist()
            try:
                _load_chunk(self.problems[k], costs[s], range(*call.ranges[k]), running)
            except Exception as exc:
                return k, exc
            flows[s] = running
        return stop, None


def all_or_nothing(
    net: Network,
    demand: DemandMatrix,
    link_costs: Sequence[float],
) -> np.ndarray:
    """Load all demand onto shortest paths under fixed link costs."""
    costs = _checked_costs(net, link_costs)
    flows, _, error = _Loader([_Problem(net, demand)], [slice(0, len(costs))])(costs, 1)
    if error is not None:
        raise error
    return flows
