"""User-equilibrium traffic assignment by bi-conjugate Frank-Wolfe.

Latencies follow the BPR form ``l(f) = t (1 + alpha (f/Q)^beta)`` and the
objective is the Beckmann sum of link latency integrals, for which the BPR
integral has the closed form ``t F + t alpha F^(beta+1) / ((beta+1) Q^beta)``.
Each iteration builds an all-or-nothing (AON) point ``y`` from shortest paths
under current latencies and measures the relative gap

    gap = (f . l(f) - y . l(f)) / (f . l(f)).

The step then runs from ``x`` towards the bi-conjugate point
``s = b0 y + b1 s1 + b2 s2`` of Mitradjieva & Lindberg (2013, "The stiff is
moving - conjugate direction Frank-Wolfe methods with applications to traffic
assignment"), where ``s1`` and ``s2`` are the last two such points.  Its
weights make the new direction conjugate to the last two directions under the
diagonal Hessian ``H = diag(l'(x))`` of separable BPR.  With ``dfw = y - x``,
``db = s1 - x``, ``dbb = tau s1 - x + (1 - tau) s2`` and ``tau`` the last
step length:

    a  = db' H dfw / db' H (y - s1)                  (conjugate weight)
    mu = max(0, -dbb' H dfw / dbb' H (s2 - s1))
    nu = a / (1 - a) + mu tau / (1 - tau)
    b0 = 1 / (1 + mu + nu),  b1 = nu b0,  b2 = mu b0.

For an unclamped ``a``, ``a / (1 - a)`` is the paper's ``-db' H dfw / db' H
db``; taking it from ``a`` makes ``mu = 0`` give exactly the conjugate point
``a s1 + (1 - a) y``.  That is the fallback on the second iteration, when
``tau`` is not in (0, 1), and when the denominator of ``mu`` is zero.  The
first iteration, and a zero denominator of ``a``, take ``a = 0``: a plain
Frank-Wolfe step.  ``a`` is clamped to ``[0, 1 - delta]``, and ``mu`` and
``nu`` are scaled down so that ``b0 >= delta``, with ``delta = 0.05``; without
that margin the point can stall on small networks at tight gaps, because a
step of zero leaves ``x`` and ``s`` where they were.
The step length is exact: a safeguarded Newton iteration on the derivative
``g'(lam) = d . l(x + lam d)`` with ``g''(lam) = sum d^2 l'(x + lam d)``,
falling back to bisection whenever Newton leaves the bracket.  Each step is
exact along a feasible direction, so the Beckmann objective never rises.

One loop solves any number of (network, demand) problems in lock-step
(`_solve_batch`; `solve_with` is that loop with one problem).  Each
elementwise step runs once over the active problems' links end to end, while
inner products, sums, the branches of the direction weights and of the line
search, and the histories stay per problem.  AON loading runs in calls
over every problem still iterating (`_Loader`), each call holding whole
chunks of origins: as many as keep its origins and O-D pairs times the node
count within _CALL_MAX_CELLS, so a batch of small networks loads in one
call and a large network chunk by chunk.  A call takes the array path, one
array Bellman-Ford over all its origins and one numpy walk over all its O-D
pairs, once its origins times links reach _ARRAY_TREES_MIN_WORK, or
_ARRAY_BATCH_MIN_WORK when it holds origins of two or more problems; below
that each problem's origins go through the per-origin kernel and its
Python walk.  A problem leaves the batch when it converges or reaches its
iteration cap.  Subset tables batch their missing subsets this way, so that
many small solves share the cost of each numpy call.

Determinism contract: solves run on one thread, and the same inputs give
bit-identical flows, alone or in any batch: elementwise results do not
depend on where a link sits in the batch, and each problem's reductions run
over its own slice.  Each problem's origins are loaded in chunks of _CHUNK
in a fixed order and the chunk flows are summed in that order.  Both AON
paths build the same trees, and both add each link's loads in the same
order: pair by pair, each pair from its destination up, within a chunk, and
then chunk by chunk.  So the flows do not depend on which path ran, nor on
the batch around a problem.  Inner products of link vectors never call
BLAS from _BLAS_FREE_MIN_LINKS links on, where OpenBLAS would split them
over threads, so flows do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, SolverError
from .network import DemandMatrix, Link, Network
from .shortest_path import _BatchGraph, _bellman_ford, _checked_costs, _trees_for_origins

__all__ = [
    "Assignment",
    "SolverSettings",
    "bpr_latency",
    "bpr_integral",
    "all_or_nothing",
    "relative_gap",
    "vht",
    "solve_with",
    "write_flow_file",
    "format_flow_file",
]

# Origins per loading chunk.  It fixes the order in which a problem's flows
# are summed, chunk by chunk, on both AON paths, so any other value changes
# the flows in their last bits.
_CHUNK = 16

# Origins times links of one loading call (`_Call`) over one network from
# which it takes the array path instead of the per-origin kernel.  The
# kernel costs about the same per origin and link wherever it runs; the
# array path pays about 60 us per Bellman-Ford pass and takes a pass per
# link of the deepest tree, so a deep network with few origins loses.  On
# square grids (trees and loading, 25 zones) the two break even at 7k-15k
# for 16 origins and at 16k-32k for 1 to 8.  Timed alternately, array /
# kernel, one call: a 15x15 grid with 9 zones (7,560) 1.6x, with 25 zones
# (21,000) 0.65x, a 21x21 grid with 25 zones (42,000) 0.57x.
_ARRAY_TREES_MIN_WORK = 16384

# The same for a call that holds origins of two or more networks.  A subset
# table batches at most scenario._BATCH_LINKS links, so such networks are
# small and shallow (8 passes on Sioux Falls), and one pass over all of
# them pays for itself sooner.  Timed alternately, one call: Sioux Falls
# 0.7-0.8x for 2 problems (3,648), 0.34-0.5x for 3 to 10; desk breaks even
# at about 40 problems (240), and a full desk batch (at most 252) stays on
# the kernel.
_ARRAY_BATCH_MIN_WORK = 3072

# Bound on one loading call, in origins plus O-D pairs, times the widest
# network's node count plus one (`_Loader`).  The array path's trees take
# 20 bytes per origin and node, and its walk one entry per pair and pass,
# at most one pass per node; a call of one chunk may exceed the bound.  A
# batch of three Sioux Falls problems counts 43k and loads in one call; the
# 64x64 perfbench grid counts 1.6M for one chunk of 16 origins, so it loads
# chunk by chunk, and so does any larger network.
_CALL_MAX_CELLS = 1 << 20

# Link count from which inner products of link vectors avoid BLAS.  OpenBLAS
# splits ddot over threads above about 10k elements, so the sum would depend
# on the BLAS thread count and the idle threads spin.  Below it np.dot is the
# cheapest call (about 1 us against 3-4 us for einsum).
_BLAS_FREE_MIN_LINKS = 8192

# Margin that keeps the AON point in the bi-conjugate point with weight at
# least _CONJUGATE_MARGIN.
_CONJUGATE_MARGIN = 0.05

# Line-search tolerance on the step length, and a bound on its Newton and
# bisection steps (bisection alone needs 47 to narrow [0, 1] this far).
_STEP_TOL = 1e-14
_LINE_SEARCH_MAX_STEPS = 100


@dataclass(eq=False)
class Assignment:
    """Result of one equilibrium (or truncated) solve."""

    flows: np.ndarray
    latencies: np.ndarray
    vht: float
    relative_gap: float
    iterations: int
    beckmann_history: list[float] = field(default_factory=list)
    gap_history: list[float] = field(default_factory=list)
    # step lengths taken along the bi-conjugate directions, one per iteration
    # that moved on (all but the last)
    step_sizes: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SolverSettings:
    """When a solve stops: at relative gap `target_gap` or after `max_iters` iterations."""

    target_gap: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if not self.target_gap > 0:
            raise DataError("target_gap must be positive")
        if self.max_iters < 1:
            raise DataError("max_iters must be at least 1")


def bpr_latency(link: Link, flow: float) -> float:
    """Travel time on one link at the given flow."""
    if flow < 0:
        raise DataError(f"negative flow {flow} on link {link.from_node}->{link.to_node}")
    return link.free_flow_time * (1.0 + link.alpha * (flow / link.capacity) ** link.beta)


def bpr_integral(link: Link, flow: float) -> float:
    """Integral of the BPR latency from 0 to `flow` (one Beckmann term)."""
    if flow < 0:
        raise DataError(f"negative flow {flow} on link {link.from_node}->{link.to_node}")
    t, a, b, q = link.free_flow_time, link.alpha, link.beta, link.capacity
    return t * flow + t * a * flow ** (b + 1.0) / ((b + 1.0) * q**b)


def _einsum_dot(x: np.ndarray, y: np.ndarray) -> float:
    return np.einsum("i,i->", x, y)


def _link_dot(m: int):
    """The inner product for link vectors of length m; the same m always
    gets the same summation order."""
    return np.dot if m < _BLAS_FREE_MIN_LINKS else _einsum_dot


def vht(flows: np.ndarray, latencies: np.ndarray) -> float:
    """Total vehicle-hours (flow-weighted travel time)."""
    flows = np.asarray(flows, dtype=float)
    return float(_link_dot(flows.size)(flows, np.asarray(latencies, dtype=float)))


def relative_gap(flows: np.ndarray, costs: np.ndarray, aon_flows: np.ndarray) -> float:
    """Relative difference between current total cost and the AON total cost."""
    flows = np.asarray(flows, dtype=float)
    costs = np.asarray(costs, dtype=float)
    dot = _link_dot(flows.size)
    total = float(dot(flows, costs))
    if total == 0.0:
        raise DataError("relative gap undefined: total travel cost is zero")
    best = float(dot(np.asarray(aon_flows, dtype=float), costs))
    return (total - best) / total


class _LinkArrays:
    """Per-link BPR parameters of one or more networks as numpy columns, the
    networks' links end to end.  Elementwise work runs once over all of
    them; `inner` and `beckmann` reduce each network's slice on its own,
    with the inner product for that network's link count."""

    def __init__(self, nets: Sequence[Network]):
        links = nets[0].links if len(nets) == 1 else [l for net in nets for l in net.links]
        self.t = np.array([l.free_flow_time for l in links], dtype=float)
        self.cap = np.array([l.capacity for l in links], dtype=float)
        self.alpha = np.array([l.alpha for l in links], dtype=float)
        self.beta = np.array([l.beta for l in links], dtype=float)
        # the leading factors of `slopes` and `beckmann`, in their order of
        # evaluation, so the results stay the same to the bit
        self.slope_scale = self.t * self.alpha * self.beta
        self.t_alpha = self.t * self.alpha
        self.beck_scale = (self.beta + 1.0) * np.power(self.cap, self.beta)
        counts = [len(net.links) for net in nets]
        self.single = len(counts) == 1
        # the network of each link, for `spread`
        self.owner = None if self.single else np.repeat(np.arange(len(counts)), counts)
        self.slices = [slice(end - count, end) for end, count in zip(accumulate(counts), counts)]
        self.dots = [_link_dot(count) for count in counts]

    def spread(self, values: Sequence[float]):
        """One value per network as a per-link factor: the value itself
        when there is one network."""
        return values[0] if self.single else np.array(values)[self.owner]

    def inner(self, x: np.ndarray, y: np.ndarray, which: Sequence[int] | None = None) -> list[float]:
        """x . y over each network's links, or over those of the networks in `which`."""
        dots = self.dots
        if self.single:
            return [float(dots[0](x, y))]
        slices = self.slices
        if which is None:
            which = range(len(slices))
        return [float(dots[k](x[slices[k]], y[slices[k]])) for k in which]

    def latencies(self, flows: np.ndarray) -> np.ndarray:
        return self.t * (1.0 + self.alpha * np.power(flows / self.cap, self.beta))

    def slopes(self, flows: np.ndarray) -> np.ndarray:
        """l'(f), the diagonal of the Beckmann Hessian; non-finite slopes
        (zero flow with beta < 1) read as 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            s = self.slope_scale * np.power(flows / self.cap, self.beta - 1.0) / self.cap
        return np.where(np.isfinite(s), s, 0.0)

    def beckmann(self, flows: np.ndarray) -> list[float]:
        """Each network's Beckmann objective."""
        terms = self.t * flows + self.t_alpha * np.power(flows, self.beta + 1.0) / self.beck_scale
        return [float(terms[s].sum()) for s in self.slices]


class _Problem:
    """One (network, demand) solve: what its AON loading reads, and its histories."""

    def __init__(self, net: Network, demand: DemandMatrix, index: int = 0):
        _check_demand(net, demand)
        self.net = net
        self.index = index
        self.by_origin = demand.by_origin
        # whether any trip leaves its zone; intrazonal trips load no link
        self.travels = any(dest != origin for origin, dests in self.by_origin for dest, _ in dests)
        self.from_nodes = [l.from_node for l in net.links]
        self.tails = np.array(self.from_nodes, dtype=np.int64)
        self.beckmann: list[float] = []
        self.gaps: list[float] = []
        self.steps: list[float] = []


def _check_demand(net: Network, demand: DemandMatrix) -> None:
    for (r, s), _ in demand.entries.items():
        if r > net.zone_count or s > net.zone_count:
            raise DataError(
                f"demand pair ({r},{s}) lies outside the zone range 1..{net.zone_count}"
            )


def _load_chunk(problem, costs, chunk):
    """AON-load every origin in `chunk` under the cost array `costs` with
    the per-origin kernel, walking each O-D pair's path in Python; returns a
    dense flow vector."""
    net = problem.net
    cost_list = costs.tolist()
    adj, n, first_thru = net.adjacency, net.node_count, net.first_thru_node
    flows = [0.0] * len(net.links)
    from_nodes = problem.from_nodes
    limit = net.node_count + 1
    for origin, dests in chunk:
        dist, pred = _bellman_ford(n, adj, cost_list, origin, first_thru)
        for dest, q in dests:
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
    return np.array(flows, dtype=float)


class _Pairs:
    """One loading call's O-D pairs as arrays, for `_load_trees`.

    One tree row per origin of the call and one pair per O-D pair that
    leaves its zone (intrazonal trips load no link and always have a path),
    in problem order and each problem in its `by_origin` order.  A pair is
    kept as its destination's place in the trees (row times the graph's
    width plus the node) and its trips, 16 bytes, plus its chunk when the
    call holds more than one."""

    def __init__(self, graph: _BatchGraph, tails: np.ndarray, parts: Sequence[list]):
        self.graph = graph
        self.tails = tails
        rows = [len(part) for part in parts]
        self.row_ends = [0, *accumulate(rows)]
        self.origins = np.array([o for part in parts for o, _ in part], dtype=np.int64)
        self.owners = np.repeat(np.arange(len(parts)), rows)
        trips = [[(d, q) for d, q in dests if d != o] for part in parts for o, dests in part]
        counts = [len(row) for row in trips]
        ends = [0, *accumulate(counts)]
        self.pair_ends = [ends[end] for end in self.row_ends]
        row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        self.at = row * graph.width + np.array([d for row in trips for d, _ in row], dtype=np.int64)
        self.q = np.array([q for row in trips for _, q in row], dtype=float)
        self.chunks = -(-max(rows) // _CHUNK)
        self.chunk = None
        if self.chunks > 1:
            # each pair's chunk in the call: its origin's place in its
            # problem's part, by _CHUNK
            place = np.arange(len(counts)) - np.repeat(self.row_ends[:-1], rows)
            self.chunk = (place // _CHUNK)[row]


def _load_trees(pairs: _Pairs, costs: np.ndarray, stop: int):
    """The array path of AON loading: the flows of one call's chunks of the
    first `stop` problems under `costs`, one row per chunk over all of the
    problems' links (zeros elsewhere).

    Trees for every row come from one `_trees_for_origins` call, then every
    O-D pair walks up its tree together with the others, one link per pass.
    A stable sort by pair puts the (pair, link) entries in the per-origin
    walk's order, and bincount adds their weights one by one in input order
    into (chunk, link) bins, so each link's load in a chunk is summed in the
    Python walk's order.  Returns ``(loads, failed, error)``: `failed` is
    the first problem, in order, with a demanded pair that has no path or
    whose walk does not end, and `error` names that pair; they are `stop`
    and None when there is none.
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
    pair = np.concatenate(walked)
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    links = len(tails)
    bins = np.concatenate(taken)[order]
    if pairs.chunk is not None:
        bins += pairs.chunk[pair] * links
    loads = np.bincount(bins, weights=pairs.q[pair], minlength=pairs.chunks * links)
    return loads.reshape(pairs.chunks, links), failed, error


class _Call:
    """One AON loading call of a batch: chunks `first` up to `end` of every
    problem, their origins ``first * _CHUNK`` up to ``end * _CHUNK`` in
    `by_origin` order.  It takes the array path (`_load_trees`) once its
    origins times links reach _ARRAY_TREES_MIN_WORK, or _ARRAY_BATCH_MIN_WORK
    when it holds origins of two or more problems; otherwise each problem's
    chunks go through the per-origin kernel in turn (`_load_chunk`)."""

    def __init__(self, problems: Sequence[_Problem], first: int, end: int):
        self.parts = [problem.by_origin[first * _CHUNK : end * _CHUNK] for problem in problems]
        rows = [len(part) for part in self.parts]
        self.row_ends = [0, *accumulate(rows)]
        work = sum(count * len(problem.net.links) for count, problem in zip(rows, problems))
        batched = len(rows) - rows.count(0) > 1
        self.array = work >= (_ARRAY_BATCH_MIN_WORK if batched else _ARRAY_TREES_MIN_WORK)
        self.pairs = None  # built on the first array-path load


class _Loader:
    """AON loading of a batch's problems in calls (`_Call`) of whole chunk
    indices, each chunk's flows added in chunk order, as the per-origin
    kernel of one problem alone adds them.  A call takes as many chunk
    indices as keep its origins and O-D pairs times the widest network's
    nodes within _CALL_MAX_CELLS, and at least one: that bounds the array
    path's trees and its walk, which takes at most one entry per pair and
    node.  A lone large network thus loads chunk by chunk, while a batch of
    small networks loads in one call."""

    def __init__(self, problems: Sequence[_Problem], slices: Sequence[slice]):
        self.problems = problems
        self.slices = slices
        chunks = -(-max(len(problem.by_origin) for problem in problems) // _CHUNK)
        cuts = [0]
        if chunks > 1:
            width = max(problem.net.node_count for problem in problems) + 1
            sizes = [0] * chunks
            for problem in problems:
                for i, (_, dests) in enumerate(problem.by_origin):
                    sizes[i // _CHUNK] += (1 + len(dests)) * width
            cells = 0
            for c, size in enumerate(sizes):
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
        flows, failed, error = None, stop, None
        for call in self.calls:
            if not call.row_ends[failed]:  # no origins this far out before `failed`
                break
            loads, k, exc = self._load(call, costs, failed)
            if exc is not None:
                failed, error = k, exc
            if loads is None:
                break
            for load in loads:
                if flows is None:
                    flows = load
                else:
                    flows += load
        return (np.zeros(len(costs)) if flows is None else flows), failed, error

    def _load(self, call: _Call, costs: np.ndarray, stop: int):
        """The flows of `call` for the problems before `stop`, one vector
        over all the problems' links per chunk, in chunk order, or None when
        an error left nothing loaded; then `failed` and `error` as in
        `__call__`."""
        if call.array:
            if call.pairs is None:
                if self.graph is None:
                    self.graph = _BatchGraph([problem.net for problem in self.problems])
                    self.tails = np.concatenate([problem.tails for problem in self.problems])
                call.pairs = _Pairs(self.graph, self.tails, call.parts)
            try:
                return _load_trees(call.pairs, costs, stop)
            except Exception as exc:  # no one pair's fault: the first problem loaded takes it
                return None, next(k for k in range(stop) if call.parts[k]), exc
        if len(self.problems) == 1:  # its chunk flows are the whole vector
            problem, part = self.problems[0], call.parts[0]
            try:
                loads = [_load_chunk(problem, costs, part[i : i + _CHUNK]) for i in range(0, len(part), _CHUNK)]
                return loads, 1, None
            except Exception as exc:
                return None, 0, exc
        loads = np.zeros((-(-max(map(len, call.parts)) // _CHUNK), len(costs)))
        for k in range(stop):
            s, part = self.slices[k], call.parts[k]
            try:
                for i in range(0, len(part), _CHUNK):
                    loads[i // _CHUNK, s] = _load_chunk(self.problems[k], costs[s], part[i : i + _CHUNK])
            except Exception as exc:
                return loads, k, exc
        return loads, stop, None


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


def _line_search(arrays: _LinkArrays, flows: np.ndarray, direction: np.ndarray) -> list[float]:
    """Exact step length for the Beckmann objective along `direction`, one
    per network of `arrays`.

    g'(lam) = direction . l(flows + lam * direction) is nondecreasing in lam
    (convex objective), so [0, 1] brackets its root whenever g'(0) < 0 < g'(1).
    Newton steps on g' use g''(lam) = sum direction^2 l'(flows + lam *
    direction); a step that leaves the bracket, or a non-positive g'', is
    replaced by bisection.  Stops when the bracket or the Newton step is
    narrower than _STEP_TOL, or g' is exactly zero.  The networks search in
    lock-step, each with its own bracket and branches: every round
    evaluates all their trial points in one pass over the links.
    """
    count = len(arrays.dots)
    steps = [0.0] * count
    lam = [0.0] * count
    g0 = arrays.inner(direction, arrays.latencies(flows + arrays.spread(lam) * direction))
    going = [k for k in range(count) if not g0[k] >= 0.0]
    if not going:
        return steps
    lam = [1.0] * count
    g1 = arrays.inner(direction, arrays.latencies(flows + arrays.spread(lam) * direction), going)
    lo, hi = [0.0] * count, [1.0] * count
    bracketed = []
    for k, g in zip(going, g1):
        if g <= 0.0:
            steps[k] = 1.0
        else:
            lam[k] = g0[k] / (g0[k] - g)  # secant through the bracket ends
            bracketed.append(k)
    going = bracketed
    d2 = direction * direction if going else None
    for _ in range(_LINE_SEARCH_MAX_STEPS):
        if not going:
            break
        x = flows + arrays.spread(lam) * direction
        curving, gs = [], []
        for k, g in zip(going, arrays.inner(direction, arrays.latencies(x), going)):
            if g == 0.0:
                steps[k] = lam[k]
                continue
            if g < 0.0:
                lo[k] = lam[k]
            else:
                hi[k] = lam[k]
            if hi[k] - lo[k] < _STEP_TOL:
                steps[k] = 0.5 * (lo[k] + hi[k])
                continue
            curving.append(k)
            gs.append(g)
        going = []
        if not curving:
            break
        for k, g, h in zip(curving, gs, arrays.inner(d2, arrays.slopes(x), curving)):
            newton = lam[k] - g / h if h > 0.0 else math.nan
            if not lo[k] < newton < hi[k]:  # outside the bracket, or no usable g''
                lam[k] = 0.5 * (lo[k] + hi[k])
            elif abs(newton - lam[k]) < _STEP_TOL:
                steps[k] = newton
                continue
            else:
                lam[k] = newton
            going.append(k)
    for k in going:
        steps[k] = 0.5 * (lo[k] + hi[k])
    return steps


def _direction_weights(
    arrays: _LinkArrays,
    flows: np.ndarray,
    aon_flows: np.ndarray,
    points: tuple[np.ndarray, ...],
    taus: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Weights (b0, b1, b2) of the bi-conjugate point b0 y + b1 s1 + b2 s2,
    one triple per network of `arrays`.

    `points` holds the last two points s1, s2 (fewer in the first two
    iterations) and `taus` the step lengths taken towards s1.  The weights
    are non-negative, sum to 1, and b0 is at least _CONJUGATE_MARGIN.
    """
    if not points:
        return [(1.0, 0.0, 0.0)] * len(arrays.slices)
    slope = arrays.slopes(flows)
    s1 = points[0]
    dfw = aon_flows - flows
    hdb = slope * (s1 - flows)
    top = 1.0 - _CONJUGATE_MARGIN
    a = [
        min(max(0.0 if den == 0.0 else num / den, 0.0), top)
        for den, num in zip(arrays.inner(hdb, aon_flows - s1), arrays.inner(hdb, dfw))
    ]
    mu = [0.0] * len(a)
    bent = [k for k, tau in enumerate(taus) if 0.0 < tau < 1.0] if len(points) == 2 else []
    if bent:
        # built in place: fewer link-length temporaries, which otherwise
        # fragment the heap and raise the peak resident set on large grids
        tau = arrays.spread(taus)
        hdbb = tau * s1
        hdbb -= flows
        hdbb += (1.0 - tau) * points[1]
        hdbb *= slope
        dens = arrays.inner(hdbb, points[1] - s1, bent)
        for k, den, num in zip(bent, dens, arrays.inner(hdbb, dfw, bent)):
            if den != 0.0:
                mu[k] = max(-num / den, 0.0)
    cap = (1.0 - _CONJUGATE_MARGIN) / _CONJUGATE_MARGIN  # mu + nu at which b0 = margin
    weights = []
    for a_k, mu_k, tau_k in zip(a, mu, taus):
        if mu_k == 0.0:
            weights.append((1.0 - a_k, a_k, 0.0))
            continue
        nu = a_k / (1.0 - a_k) + mu_k * tau_k / (1.0 - tau_k)
        if mu_k + nu > cap:
            mu_k, nu = mu_k * cap / (mu_k + nu), nu * cap / (mu_k + nu)
        b0 = 1.0 / (1.0 + mu_k + nu)
        weights.append((b0, nu * b0, mu_k * b0))
    return weights


def _solve_batch(
    problems: Sequence[tuple[Network, DemandMatrix]], settings: SolverSettings
) -> Iterator[Assignment]:
    """Bi-conjugate Frank-Wolfe on several (network, demand) problems in lock-step.

    Yields the problems' Assignments in problem order, each as soon as it
    and every problem before it are done.  Every elementwise step runs once
    over the links of all problems still iterating, end to end; AON
    loading, inner products, sums, branches and histories stay per problem,
    so each Assignment is bit-identical to the problem's solve alone.  A
    problem leaves the batch when it converges or reaches the iteration
    cap.  If a problem raises, the problems before it still finish and are
    yielded, the ones after it are dropped, and then its error is raised.
    """
    finished: list[Assignment | None] = [None] * len(problems)
    cut, error = len(problems), None  # problems from `cut` on are dropped; `error` stopped problem `cut`
    live = []
    for index, (net, demand) in enumerate(problems):
        try:
            problem = _Problem(net, demand, index)
        except Exception as exc:
            cut, error = index, exc
            break
        if problem.travels:
            live.append(problem)
        else:
            zeros = np.zeros(len(net.links), dtype=float)
            finished[index] = Assignment(
                flows=zeros,
                latencies=_LinkArrays([net]).latencies(zeros),
                vht=0.0,
                relative_gap=0.0,
                iterations=0,
            )
    if live:
        arrays = _LinkArrays([problem.net for problem in live])
        loader = _Loader(live, arrays.slices)
        freeflow = arrays.latencies(np.zeros(arrays.slices[-1].stop, dtype=float))
        flows, failed, exc = loader(freeflow, len(live))
        if exc is not None:
            cut, error = live[failed].index, exc
            live = live[:failed]
            if live:
                arrays = _LinkArrays([problem.net for problem in live])
                loader = _Loader(live, arrays.slices)
                flows = flows[: arrays.slices[-1].stop]
        del freeflow  # not held through the iterations

    points: tuple[np.ndarray, ...] = ()
    taus = [0.0] * len(live)
    iteration = 0
    out = 0  # problems yielded
    while True:
        while out < cut and finished[out] is not None:
            yield finished[out]
            finished[out] = None
            out += 1
        if not live:
            break
        iteration += 1
        lat = arrays.latencies(flows)
        beckmann = arrays.beckmann(flows)
        # problems from the first with a non-finite latency on are not loaded
        stop = len(live)
        if not np.isfinite(lat).all():
            stop = next(k for k, s in enumerate(arrays.slices) if not np.isfinite(lat[s]).all())
        aon_flows, failed, exc = loader(lat, stop)
        if exc is None and stop < len(live):
            s = arrays.slices[stop]
            link = live[stop].net.links[int(np.argmax(~np.isfinite(lat[s])))]
            exc = SolverError(f"non-finite latency on link {link.from_node}->{link.to_node}")
        going = []
        for k, (problem, s) in enumerate(zip(live, arrays.slices)):
            try:
                if k == failed:
                    raise exc
                gap = relative_gap(flows[s], lat[s], aon_flows[s])
            except Exception as caught:
                cut, error = problem.index, caught
                break
            problem.gaps.append(gap)
            problem.beckmann.append(beckmann[k])
            if gap <= settings.target_gap or iteration == settings.max_iters:
                finished[problem.index] = Assignment(
                    flows=flows[s],
                    latencies=lat[s],
                    vht=float(arrays.dots[k](flows[s], lat[s])),
                    relative_gap=gap,
                    iterations=iteration,
                    beckmann_history=problem.beckmann,
                    gap_history=problem.gaps,
                    step_sizes=problem.steps,
                )
            else:
                going.append(k)
        if len(going) < len(live):
            # the finished, failed and dropped problems leave the batch
            if not going:
                live = []
                continue
            keep = np.zeros(len(live), dtype=bool)
            keep[going] = True
            links = keep[arrays.owner]
            flows = flows[links]
            aon_flows = aon_flows[links]
            points = tuple(point[links] for point in points)
            live = [live[k] for k in going]
            taus = [taus[k] for k in going]
            arrays = _LinkArrays([problem.net for problem in live])
            loader = _Loader(live, arrays.slices)

        b0, *bs = zip(*_direction_weights(arrays, flows, aon_flows, points, taus))
        point = arrays.spread(b0) * aon_flows
        for b, s in zip(bs, points):
            point += arrays.spread(b) * s
        points = (point,) + points[:1]
        direction = point - flows
        taus = _line_search(arrays, flows, direction)
        for problem, lam in zip(live, taus):
            problem.steps.append(lam)
        flows = flows + arrays.spread(taus) * direction
    if error is not None:
        raise error


def solve_with(net: Network, demand: DemandMatrix, settings: SolverSettings) -> Assignment:
    """Bi-conjugate Frank-Wolfe user-equilibrium assignment.

    Iterates until the relative gap reaches `settings.target_gap` or
    `settings.max_iters` direction computations have been spent; the reported
    gap always describes the returned flows.
    """
    (assignment,) = _solve_batch([(net, demand)], settings)
    return assignment


def format_flow_file(net: Network, assignment: Assignment) -> str:
    """Flow table text: a one-line summary header, then `from to volume cost` rows."""
    lines = [
        f"~ vht {assignment.vht:.6f} relative_gap {assignment.relative_gap:.12e} "
        f"iterations {assignment.iterations}"
    ]
    for link, volume, cost in zip(net.links, assignment.flows, assignment.latencies):
        lines.append(f"{link.from_node} {link.to_node} {volume:.9f} {cost:.9f}")
    return "\n".join(lines) + "\n"


def write_flow_file(path: str, net: Network, assignment: Assignment) -> None:
    with open(path, "w") as fh:
        fh.write(format_flow_file(net, assignment))
