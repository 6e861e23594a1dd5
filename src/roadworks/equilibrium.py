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

Determinism contract: a solve runs on one thread, and the same inputs give
bit-identical flows.  Origins are loaded in chunks of _CHUNK in a fixed
order and the chunk flows are summed in that order.  A chunk's trees come
from Bellman-Ford in one of two forms, the per-origin kernel or, on large
inputs, the array path, and both build the same trees.  Each form has its
loader, a Python walk or numpy passes, and both add each link's loads in the
same order, pair by pair and each pair from its destination up, so the flows
do not depend on which tree path ran.  Inner products of
link vectors never call BLAS from _BLAS_FREE_MIN_LINKS links on, where
OpenBLAS would split them over threads, so flows do not depend on the BLAS
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, SolverError
from .network import DemandMatrix, Link, Network
from .shortest_path import _bellman_ford, _checked_costs, _trees_for_origins

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

# Origins per loading chunk.  It fixes the order in which chunk flows are
# summed and the number of origins the array path takes at once, so any
# other value changes the flows in their last bits.
_CHUNK = 16

# Origins times links from which a chunk's trees come from the array path
# (_trees_for_origins, all origins of the chunk at once, loaded by
# _load_trees) instead of one per-origin kernel call each and the Python walk.
# Measured on square grids from 440 to 32k links (trees and loading, 25
# zones), the two break even at 7k-15k for chunks of 16 origins and at
# 16k-32k for chunks of 1 to 8; the Sioux Falls (16 x 76) and desk (1 x 6)
# chunks stay far below.
_ARRAY_TREES_MIN_WORK = 16384

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
    """Per-link BPR parameters as numpy columns, and the inner product of
    link vectors for this link count."""

    def __init__(self, net: Network):
        self.t = np.array([l.free_flow_time for l in net.links], dtype=float)
        self.cap = np.array([l.capacity for l in net.links], dtype=float)
        self.alpha = np.array([l.alpha for l in net.links], dtype=float)
        self.beta = np.array([l.beta for l in net.links], dtype=float)
        self.from_nodes = [l.from_node for l in net.links]
        self.tails = np.array(self.from_nodes, dtype=np.int64)
        self.dot = _link_dot(len(net.links))

    def latencies(self, flows: np.ndarray) -> np.ndarray:
        return self.t * (1.0 + self.alpha * np.power(flows / self.cap, self.beta))

    def slopes(self, flows: np.ndarray) -> np.ndarray:
        """l'(f), the diagonal of the Beckmann Hessian; non-finite slopes
        (zero flow with beta < 1) read as 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            s = self.t * self.alpha * self.beta * np.power(flows / self.cap, self.beta - 1.0) / self.cap
        return np.where(np.isfinite(s), s, 0.0)

    def beckmann(self, flows: np.ndarray) -> float:
        terms = self.t * flows + self.t * self.alpha * np.power(flows, self.beta + 1.0) / (
            (self.beta + 1.0) * np.power(self.cap, self.beta)
        )
        return float(np.sum(terms))


def _check_demand(net: Network, demand: DemandMatrix) -> None:
    for (r, s), _ in demand.entries.items():
        if r > net.zone_count or s > net.zone_count:
            raise DataError(
                f"demand pair ({r},{s}) lies outside the zone range 1..{net.zone_count}"
            )


def _load_chunk(net, arrays, costs, chunk):
    """AON-load every origin in `chunk` under the cost array `costs`; returns
    a dense flow vector.  Small chunks take the per-origin kernel and walk
    each O-D pair's path in Python, large ones the array path and
    `_load_trees`; both give the same flows to the bit."""
    if len(chunk) * len(net.links) >= _ARRAY_TREES_MIN_WORK:
        return _load_trees(net, arrays, costs, chunk)
    cost_list = costs.tolist()
    adj, n, first_thru = net.adjacency, net.node_count, net.first_thru_node
    flows = [0.0] * len(net.links)
    from_nodes = arrays.from_nodes
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


def _load_trees(net, arrays, costs, chunk):
    """The array path of `_load_chunk`: trees from `_trees_for_origins`, then
    every O-D pair of the chunk walks up its tree together with the others,
    one link per pass.  A stable sort by pair index puts the (pair, link)
    entries in the per-origin walk's order, and bincount adds its weights one
    by one in input order, so each link's loads are summed in the Python
    walk's order."""
    origins = [origin for origin, _ in chunk]
    dist, pred = _trees_for_origins(net, costs, origins)
    width = net.node_count + 1
    counts = [len(dests) for _, dests in chunk]
    row = np.repeat(np.arange(len(chunk)), counts)
    dest = np.array([d for _, dests in chunk for d, _ in dests], dtype=np.int64)
    q = np.array([q for _, dests in chunk for _, q in dests], dtype=float)
    origin = np.repeat(np.asarray(origins, dtype=np.int64), counts)
    missing = ~np.isfinite(dist[row, dest])
    if missing.any():
        i = int(np.argmax(missing))
        raise SolverError(f"no path for demanded O-D pair ({origin[i]},{dest[i]})")
    pred = pred.ravel()
    tails = arrays.tails
    pair = np.flatnonzero(dest != origin)
    base, node, goal = row[pair] * width, dest[pair], origin[pair]
    pairs, links = [pair], [pred[base + node]]
    for _ in range(net.node_count):
        node = tails[links[-1]]
        going = node != goal
        if not going.any():
            break
        pair, base, node, goal = pair[going], base[going], node[going], goal[going]
        pairs.append(pair)
        links.append(pred[base + node])
    else:
        i = int(pairs[-1][0])
        raise SolverError(f"predecessor walk did not terminate for pair ({origin[i]},{dest[i]})")
    pair = np.concatenate(pairs)
    order = np.argsort(pair, kind="stable")
    return np.bincount(np.concatenate(links)[order], weights=q[pair[order]], minlength=len(net.links))


def _aon(net, arrays, costs, by_origin):
    total = np.zeros(len(net.links), dtype=float)
    for i in range(0, len(by_origin), _CHUNK):
        total += _load_chunk(net, arrays, costs, by_origin[i : i + _CHUNK])
    return total


def all_or_nothing(
    net: Network,
    demand: DemandMatrix,
    link_costs: Sequence[float],
) -> np.ndarray:
    """Load all demand onto shortest paths under fixed link costs."""
    _check_demand(net, demand)
    return _aon(net, _LinkArrays(net), _checked_costs(net, link_costs), demand.by_origin)


def _line_search(arrays: _LinkArrays, flows: np.ndarray, direction: np.ndarray) -> float:
    """Exact step length for the Beckmann objective along `direction`.

    g'(lam) = direction . l(flows + lam * direction) is nondecreasing in lam
    (convex objective), so [0, 1] brackets its root whenever g'(0) < 0 < g'(1).
    Newton steps on g' use g''(lam) = sum direction^2 l'(flows + lam *
    direction); a step that leaves the bracket, or a non-positive g'', is
    replaced by bisection.  Stops when the bracket or the Newton step is
    narrower than _STEP_TOL, or g' is exactly zero.
    """

    def gprime(lam: float) -> float:
        return float(arrays.dot(direction, arrays.latencies(flows + lam * direction)))

    g0 = gprime(0.0)
    if g0 >= 0.0:
        return 0.0
    g1 = gprime(1.0)
    if g1 <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    lam = g0 / (g0 - g1)  # secant through the bracket ends
    d2 = direction * direction
    for _ in range(_LINE_SEARCH_MAX_STEPS):
        x = flows + lam * direction
        g = float(arrays.dot(direction, arrays.latencies(x)))
        if g == 0.0:
            return lam
        if g < 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo < _STEP_TOL:
            break
        h = float(arrays.dot(d2, arrays.slopes(x)))
        newton = lam - g / h if h > 0.0 else math.nan
        if not lo < newton < hi:  # outside the bracket, or no usable g''
            lam = 0.5 * (lo + hi)
        elif abs(newton - lam) < _STEP_TOL:
            return newton
        else:
            lam = newton
    return 0.5 * (lo + hi)


def _direction_weights(
    arrays: _LinkArrays,
    flows: np.ndarray,
    aon_flows: np.ndarray,
    points: tuple[np.ndarray, ...],
    tau: float,
) -> tuple[float, float, float]:
    """Weights (b0, b1, b2) of the bi-conjugate point b0 y + b1 s1 + b2 s2.

    `points` holds the last two points s1, s2 (fewer in the first two
    iterations) and `tau` is the step length taken towards s1.  The weights
    are non-negative, sum to 1, and b0 is at least _CONJUGATE_MARGIN.
    """
    if not points:
        return 1.0, 0.0, 0.0
    slope = arrays.slopes(flows)
    s1 = points[0]
    dfw = aon_flows - flows
    hdb = slope * (s1 - flows)
    den = float(arrays.dot(hdb, aon_flows - s1))
    a = 0.0 if den == 0.0 else float(arrays.dot(hdb, dfw)) / den
    a = min(max(a, 0.0), 1.0 - _CONJUGATE_MARGIN)
    mu = 0.0
    if len(points) == 2 and 0.0 < tau < 1.0:
        # built in place: fewer link-length temporaries, which otherwise
        # fragment the heap and raise the peak resident set on large grids
        hdbb = tau * s1
        hdbb -= flows
        hdbb += (1.0 - tau) * points[1]
        hdbb *= slope
        den = float(arrays.dot(hdbb, points[1] - s1))
        if den != 0.0:
            mu = max(-float(arrays.dot(hdbb, dfw)) / den, 0.0)
    if mu == 0.0:
        return 1.0 - a, a, 0.0
    nu = a / (1.0 - a) + mu * tau / (1.0 - tau)
    cap = (1.0 - _CONJUGATE_MARGIN) / _CONJUGATE_MARGIN  # mu + nu at which b0 = margin
    if mu + nu > cap:
        mu, nu = mu * cap / (mu + nu), nu * cap / (mu + nu)
    b0 = 1.0 / (1.0 + mu + nu)
    return b0, nu * b0, mu * b0


def solve_with(net: Network, demand: DemandMatrix, settings: SolverSettings) -> Assignment:
    """Bi-conjugate Frank-Wolfe user-equilibrium assignment.

    Iterates until the relative gap reaches `settings.target_gap` or
    `settings.max_iters` direction computations have been spent; the reported
    gap always describes the returned flows.
    """
    _check_demand(net, demand)

    arrays = _LinkArrays(net)
    m = len(net.links)
    by_origin = demand.by_origin
    if not by_origin:
        zeros = np.zeros(m, dtype=float)
        return Assignment(
            flows=zeros,
            latencies=arrays.latencies(zeros),
            vht=0.0,
            relative_gap=0.0,
            iterations=0,
        )

    freeflow = arrays.latencies(np.zeros(m, dtype=float))
    flows = _aon(net, arrays, freeflow, by_origin)

    beck_hist: list[float] = []
    gap_hist: list[float] = []
    steps: list[float] = []
    points: tuple[np.ndarray, ...] = ()
    lam = 0.0
    for iteration in range(1, settings.max_iters + 1):
        lat = arrays.latencies(flows)
        if not np.all(np.isfinite(lat)):
            bad = int(np.argmax(~np.isfinite(lat)))
            link = net.links[bad]
            raise SolverError(f"non-finite latency on link {link.from_node}->{link.to_node}")
        aon_flows = _aon(net, arrays, lat, by_origin)
        gap = relative_gap(flows, lat, aon_flows)
        gap_hist.append(gap)
        beck_hist.append(arrays.beckmann(flows))
        if gap <= settings.target_gap or iteration == settings.max_iters:
            return Assignment(
                flows=flows,
                latencies=lat,
                vht=float(arrays.dot(flows, lat)),
                relative_gap=gap,
                iterations=iteration,
                beckmann_history=beck_hist,
                gap_history=gap_hist,
                step_sizes=steps,
            )
        weights = _direction_weights(arrays, flows, aon_flows, points, lam)
        point = weights[0] * aon_flows
        for w, s in zip(weights[1:], points):
            point += w * s
        points = (point,) + points[:1]
        direction = point - flows
        lam = _line_search(arrays, flows, direction)
        steps.append(lam)
        flows = flows + lam * direction
    raise AssertionError("unreachable")  # loop always returns


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
