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
search, and the histories stay per problem.  Each iteration's AON point comes
from one loader over every problem still iterating (`shortest_path._Loader`,
which owns the trees, the loading and the choice of their path).  A problem
leaves the batch when it converges or reaches its iteration cap.  Subset
tables batch their missing subsets this way, so that many small solves share
the cost of each numpy call.

Determinism contract: solves run on one thread, and the same inputs give
bit-identical flows, alone or in any batch: elementwise results do not
depend on where a link sits in the batch, each problem's reductions run
over its own slice, and its AON flows depend neither on the loading path nor
on the batch around it (`shortest_path`).  Inner products of link vectors
never call BLAS from _BLAS_FREE_MIN_LINKS links on, where OpenBLAS would
split them over threads, so flows do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, SolverError
from .network import DemandMatrix, Link, Network
from .shortest_path import _Loader, _Problem

__all__ = [
    "Assignment",
    "SolverSettings",
    "bpr_latency",
    "bpr_integral",
    "relative_gap",
    "vht",
    "solve_with",
    "write_flow_file",
    "format_flow_file",
]

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
        if not 0 < self.target_gap < math.inf:
            raise DataError("target_gap must be positive and finite")
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
        self.t, self.cap, self.alpha, self.beta = (
            np.concatenate([getattr(net.columns, name) for net in nets])
            for name in ("free_flow_time", "capacity", "alpha", "beta")
        )
        # the leading factors of `slopes` and `beckmann`, in their order of
        # evaluation, so the results stay the same to the bit
        self.slope_scale = self.t * self.alpha * self.beta
        self.t_alpha = self.t * self.alpha
        self.beck_scale = (self.beta + 1.0) * np.power(self.cap, self.beta)
        counts = [net.link_count for net in nets]
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


class _Solve(_Problem):
    """One problem of a batch: what its AON loading reads, its place in the
    batch and its histories."""

    def __init__(self, net: Network, demand: DemandMatrix, index: int):
        super().__init__(net, demand)
        self.index = index
        self.beckmann: list[float] = []
        self.gaps: list[float] = []
        self.steps: list[float] = []


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
            problem = _Solve(net, demand, index)
        except Exception as exc:
            cut, error = index, exc
            break
        if demand._travels:
            live.append(problem)
        else:
            zeros = np.zeros(net.link_count, dtype=float)
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
            exc = SolverError(f"non-finite latency on link {live[stop].net._name(int(np.argmax(~np.isfinite(lat[s]))))}")
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
    c = net.columns
    lines += [
        f"{u} {v} {volume:.9f} {cost:.9f}"
        for u, v, volume, cost in zip(c.from_node.tolist(), c.to_node.tolist(),
                                      assignment.flows.tolist(), assignment.latencies.tolist())
    ]
    return "\n".join(lines) + "\n"


def write_flow_file(path: str, net: Network, assignment: Assignment) -> None:
    with open(path, "w") as fh:
        fh.write(format_flow_file(net, assignment))
