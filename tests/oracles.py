"""Reference implementations the suite checks the package against.

Everything here favours obviousness over speed: full relaxation sweeps,
bisection equilibria, exhaustive enumeration, and a label-setting Dijkstra
to check the package's label-correcting Bellman-Ford against.
"""

import math
from heapq import heappop, heappush
from itertools import combinations, product

from roadworks import (
    better_assignment,
    better_selection,
    evaluate_selection,
    schedule_npv,
)


def bellman_ford_labels(net, costs, source):
    """Distance labels by |V|-1 full arc sweeps.

    Arcs leaving a node below first_thru_node relax only when that node is
    the source itself, mirroring the centroid convention.
    """
    inf = math.inf
    dist = [inf] * (net.node_count + 1)
    dist[source] = 0.0
    arcs = [
        (link.from_node, link.to_node, costs[i]) for i, link in enumerate(net.links)
    ]
    for _ in range(net.node_count - 1):
        changed = False
        for u, v, c in arcs:
            if u != source and u < net.first_thru_node:
                continue
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            break
    return {v: dist[v] for v in range(1, net.node_count + 1)}


def dijkstra(n, adj, costs, source, first_thru):
    """Binary-heap Dijkstra with the package's tree conventions.

    Takes and returns what ``roadworks.shortest_path._bellman_ford`` does:
    ``(dist, pred)`` lists indexed by node, +inf and -1 where unreachable.
    Centroids below ``first_thru`` never relay, and equal labels keep the
    lower link index, so the tree must equal Bellman-Ford's.
    """
    dist = [math.inf] * (n + 1)
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


def latency(link, flow):
    return link.free_flow_time * (1.0 + link.alpha * (flow / link.capacity) ** link.beta)


def two_link_flows(net, demand, steps=200):
    """Equilibrium split for two parallel links carrying one O-D demand.

    Bisection on h(x) = l1(x) - l2(D - x), which is non-decreasing in x;
    corners are checked first.
    """
    assert len(net.links) == 2
    a, b = net.links
    if latency(a, demand) <= latency(b, 0.0):
        return demand, 0.0
    if latency(b, demand) <= latency(a, 0.0):
        return 0.0, demand
    lo, hi = 0.0, demand
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if latency(a, mid) < latency(b, demand - mid):
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return x, demand - x


def independent_gap(net, demand, flows):
    """Relative gap recomputed from scratch (own latencies, own shortest paths)."""
    costs = [latency(link, f) for link, f in zip(net.links, flows)]
    total = sum(f * c for f, c in zip(flows, costs))
    aon_total = 0.0
    by_origin = {}
    for (r, s), q in demand.entries.items():
        if q > 0:
            by_origin.setdefault(r, []).append((s, q))
    for r, dests in by_origin.items():
        labels = bellman_ford_labels(net, costs, r)
        for s, q in dests:
            aon_total += q * labels[s]
    return (total - aon_total) / total


def exhaustive_best_subset(problem):
    """Argmax of the canonical objective by brute force over all subsets."""
    best = evaluate_selection(problem, ())
    n = len(problem.ids)
    for r in range(1, n + 1):
        for subset in combinations(problem.ids, r):
            sel = evaluate_selection(problem, subset)
            if sel.spend <= problem.budget and better_selection(sel, best):
                best = sel
    return best


def knapsack_best_value(profits, costs, budget):
    """Max total profit of a 0/1 knapsack, integer costs and profits."""
    dp = [0] * (budget + 1)
    for p, c in zip(profits, costs):
        if p <= 0 or c > budget:
            continue
        for b in range(budget, c - 1, -1):
            if dp[b - c] + p > dp[b]:
                dp[b] = dp[b - c] + p
    return max(dp)


def exhaustive_best_schedule(period_values, period_pairs, upgrades, horizon):
    """Best feasible assignment by enumerating (T+1)^N build periods."""
    ids = sorted(upgrades.ids)
    costs = [upgrades.by_id[i].cost for i in ids]
    T = horizon.T
    best_npv = 0.0
    best_assign = {}
    for choice in product(range(T + 1), repeat=len(ids)):
        spend = [0.0] * (T + 1)
        for c, t in zip(costs, choice):
            if t:
                spend[t] += c
        if any(spend[t] > horizon.budgets[t - 1] for t in range(1, T + 1)):
            continue
        assign = {i: t for i, t in zip(ids, choice) if t}
        npv = schedule_npv(period_values, period_pairs, upgrades, horizon, assign)
        if better_assignment(npv, assign, best_npv, best_assign):
            best_npv = npv
            best_assign = assign
    return best_npv, best_assign


def wcss_of(points, assign, k):
    total = 0.0
    for j in range(k):
        members = [p for p, a in zip(points, assign) if a == j]
        if not members:
            continue
        cx = sum(p[0] for p in members) / len(members)
        cy = sum(p[1] for p in members) / len(members)
        total += sum((p[0] - cx) ** 2 + (p[1] - cy) ** 2 for p in members)
    return total


def best_partition_wcss(points, k):
    """Globally optimal k-cluster WCSS by enumerating every assignment."""
    best = math.inf
    for assign in product(range(k), repeat=len(points)):
        best = min(best, wcss_of(points, assign, k))
    return best
