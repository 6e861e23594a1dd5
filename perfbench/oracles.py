"""Checks of the program's outputs against computations made apart from it.

Nothing here calls into roadworks: the TNTP and delta-cache readers, the BPR
latency, Dijkstra, the two-route bisection and the exhaustive enumerations are
the benchmark's own.  Every check returns a list of failure messages, empty
when the output passes.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
from itertools import combinations

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Readers


def read_links(text: str) -> tuple[dict[str, int], list[tuple[int, int, float, float, float, float]]]:
    """TNTP link file -> (metadata, [(from, to, capacity, fftime, alpha, beta)])."""
    meta: dict[str, int] = {}
    links = []
    in_body = False
    for raw in text.splitlines():
        line = raw.split("~", 1)[0].strip()
        if not line:
            continue
        if not in_body:
            if line.upper().startswith("<END OF METADATA>"):
                in_body = True
            elif line.startswith("<"):
                key, _, value = line[1:].partition(">")
                with contextlib.suppress(ValueError):  # tags such as <ORIGINAL HEADER> carry text
                    meta[key.strip().upper()] = int(float(value))
            continue
        f = line.rstrip(";").split()
        links.append((int(f[0]), int(f[1]), float(f[2]), float(f[4]), float(f[5]), float(f[6])))
    return meta, links


def read_trips(text: str) -> dict[tuple[int, int], float]:
    """TNTP trip file -> {(origin, dest): flow} without zero entries."""
    trips: dict[tuple[int, int], float] = {}
    origin = None
    body = text.split("<END OF METADATA>", 1)[1]
    for raw in body.splitlines():
        line = raw.split("~", 1)[0].strip()
        if line.lower().startswith("origin"):
            origin = int(line.split()[1])
            continue
        for entry in line.split(";"):
            if ":" in entry:
                dest, flow = entry.split(":")
                if float(flow) != 0.0:
                    trips[(origin, int(dest))] = float(flow)
    return trips


def read_costs(text: str) -> dict[str, float]:
    """Upgrade file -> {project id: cost in k$}."""
    costs = {}
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if f and f[0].upper() == "PROJECT":
            costs[f[1]] = float(f[2])
    return costs


def read_capacity_mods(text: str) -> dict[str, list[tuple[int, int, float]]]:
    """Upgrade file -> {project id: [(from, to, new capacity)]} for its MOD lines."""
    mods: dict[str, list[tuple[int, int, float]]] = {}
    project = None
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if f and f[0].upper() == "PROJECT":
            project = f[1]
            mods[project] = []
        elif f and f[0].upper() == "MOD":
            mods[project].append((int(f[1]), int(f[2]), float(f[-1].split("=")[1])))
    return mods


def cache_files(directory: str) -> dict[tuple[str, str], str]:
    """(network hash, demand hash) -> path for every delta cache in a directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        header, _, _ = read_cache(path)
        out[(header["network"], header["demand"])] = path
    return out


def read_cache(path: str):
    """Delta-cache file -> (header, baseline (vht, gap), {subset: (delta, gap)})."""
    header: dict[str, str] = {}
    baseline = None
    rows: dict[tuple[str, ...], tuple[float, float]] = {}
    with open(path) as fh:
        for raw in fh:
            f = raw.split()
            if not f or f[0].startswith("#"):
                continue
            if len(f) == 2:
                header[f[0]] = f[1]
            elif f[0] == "BASELINE":
                baseline = (float(f[1]), float(f[2]))
            else:
                rows[tuple(f[0].split(","))] = (float(f[1]), float(f[2]))
    return header, baseline, rows


# ---------------------------------------------------------------------------
# Equilibrium


def bpr(link, flow: float) -> float:
    _, _, capacity, fftime, alpha, beta = link
    return fftime * (1.0 + alpha * (flow / capacity) ** beta)


def bpr_integral(link, flow: float) -> float:
    _, _, capacity, fftime, alpha, beta = link
    return fftime * flow + fftime * alpha * flow ** (beta + 1.0) / ((beta + 1.0) * capacity**beta)


def dijkstra(node_count: int, links, costs, source: int, first_thru: int) -> list[float]:
    """Labels from `source`; nodes below first_thru end paths unless they are the source."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(node_count + 1)]
    for (u, v, *_), c in zip(links, costs):
        out[u].append((v, c))
    dist = [math.inf] * (node_count + 1)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] or (u != source and u < first_thru):
            continue
        for v, c in out[u]:
            if d + c < dist[v]:
                dist[v] = d + c
                heapq.heappush(heap, (d + c, v))
    return dist


def check_assignment(meta, links, trips, flows, vht, beckmann_history, target_gap, label) -> list[str]:
    """Conservation, recomputed gap and VHT, and a Beckmann history that never rises."""
    fails = []
    node_count = meta["NUMBER OF NODES"]
    first_thru = meta.get("FIRST THRU NODE", 1)
    flows = [float(f) for f in flows]
    if len(flows) != len(links):
        return [f"{label}: {len(flows)} flows for {len(links)} links"]
    total_demand = sum(trips.values())
    balance = [0.0] * (node_count + 1)
    for (u, v, *_), f in zip(links, flows):
        balance[u] -= f
        balance[v] += f
    for (r, s), q in trips.items():
        balance[r] += q
        balance[s] -= q
    worst = max(abs(b) for b in balance)
    if worst > 1e-6 * max(1.0, total_demand):
        fails.append(f"{label}: flow conservation off by {worst:.3g} at some node")

    costs = [bpr(link, f) for link, f in zip(links, flows)]
    own_vht = sum(f * c for f, c in zip(flows, costs))
    if abs(own_vht - vht) > REL_TOL * max(1.0, abs(own_vht)):
        fails.append(f"{label}: reported VHT {vht!r} but flows give {own_vht!r}")
    by_origin: dict[int, list[tuple[int, float]]] = {}
    for (r, s), q in trips.items():
        by_origin.setdefault(r, []).append((s, q))
    shortest = 0.0
    for r, dests in sorted(by_origin.items()):
        dist = dijkstra(node_count, links, costs, r, first_thru)
        shortest += sum(q * dist[s] for s, q in dests)
    gap = (own_vht - shortest) / own_vht
    if not gap <= target_gap * (1.0 + 1e-6):
        fails.append(f"{label}: recomputed relative gap {gap:.4g} exceeds target {target_gap:g}")
    own_beckmann = sum(bpr_integral(link, f) for link, f in zip(links, flows))
    if not beckmann_history or not _close(own_beckmann, beckmann_history[-1]):
        fails.append(f"{label}: Beckmann history does not end at the flows' objective {own_beckmann!r}")
    for a, b in zip(beckmann_history, beckmann_history[1:]):
        if b > a * (1.0 + 1e-12):
            fails.append(f"{label}: Beckmann objective rose from {a!r} to {b!r}")
            break
    return fails


def two_route_vht(north, south, demand: float, steps: int = 200) -> float:
    """VHT of the equilibrium split of `demand` between two corridors of links in series."""

    def latency(corridor, flow):
        return sum(bpr(link, flow) for link in corridor)

    if latency(north, demand) <= latency(south, 0.0):
        x = demand
    elif latency(south, demand) <= latency(north, 0.0):
        x = 0.0
    else:
        lo, hi = 0.0, demand
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if latency(north, mid) < latency(south, demand - mid):
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
    return x * latency(north, x) + (demand - x) * latency(south, demand - x)


def check_two_route(links, demand, widenings, baseline_vht, deltas, label) -> list[str]:
    """Baseline VHT and single deltas of a twin-corridor network against bisection.

    `links` are the three links of the first corridor then the three of the
    second; `widenings` maps a project to its (from, to, capacity) edits."""
    tol = 1e-6

    def vht(edits=()):
        widened = {(u, v): cap for u, v, cap in edits}
        adjusted = [(u, v, widened.get((u, v), cap), *rest) for u, v, cap, *rest in links]
        return two_route_vht(adjusted[:3], adjusted[3:], demand)

    base = vht()
    fails = []
    if abs(baseline_vht - base) > tol * base:
        fails.append(f"{label} baseline VHT {baseline_vht!r}, two-route equilibrium {base!r}")
    for project, edits in widenings.items():
        expected = base - vht(edits)
        if abs(deltas[project] - expected) > tol * base:
            fails.append(f"{label} delta of {project} is {deltas[project]!r}, two-route equilibrium {expected!r}")
    return fails


def check_full_order(report: str, order: int) -> list[str]:
    """At full order the estimator telescopes, so error-report must show no error."""
    rows = [line for line in report.splitlines() if line.startswith(f"all subsets size <= {order}")]
    if not rows or [float(x) for x in rows[0].split()[-2:]] != [0.0, 0.0]:
        return [f"error-report at order {order} does not show zero error: {rows}"]
    return []


# ---------------------------------------------------------------------------
# Selection and scheduling


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def model_from_rows(rows, ids, pairs):
    """Single values and pair corrections d_ij = delta(ij) - v_i - v_j from cache rows."""
    values = {i: rows[(i,)][0] for i in ids}
    corrections = {}
    for p in pairs:
        p = tuple(sorted(p))
        corrections[p] = rows[p][0] - values[p[0]] - values[p[1]]
    return values, corrections


def selection_objective(chosen, values, costs, corrections, m) -> float:
    mprime = m / 1000.0
    obj = sum(mprime * values[i] - costs[i] for i in chosen)
    obj += sum(mprime * d for (a, b), d in corrections.items() if a in chosen and b in chosen)
    return obj


def check_selection(chosen, values, costs, corrections, budget, m, label) -> list[str]:
    """The chosen set is feasible and no subset beats it (exhaustive enumeration)."""
    chosen = tuple(sorted(chosen))
    ids = sorted(values)
    if sum(costs[i] for i in chosen) > budget:
        return [f"{label}: selection {chosen} spends over the budget {budget:g}"]
    best = max(
        selection_objective(S, values, costs, corrections, m)
        for r in range(len(ids) + 1)
        for S in combinations(ids, r)
        if sum(costs[i] for i in S) <= budget
    )
    got = selection_objective(chosen, values, costs, corrections, m)
    if not _close(got, best) and got < best:
        return [f"{label}: selection {chosen} is worth {got:.6f}, exhaustive best {best:.6f}"]
    return []


def schedule_npv(assignments, period_values, period_pairs, costs, rate, m) -> float:
    """NPV in k$ of building each id at its period (no discount on costs)."""
    mprime = m / 1000.0
    npv = 0.0
    for i, t in assignments.items():
        npv += mprime / (1.0 + rate) ** t * period_values[(i, t)] - costs[i]
    for ((a, b), t), d in period_pairs.items():
        if assignments.get(a) == t and assignments.get(b) == t:
            npv += mprime / (1.0 + rate) ** t * d
    return npv


def check_budgets(assignments, costs, budgets, label) -> list[str]:
    spend = [0.0] * len(budgets)
    for i, t in assignments.items():
        if not 1 <= t <= len(budgets):
            return [f"{label}: {i} built in period {t} outside 1..{len(budgets)}"]
        spend[t - 1] += costs[i]
    return [
        f"{label}: period {t} spends {s:g} over its budget {b:g}"
        for t, (s, b) in enumerate(zip(spend, budgets), start=1)
        if s > b
    ]


def feasible_schedules(costs, budgets):
    """Every assignment of ids to periods 1..T or to none that fits the budgets.

    The same set as filtering all (T+1)^N choices, with branches that already
    overspend a period cut early.
    """
    ids = sorted(costs)
    spend = [0.0] * len(budgets)
    assign: dict[str, int] = {}

    def walk(j):
        if j == len(ids):
            yield dict(assign)
            return
        yield from walk(j + 1)
        i = ids[j]
        for t in range(1, len(budgets) + 1):
            if spend[t - 1] + costs[i] <= budgets[t - 1]:
                spend[t - 1] += costs[i]
                assign[i] = t
                yield from walk(j + 1)
                del assign[i]
                spend[t - 1] -= costs[i]

    return walk(0)


def check_independent(assignments, npv, period_values, costs, budgets, rate, m, label) -> list[str]:
    """Feasible, NPV as reported, and no better schedule among all (T+1)^N."""
    fails = check_budgets(assignments, costs, budgets, label)
    own = schedule_npv(assignments, period_values, {}, costs, rate, m)
    if not _close(own, npv):
        fails.append(f"{label}: reported NPV {npv!r}, recomputed {own!r}")
    best = max(
        schedule_npv(assign, period_values, {}, costs, rate, m)
        for assign in feasible_schedules(costs, budgets)
    )
    if own < best and not _close(own, best):
        fails.append(f"{label}: schedule NPV {own:.6f}, exhaustive best {best:.6f}")
    return fails


def check_greedy(assignments, npv, period_values, period_pairs, costs, budgets, rate, m, label) -> list[str]:
    """Every period within budget, and the NPV recomputed from the period deltas."""
    fails = check_budgets(assignments, costs, budgets, label)
    own = schedule_npv(assignments, period_values, period_pairs, costs, rate, m)
    if not _close(own, npv):
        fails.append(f"{label}: reported NPV {npv!r}, recomputed from period deltas {own!r}")
    return fails
