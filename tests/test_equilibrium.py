"""Bi-conjugate Frank-Wolfe equilibrium solver against closed-form and bisection oracles."""

import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from roadworks import (
    DataError,
    DemandMatrix,
    Link,
    Network,
    SolverError,
    SolverSettings,
    all_or_nothing,
    apply_upgrades,
    bpr_integral,
    bpr_latency,
    compute_deltas,
    format_flow_file,
    parse_upgrades,
    relative_gap,
    solve_with,
    vht,
    write_flow_file,
)
from roadworks import equilibrium, scenario, shortest_path

from netfixtures import grid_demand, grid_net, two_link_demand, two_link_net
from oracles import independent_gap, latency, two_link_flows


def test_bpr_latency_values():
    link = Link(1, 2, 1000.0, 10.0, 0.15, 4.0)
    assert bpr_latency(link, 0.0) == 10.0
    assert bpr_latency(link, 1000.0) == pytest.approx(11.5)
    assert bpr_latency(link, 1500.0) == pytest.approx(17.59375)
    with pytest.raises(DataError):
        bpr_latency(link, -1.0)


def test_bpr_integral_matches_quadrature():
    rng = random.Random(99)
    for _ in range(40):
        link = Link(
            1,
            2,
            rng.uniform(100, 5000),
            rng.uniform(1, 30),
            rng.uniform(0, 1),
            rng.choice([1.0, 2.0, 4.0]),
        )
        f = rng.uniform(0, 3 * link.capacity)
        n = 20000
        xs = [f * (i + 0.5) / n for i in range(n)]
        riemann = sum(bpr_latency(link, x) for x in xs) * f / n
        assert bpr_integral(link, f) == pytest.approx(riemann, rel=1e-6)


def test_vht_is_flow_weighted_time():
    assert vht([2.0, 3.0], [5.0, 7.0]) == 31.0


def test_relative_gap_definition():
    flows = np.array([10.0, 0.0])
    costs = np.array([4.0, 3.0])
    aon = np.array([0.0, 10.0])
    # (40 - 30) / 40
    assert relative_gap(flows, costs, aon) == pytest.approx(0.25)


def test_corner_instance_matches_oracle():
    net = two_link_net()
    demand = two_link_demand(1500.0)
    want = two_link_flows(net, 1500.0)
    a = solve_with(net, demand, SolverSettings(target_gap=1e-8, max_iters=1000))
    assert a.relative_gap <= 1e-8
    assert a.flows[0] == pytest.approx(want[0], abs=1e-4)
    assert a.flows[1] == pytest.approx(want[1], abs=1e-4)
    assert want == (1500.0, 0.0)  # cheap link stays faster even with all flow


def test_interior_instance_matches_oracle():
    net = two_link_net()
    demand = two_link_demand(2500.0)
    x1, x2 = two_link_flows(net, 2500.0)
    assert 0.0 < x1 < 2500.0
    a = solve_with(net, demand, SolverSettings(target_gap=1e-10, max_iters=1000))
    assert a.flows[0] == pytest.approx(x1, abs=1e-4)
    assert a.flows[1] == pytest.approx(x2, abs=1e-4)
    # equal latencies is the interior equilibrium condition
    assert latency(net.links[0], x1) == pytest.approx(latency(net.links[1], x2), rel=1e-9)


def test_random_two_link_instances_match_oracle():
    # beta < 1 has an infinite latency slope at zero flow, beta = 0 a zero one
    betas = (0.0, 0.5, 1.0, 2.0, 4.0)
    rng = random.Random(424242)
    for i in range(40):
        net = two_link_net(
            t1=rng.uniform(1, 30),
            t2=rng.uniform(1, 30),
            q1=rng.uniform(200, 3000),
            q2=rng.uniform(200, 3000),
            alpha=rng.uniform(0.05, 1.0),
            beta=betas[i % len(betas)],
        )
        total = rng.uniform(10, 5000)
        x1, x2 = two_link_flows(net, total)
        a = solve_with(net, two_link_demand(total), SolverSettings(target_gap=1e-10, max_iters=20000))
        assert a.relative_gap <= 1e-10
        assert a.flows[0] == pytest.approx(x1, abs=1e-3)
        assert a.flows[1] == pytest.approx(x2, abs=1e-3)


def test_sublinear_power_with_idle_links(sioux):
    # With beta < 1 the latency slope is infinite at zero flow.  An idle link
    # keeps such a slope in every iteration; the direction weights and the
    # Newton step must read it as 0, not let it turn the flows into NaN.
    links = tuple(replace(link, beta=0.5) for link in sioux.net.links)
    idle = Link(1, 2, 1000.0, 1e9, 0.15, 0.5)
    net = replace(sioux.net, links=links + (idle,))
    a = solve_with(net, sioux.demand, SolverSettings(target_gap=1e-6, max_iters=2000))
    assert a.relative_gap <= 1e-6
    assert a.iterations > 3  # the bi-conjugate weights were used
    assert a.flows[-1] == 0.0
    assert independent_gap(net, sioux.demand, a.flows) <= 2e-6


def test_every_desk_subset_converges_tight(desk):
    subsets = [S for r in range(1, 9) for S in combinations(desk.upgrades.ids, r)]
    assert len(subsets) == 255
    assert ("C-A1", "C-B3", "C-X1", "C-X2") in subsets
    assert ("C-A3", "C-B1", "C-X1", "C-X2") in subsets
    for S in subsets:
        net = apply_upgrades(desk.net, desk.upgrades, S)
        a = solve_with(net, desk.demand, SolverSettings(target_gap=1e-8, max_iters=1000))
        assert a.relative_gap <= 1e-8, S
        assert a.iterations < 1000, S


def test_sioux_falls_converges_in_few_iterations(sioux):
    a = solve_with(sioux.net, sioux.demand, SolverSettings(target_gap=1e-4, max_iters=300))
    assert a.relative_gap <= 1e-4
    assert a.iterations <= 300
    hist = a.beckmann_history
    assert len(hist) == a.iterations
    for before, after in zip(hist, hist[1:]):
        assert after <= before + 1e-12 * abs(before)
    assert all(0.0 <= lam <= 1.0 for lam in a.step_sizes)


def test_sioux_falls_reaches_1e5_within_800_iterations(sioux):
    # conjugate Frank-Wolfe needs 1,870 iterations for this gap
    a = solve_with(sioux.net, sioux.demand, SolverSettings(target_gap=1e-5, max_iters=800))
    assert a.relative_gap <= 1e-5
    hist = a.beckmann_history
    for before, after in zip(hist, hist[1:]):
        assert after <= before + 1e-12 * abs(before)
    assert all(0.0 <= lam <= 1.0 for lam in a.step_sizes)


def _conjugate_weight(arrays, x, y, s1):
    """The conjugate Frank-Wolfe weight of s1 in a s1 + (1 - a) y, clamped,
    with the solver's sums."""
    hdb = arrays.slopes(x) * (s1 - x)
    (den,), (num,) = arrays.inner(hdb, y - s1), arrays.inner(hdb, y - x)
    a = 0.0 if den == 0.0 else num / den
    return min(max(a, 0.0), 1.0 - equilibrium._CONJUGATE_MARGIN)


def test_direction_weights(sioux):
    arrays = equilibrium._LinkArrays([sioux.net])

    def weights(arrays, x, y, points, tau):  # one network's triple
        (triple,) = equilibrium._direction_weights(arrays, x, y, points, [tau])
        return triple

    margin = equilibrium._CONJUGATE_MARGIN
    rng = np.random.default_rng(2013)
    m = len(sioux.net.links)
    seen = {"conjugate": 0, "bi-conjugate": 0, "capped": 0}
    for draw in range(400):
        x = rng.uniform(100.0, 20000.0, m)
        h = arrays.slopes(x)
        tau = rng.uniform(0.0, 1.0)
        structured = draw % 2 == 1
        if structured:  # the last two directions conjugate, as the solver leaves them
            dfw, db, dbb = rng.normal(0.0, 2000.0, (3, m))
            dbb -= np.dot(h * db, dbb) / np.dot(h * db, db) * db
            y, s1 = x + dfw, x + db
            s2 = (dbb + x - tau * s1) / (1.0 - tau)
        else:
            y, s1, s2 = rng.uniform(0.0, 20000.0, (3, m))
        b0, b1, b2 = weights(arrays, x, y, (s1, s2), tau)
        assert min(b0, b1, b2) >= 0.0
        assert b0 >= margin * (1.0 - 1e-12)
        assert b0 + b1 + b2 == pytest.approx(1.0, abs=1e-12)
        a = _conjugate_weight(arrays, x, y, s1)
        conjugate = (1.0 - a, a, 0.0)
        for fallback in (weights(arrays, x, y, (s1,), tau),
                         weights(arrays, x, y, (s1, s2), 0.0),
                         weights(arrays, x, y, (s1, s2), 1.0)):
            assert fallback == conjugate
        if b2 == 0.0:  # mu = 0
            assert (b0, b1, b2) == conjugate
            seen["conjugate"] += 1
        elif b0 <= margin * (1.0 + 1e-12):
            seen["capped"] += 1
        elif structured and 0.0 < a < 1.0 - margin:
            d = b0 * dfw + b1 * db + b2 * (s2 - x)
            for prev in (db, dbb):
                cosine = np.dot(h * d, prev) / math.sqrt(np.dot(h * d, d) * np.dot(h * prev, prev))
                assert abs(cosine) < 1e-9
            seen["bi-conjugate"] += 1
    assert min(seen.values()) > 0, seen
    assert weights(arrays, x, y, (), tau) == (1.0, 0.0, 0.0)


def test_gap_verified_independently(desk):
    a = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-6, max_iters=1000))
    assert a.relative_gap <= 1e-6
    assert independent_gap(desk.net, desk.demand, a.flows) <= 2e-6


def test_beckmann_never_increases(desk):
    a = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-8, max_iters=1000))
    hist = a.beckmann_history
    assert len(hist) == a.iterations
    for before, after in zip(hist, hist[1:]):
        assert after <= before + 1e-12 * abs(before)


def test_aon_loads_everything_on_shortest_route(desk):
    costs = [link.free_flow_time for link in desk.net.links]
    flows = all_or_nothing(desk.net, desk.demand, costs)
    # free-flow shortest route is the 30-minute north corridor
    assert list(flows) == [1000.0, 1000.0, 1000.0, 0.0, 0.0, 0.0]


def test_aon_conserves_demand(sioux):
    costs = [link.free_flow_time for link in sioux.net.links]
    flows = all_or_nothing(sioux.net, sioux.demand, costs)
    out = {n: 0.0 for n in range(1, sioux.net.node_count + 1)}
    net_in = {n: 0.0 for n in range(1, sioux.net.node_count + 1)}
    for link, f in zip(sioux.net.links, flows):
        out[link.from_node] += f
        net_in[link.to_node] += f
    starts = {n: 0.0 for n in out}
    ends = {n: 0.0 for n in out}
    for (r, s), q in sioux.demand.entries.items():
        starts[r] += q
        ends[s] += q
    for n in out:
        assert net_in[n] - out[n] == pytest.approx(ends[n] - starts[n], abs=1e-6)


def test_zero_demand_short_circuits():
    net = two_link_net()
    a = solve_with(net, DemandMatrix({}), SolverSettings(target_gap=1e-8, max_iters=1000))
    assert list(a.flows) == [0.0, 0.0]
    assert a.relative_gap == 0.0
    assert a.iterations == 0
    b = solve_with(net, DemandMatrix({(1, 2): 0.0}), SolverSettings(target_gap=1e-8, max_iters=1000))
    assert list(b.flows) == [0.0, 0.0]


def test_disconnected_demand_is_a_solver_error():
    net = Network(
        node_count=3, links=(Link(1, 2, 1000.0, 10.0, 0.15, 4.0),), zone_count=3
    )
    with pytest.raises(SolverError, match=r"\(1,3\)"):
        solve_with(net, DemandMatrix({(1, 3): 5.0}), SolverSettings(target_gap=1e-4, max_iters=1000))


def test_demand_outside_zone_range():
    net = two_link_net()
    with pytest.raises(DataError):
        solve_with(net, DemandMatrix({(1, 99): 5.0}), SolverSettings(target_gap=1e-4, max_iters=1000))


def test_truncation_reports_honest_gap():
    net = two_link_net()
    a = solve_with(net, two_link_demand(2500.0), SolverSettings(target_gap=1e-30, max_iters=1))
    assert a.iterations == 1
    assert a.relative_gap > 1e-6  # one step cannot reach equilibrium here
    assert len(a.beckmann_history) == 1
    assert len(a.gap_history) == 1


def test_repeat_solves_are_bit_identical(desk):
    a = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-6, max_iters=1000))
    b = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-6, max_iters=1000))
    assert np.array_equal(a.flows, b.flows)
    assert a.vht == b.vht


# Lock-step batches: every field of a problem's Assignment is the same
# whether it is solved alone, in one batch, or in batches cut at any size.


def _fields(a):
    return (a.flows.tobytes(), a.latencies.tobytes(), a.vht, a.relative_gap, a.iterations,
            a.beckmann_history, a.gap_history, a.step_sizes)


def _in_batches(problems, settings, size):
    out = []
    for start in range(0, len(problems), size):
        out += [_fields(a) for a in equilibrium._solve_batch(problems[start : start + size], settings)]
    return out


def _force_path(monkeypatch, threshold):
    """Every AON loading call on the array path (0) or on the kernel (inf)."""
    monkeypatch.setattr(shortest_path, "_ARRAY_MIN_WORK", threshold)


def _subset_problems(case, sizes):
    subsets = [()] + [S for r in sizes for S in combinations(case.upgrades.ids, r)]
    return [(apply_upgrades(case.net, case.upgrades, S), case.demand) for S in subsets]


@pytest.fixture(scope="module")
def desk_subset_solves(desk):
    """The desk baseline and all 255 subsets at 1e-8, each solved alone."""
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    problems = _subset_problems(desk, range(1, 9))
    return problems, settings, [_fields(solve_with(net, demand, settings)) for net, demand in problems]


def test_desk_subsets_solve_alike_alone_and_in_batches(desk_subset_solves):
    problems, settings, alone = desk_subset_solves
    assert len(problems) == 256
    for size in (256, 100, 64, 7):
        assert _in_batches(problems, settings, size) == alone, size


def test_batches_cut_at_every_size_solve_alike(desk_subset_solves):
    problems, settings, alone = desk_subset_solves
    first = 1 + 8 + 28  # the baseline, the singles and the pairs
    for size in range(1, first + 1):
        assert _in_batches(problems[:first], settings, size) == alone[:first], size


def test_sioux_falls_singles_and_pairs_solve_alike_alone_and_in_batches(sioux):
    # SF-D adds links, so the batch mixes link counts
    settings = SolverSettings(target_gap=1e-4, max_iters=2000)
    problems = _subset_problems(sioux, (1, 2))
    assert len({len(net.links) for net, _ in problems}) > 1
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in problems]
    for size in (len(problems), 4):
        assert _in_batches(problems, settings, size) == alone, size


def test_capped_and_empty_problems_share_a_batch(desk, sioux):
    settings = SolverSettings(target_gap=1e-12, max_iters=2)
    problems = [
        (desk.net, desk.demand),
        (desk.net, DemandMatrix({})),
        (sioux.net, sioux.demand),
        (apply_upgrades(desk.net, desk.upgrades, ["C-X1"]), desk.demand),
    ]
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in problems]
    assert [fields[4] for fields in alone] == [2, 0, 2, 2]
    for size in (4, 3, 2):
        assert _in_batches(problems, settings, size) == alone, size


@pytest.fixture(scope="module")
def mixed_pool(desk, sioux):
    """Problems of three shapes, each with its solve alone: desk and Sioux
    Falls subsets, and a 7x7 grid with 9 zones whose first thru node
    differs from both, at a cap that some of them reach."""
    settings = SolverSettings(target_gap=1e-6, max_iters=40)
    grid = grid_net(side=7, zone_lines=(0, 3, 6))
    widened = replace(grid, links=(replace(grid.links[0], capacity=3000.0),) + grid.links[1:])
    problems = _subset_problems(desk, (1, 2))[:6] + _subset_problems(sioux, (1, 2))[:5]
    problems += [(grid, grid_demand(zones=9)), (widened, grid_demand(zones=9, per_pair=80.0))]
    return problems, settings, [_fields(solve_with(net, demand, settings)) for net, demand in problems]


@pytest.mark.parametrize("seed", range(6))
def test_shuffled_batches_of_mixed_networks_solve_alike_alone(mixed_pool, seed):
    problems, settings, alone = mixed_pool
    assert {fields[4] for fields in alone} >= {40} and len({fields[4] for fields in alone}) > 2
    rng = random.Random(seed)
    picks = rng.choices(range(len(problems)), k=rng.randint(2, 2 * len(problems)))
    batch = equilibrium._solve_batch([problems[i] for i in picks], settings)
    assert [_fields(a) for a in batch] == [alone[i] for i in picks]


def test_a_failing_problem_ends_the_batch_after_the_problems_before_it(desk):
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    choked = replace(desk.net, links=(replace(desk.net.links[0], capacity=1e-80),) + desk.net.links[1:])
    x1 = apply_upgrades(desk.net, desk.upgrades, ["C-X1"])
    ok = [(desk.net, desk.demand), (x1, desk.demand)]
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in ok]
    outside = DemandMatrix({(1, 99): 5.0})
    # the choked network fails in its first iteration, the one after it
    # before its first; the error raised is the earlier problem's
    batch = equilibrium._solve_batch(ok + [(choked, desk.demand), (desk.net, outside), (x1, desk.demand)], settings)
    done = []
    with pytest.raises(SolverError, match="non-finite latency on link 1->3"), np.errstate(over="ignore"):
        for a in batch:
            done.append(_fields(a))
    assert done == alone
    with pytest.raises(DataError, match=r"demand pair \(1,99\)"):
        list(equilibrium._solve_batch(ok + [(desk.net, outside), (choked, desk.demand)], settings))


def test_intrazonal_only_demand_is_an_empty_problem_in_any_batch(desk, tree_path):
    # a trip that stays in its zone loads no link, so there is no gap to close
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    x1 = apply_upgrades(desk.net, desk.upgrades, ["C-X1"])
    problems = [(desk.net, desk.demand), (desk.net, DemandMatrix({(1, 1): 1000.0})), (x1, desk.demand)]
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in problems]
    assert not np.frombuffer(alone[1][0]).any()
    assert alone[1][2:5] == (0.0, 0.0, 0)
    assert _in_batches(problems, settings, 3) == alone


# The batch-wide array path: one tree-and-load pass over every live problem.


def test_sioux_falls_batch_on_the_array_path_matches_each_alone_on_the_kernel(sioux, monkeypatch):
    settings = SolverSettings(target_gap=1e-4, max_iters=2000)
    problems = _subset_problems(sioux, (1, 2))[1:]  # the 4 singles and 6 pairs
    _force_path(monkeypatch, math.inf)
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in problems]
    _force_path(monkeypatch, 0)
    assert _in_batches(problems, settings, len(problems)) == alone


def _stranded():
    """A 3-node network in which (3,1) and (3,2) have no path while (1,2) has one."""
    links = (
        Link(1, 2, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 1, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 3, 1000.0, 1.0, 0.15, 4.0),
    )
    return Network(node_count=3, links=links, zone_count=3), DemandMatrix({(1, 2): 5.0, (3, 1): 2.0, (3, 2): 1.0})


def test_errors_on_the_array_path_end_the_batch_after_the_problems_before_it(desk, monkeypatch):
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    choked = replace(desk.net, links=(replace(desk.net.links[0], capacity=1e-80),) + desk.net.links[1:])
    x1 = apply_upgrades(desk.net, desk.upgrades, ["C-X1"])
    ok = [(desk.net, desk.demand), (x1, desk.demand)]
    _force_path(monkeypatch, math.inf)
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in ok]
    _force_path(monkeypatch, 0)
    cases = [
        # the stranded network fails before its first iteration; it has 3
        # nodes and no centroids, so the batch's networks differ in both
        ([_stranded(), (desk.net, desk.demand)], r"no path for demanded O-D pair \(3,1\)"),
        # the choked network fails in its first iteration, and the rows of
        # the problems after it are left out of that pass
        ([(choked, desk.demand), (desk.net, desk.demand)], "non-finite latency on link 1->3"),
        # each time the error raised is the earlier problem's
        ([(choked, desk.demand), _stranded()], "non-finite latency on link 1->3"),
        ([_stranded(), (choked, desk.demand)], r"no path for demanded O-D pair \(3,1\)"),
    ]
    for tail, message in cases:
        done = []
        with pytest.raises(SolverError, match=message), np.errstate(over="ignore"):
            for a in equilibrium._solve_batch(ok + tail, settings):
                done.append(_fields(a))
        assert done == alone, message


def test_each_loading_call_picks_its_path_by_its_work(desk, sioux, grid, monkeypatch):
    paths = []
    for name, function in (("array", shortest_path._load_trees), ("kernel", shortest_path._load_chunk)):

        def record(*args, name=name, function=function):
            paths.append(name)
            return function(*args)

        monkeypatch.setattr(shortest_path, function.__name__, record)

    def path(problems):
        paths.clear()
        list(equilibrium._solve_batch(problems, SolverSettings(target_gap=1e-12, max_iters=1)))
        return set(paths)

    one, two = _subset_problems(sioux, (1,))[:1], _subset_problems(sioux, (1,))[:2]
    # a call's origins times links, over all its problems, against the one threshold
    threshold = shortest_path._ARRAY_MIN_WORK
    for problems in (one, two):
        work = sum(len(demand.by_origin) * len(net.links) for net, demand in problems)
        monkeypatch.setattr(shortest_path, "_ARRAY_MIN_WORK", work)
        assert path(problems) == {"array"}
        monkeypatch.setattr(shortest_path, "_ARRAY_MIN_WORK", work + 1)
        assert path(problems) == {"kernel"}
    # at the measured threshold a lone desk or Sioux Falls problem and desk's
    # whole table stay on the kernel, while two Sioux Falls problems, every
    # chunk of a large grid and a deep grid with few origins take the array path
    monkeypatch.setattr(shortest_path, "_ARRAY_MIN_WORK", threshold)
    assert path([(desk.net, desk.demand)]) == {"kernel"}
    assert path(one) == {"kernel"}
    assert path(_subset_problems(desk, range(1, 9))) == {"kernel"}
    assert path(two) == {"array"}
    assert len(grid[1].by_origin) > shortest_path._CHUNK
    assert path([grid]) == {"array"}
    deep = grid_net(side=15, zone_lines=(0, 7, 14))
    assert path([(deep, grid_demand(zones=9))]) == {"array"}


def test_an_unexpected_loading_error_ends_the_batch_after_the_problems_before_it(desk, monkeypatch):
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    slow = apply_upgrades(desk.net, desk.upgrades, ["C-A1", "C-X1"])
    problems = [(desk.net, desk.demand), (slow, desk.demand)]
    alone = [_fields(solve_with(net, demand, settings)) for net, demand in problems]
    assert alone[0][4] < alone[1][4]  # the first converges first
    # on the array path one call loads both problems, so an error no pair
    # explains falls on the first problem loaded: the first while both
    # iterate, the second once the first has finished
    _force_path(monkeypatch, 0)
    trees = shortest_path._trees_for_origins
    for failing_call, kept in ((2, 0), (alone[0][4] + 2, 1)):  # the free-flow load, then one per iteration
        calls = []

        def out_of_memory(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise MemoryError("out of memory")
            return trees(*args)

        monkeypatch.setattr(shortest_path, "_trees_for_origins", out_of_memory)
        done = []
        with pytest.raises(MemoryError):
            for a in equilibrium._solve_batch(problems, settings):
                done.append(_fields(a))
        assert done == alone[:kept]
    # on the kernel the problem that raised takes the error, here in its
    # second iteration, and the one before it iterates on to its end
    monkeypatch.setattr(shortest_path, "_trees_for_origins", trees)
    _force_path(monkeypatch, math.inf)
    load, loads = shortest_path._load_chunk, []

    def overflow(problem, costs, chunk):
        if problem.index == 1:
            loads.append(chunk)
            if len(loads) == 3:
                raise FloatingPointError("overflow")
        return load(problem, costs, chunk)

    monkeypatch.setattr(shortest_path, "_load_chunk", overflow)
    done = []
    with pytest.raises(FloatingPointError):
        for a in equilibrium._solve_batch(problems, settings):
            done.append(_fields(a))
    assert done == alone[:1]


# Large-network determinism: the grid's 10,200 links put its AON on the
# array path and are long enough for OpenBLAS to split a dot product over
# threads.  A few iterations suffice for a last-bit difference to show in
# the flows.
GRID_SETTINGS = {"target_gap": 1e-12, "max_iters": 4}


@pytest.fixture(scope="module")
def grid():
    return grid_net(), grid_demand()


def _grid_solve(grid):
    net, demand = grid
    return solve_with(net, demand, SolverSettings(**GRID_SETTINGS))


def test_grid_flows_do_not_depend_on_blas_threads():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    code = (
        "from netfixtures import grid_demand, grid_net\n"
        "from roadworks import SolverSettings, solve_with\n"
        f"a = solve_with(grid_net(), grid_demand(), SolverSettings(**{GRID_SETTINGS!r}))\n"
        "print(a.flows.tobytes().hex(), a.gap_history)\n"
    )
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=os.pathsep.join([src, tests]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_grid_array_and_per_origin_trees_give_identical_flows(grid, monkeypatch):
    _force_path(monkeypatch, 0)
    array = _grid_solve(grid)
    _force_path(monkeypatch, math.inf)
    per_origin = _grid_solve(grid)
    assert array.flows.tobytes() == per_origin.flows.tobytes()
    assert array.gap_history == per_origin.gap_history


# The reduction contract: every sum over links is one segmented sum over a
# batch's link vector, and a segment sums alike wherever it sits.
REDUCTION_LINK_COUNTS = (1, 2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193)


def test_batch_sums_equal_each_network_summed_alone():
    rng = np.random.default_rng(8192)
    nets, vectors = [], []
    for count in REDUCTION_LINK_COUNTS:
        caps, times = rng.uniform(100.0, 2000.0, count), rng.uniform(1.0, 20.0, count)
        links = tuple(Link(1, 2, float(q), float(t), 0.15, 4.0) for q, t in zip(caps, times))
        nets.append(Network(node_count=2, links=links, zone_count=2))
        # flows, latencies and a signed direction, whose sums cancel
        vectors.append((rng.uniform(0.0, 3000.0, count), rng.uniform(1.0, 50.0, count), rng.normal(0.0, 500.0, count)))
    alone = []
    for net, (flows, lat, direction) in zip(nets, vectors):
        arrays = equilibrium._LinkArrays([net])
        (fl,), (dl,), (beck,) = arrays.inner(flows, lat), arrays.inner(direction, lat), arrays.beckmann(flows)
        assert fl == vht(flows, lat)
        alone.append((fl, dl, beck))
    shuffled = [list(rng.permutation(len(nets))) for _ in range(3)]
    for order in [list(range(len(nets))), list(range(len(nets)))[::-1]] + shuffled:
        arrays = equilibrium._LinkArrays([nets[k] for k in order])
        flows, lat, direction = (np.concatenate([vectors[k][i] for k in order]) for i in range(3))
        assert arrays.inner(flows, lat) == [alone[k][0] for k in order]
        assert arrays.inner(direction, lat) == [alone[k][1] for k in order]
        assert arrays.beckmann(flows) == [alone[k][2] for k in order]
        which = list(range(0, len(order), 2))
        assert arrays.inner(direction, lat, which) == [alone[order[j]][1] for j in which]


def test_a_solve_reports_the_vht_that_vht_computes(desk, sioux, grid):
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    x1 = apply_upgrades(desk.net, desk.upgrades, ["C-X1"])
    solves = [
        solve_with(desk.net, desk.demand, settings),
        solve_with(sioux.net, sioux.demand, replace(settings, target_gap=1e-4)),
        _grid_solve(grid),
        *equilibrium._solve_batch([(x1, desk.demand), (sioux.net, sioux.demand), (desk.net, desk.demand)],
                                  replace(settings, max_iters=20)),
    ]
    for a in solves:
        assert a.vht == vht(a.flows, a.latencies)


def test_a_non_finite_latency_in_a_batch_warns_nothing(desk):
    # the choked link's latency overflows to inf, the premise of the test;
    # no sum may warn where it meets a zero flow in an unloaded AON point
    settings = SolverSettings(target_gap=1e-8, max_iters=1000)
    choked = replace(desk.net, links=(replace(desk.net.links[0], capacity=1e-80),) + desk.net.links[1:])
    problems = [(desk.net, desk.demand), (choked, desk.demand), (desk.net, desk.demand)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="non-finite latency on link 1->3"), np.errstate(over="ignore"):
            list(equilibrium._solve_batch(problems, settings))


def test_many_chunks_load_alike_on_both_paths_and_in_calls_of_any_size(monkeypatch):
    # 49 zones make 4 chunks, so the order the chunks are summed in shows
    net = grid_net(side=13, zone_lines=(0, 2, 4, 6, 8, 10, 12))
    demand = grid_demand(zones=49, per_pair=3.0)
    costs = [1.0 + (i % 11) / 10 for i in range(len(net.links))]
    widened = replace(net, links=(replace(net.links[0], capacity=3000.0),) + net.links[1:])
    settings = SolverSettings(target_gap=1e-12, max_iters=3)
    trees, rows = shortest_path._trees_for_origins, []

    def record(graph, costs, origins, owners):
        rows.append(len(origins))
        return trees(graph, costs, origins, owners)

    monkeypatch.setattr(shortest_path, "_trees_for_origins", record)
    runs = {}
    # all four chunks in one array call, one chunk per call, and the kernel
    for threshold, cells in ((0, shortest_path._CALL_MAX_CELLS), (0, 1), (math.inf, 1)):
        _force_path(monkeypatch, threshold)
        monkeypatch.setattr(shortest_path, "_CALL_MAX_CELLS", cells)
        rows.clear()
        aon = all_or_nothing(net, demand, costs)
        runs[threshold, cells] = [aon.tobytes()] + _in_batches([(net, demand), (widened, demand)], settings, 2)
        assert set(rows) == ({49, 98} if cells > 1 else {16, 32, 1, 2} if threshold == 0 else set())
    one_call, per_chunk, kernel = runs.values()
    assert one_call == per_chunk == kernel


# The loader cases below run on both tree paths: the array path with its numpy
# loader (threshold 0) and the per-origin kernel with its Python walk.
@pytest.fixture(params=[0, math.inf], ids=["array", "per-origin"])
def tree_path(request, monkeypatch):
    _force_path(monkeypatch, request.param)
    return request.param


def test_aon_names_the_demanded_pair_without_a_path(tree_path):
    # node 3 has no out-link, so (3,1) has no path while (1,2) has one
    links = (
        Link(1, 2, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 1, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 3, 1000.0, 1.0, 0.15, 4.0),
    )
    net = Network(node_count=3, links=links, zone_count=3)
    demand = DemandMatrix({(1, 2): 5.0, (3, 1): 2.0})
    with pytest.raises(SolverError, match=r"no path for demanded O-D pair \(3,1\)"):
        all_or_nothing(net, demand, [1.0, 1.0, 1.0])


def test_intrazonal_demand_loads_nothing(monkeypatch):
    net = grid_net(side=9, zone_lines=(0, 4, 8))
    costs = [1.0 + (i % 7) / 8 for i in range(len(net.links))]
    trips = dict(grid_demand(zones=9).entries)
    flows = {}
    for threshold in (0, math.inf):
        _force_path(monkeypatch, threshold)
        with_self = all_or_nothing(net, DemandMatrix({**trips, (1, 1): 30.0, (5, 5): 7.0}), costs)
        without = all_or_nothing(net, DemandMatrix(trips), costs)
        assert with_self.tobytes() == without.tobytes()
        only_self = all_or_nothing(net, DemandMatrix({(1, 1): 30.0, (5, 5): 7.0}), costs)
        assert not only_self.any()
        flows[threshold] = with_self
    assert flows[0].tobytes() == flows[math.inf].tobytes()


def test_cyclic_predecessors_do_not_loop(tree_path, monkeypatch):
    # pred holds the cycle 2 -> 3 -> 2 and never leads back to origin 1
    links = (
        Link(1, 2, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 3, 1000.0, 1.0, 0.15, 4.0),
        Link(3, 2, 1000.0, 1.0, 0.15, 4.0),
    )
    net = Network(node_count=3, links=links, zone_count=3)
    pred = [-1, -1, 2, 1]

    def cyclic_trees(graph, costs, origins, owners=None):
        return np.zeros((len(origins), 4)), np.array([pred] * len(origins))

    monkeypatch.setattr(shortest_path, "_trees_for_origins", cyclic_trees)
    monkeypatch.setattr(shortest_path, "_bellman_ford", lambda *args: ([0.0] * 4, list(pred)))
    with pytest.raises(SolverError, match=r"did not terminate for pair \(1,3\)"):
        all_or_nothing(net, DemandMatrix({(1, 3): 5.0}), [1.0, 1.0, 1.0])


def test_aon_names_the_first_invalid_cost():
    net, demand = two_link_net(), two_link_demand(100.0)
    with pytest.raises(DataError, match=r"link 1->2 has invalid cost -1.0"):
        all_or_nothing(net, demand, [-1.0, math.nan])
    with pytest.raises(DataError, match=r"link 1->2 has invalid cost nan"):
        all_or_nothing(net, demand, [1.0, math.nan])
    with pytest.raises(DataError, match=r"link 1->2 has invalid cost inf"):
        all_or_nothing(net, demand, np.array([math.inf, 1.0]))
    with pytest.raises(DataError, match=r"got 3 costs for 2 links"):
        all_or_nothing(net, demand, [1.0, 1.0, 1.0])


def test_grid_subsets_solve_alike_in_one_array_batch_and_alone_on_the_kernel(monkeypatch):
    net = grid_net(side=9, zone_lines=(0, 4, 8))
    first, second = net.links[12], net.links[40]
    upgrades = parse_upgrades(
        f"""PROJECT widen-a 100 capacity-upgrade
  MOD {first.from_node} {first.to_node} CAPACITY=3000
PROJECT widen-b 120 capacity-upgrade
  MOD {second.from_node} {second.to_node} CAPACITY=3000 FFTIME=0.5
PROJECT link-ab 200 new-road
  ADD 30 52 2000 1 0.5 0.15 4
  ADD 52 30 2000 1 0.5 0.15 4
""",
        network=net,
    )
    subsets = [("widen-a",), ("widen-b",), ("link-ab",), ("link-ab", "widen-a"), ("link-ab", "widen-a", "widen-b")]
    settings = SolverSettings(target_gap=1e-6)
    demand = grid_demand(zones=9)
    # the baseline and all five subsets in one batch, on the array path
    monkeypatch.setattr(scenario, "_BATCH_LINKS", math.inf)
    _force_path(monkeypatch, 0)
    batched = compute_deltas(net, demand, upgrades, subsets, settings)
    # each alone, on the kernel
    monkeypatch.setattr(scenario, "_BATCH_LINKS", 0)
    _force_path(monkeypatch, math.inf)
    alone = compute_deltas(net, demand, upgrades, subsets, settings)
    assert batched.coefficients == alone.coefficients
    assert batched.evaluated_subsets == alone.evaluated_subsets


def test_flow_file_format(desk, tmp_path):
    a = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-6, max_iters=1000))
    text = format_flow_file(desk.net, a)
    lines = text.strip().splitlines()
    assert lines[0].startswith("~ vht ")
    assert "relative_gap" in lines[0]
    assert len(lines) == 1 + len(desk.net.links)
    fields = lines[1].split()
    assert int(fields[0]) == desk.net.links[0].from_node
    assert float(fields[2]) == pytest.approx(a.flows[0], abs=1e-6)

    path = tmp_path / "flows.txt"
    write_flow_file(str(path), desk.net, a)
    assert path.read_text() == text


def test_settings_validation():
    for gap, cap in ((0.0, 10), (-1e-4, 10), (math.nan, 10), (1e-4, 0)):
        with pytest.raises(DataError):
            SolverSettings(target_gap=gap, max_iters=cap)
