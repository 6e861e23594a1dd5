"""The roadworks entry points that perfbench/workloads.py calls, on desk.

perfbench's own suite is not part of the tier-1 run.  This test calls every
entry point its workloads use, with the same argument shapes, so a change
that renames or reshapes one of them fails here rather than only in the
benchmark.
"""

import roadworks as rw

M = 3650.0


def test_benchmark_entry_points_keep_their_shapes(desk, tmp_path):
    net, demand, ups = desk.net, desk.demand, desk.upgrades
    settings = rw.SolverSettings(target_gap=1e-6)
    base = rw.solve_with(net, demand, settings)
    growth = (rw.GrowthRule((1, 3), 1.1),)
    horizon = rw.PlanningHorizon.with_growth((900.0, 1700.0), 0.05, demand, growth, m=M)

    # sf-plan's selection step: a file cache seeded with the baseline solve
    cache = rw.FileDeltaCache.open(str(tmp_path / "period1.cache"), net, demand, settings)
    assert cache.baseline() is None
    cache.set_baseline(base.vht, base.relative_gap)
    assert cache.baseline() == (base.vht, base.relative_gap)
    subsets = [(i,) for i in ups.ids] + [("C-A1", "C-B1")]
    table = rw.compute_deltas(net, demand, ups, subsets, settings, cache=cache, workers=2)
    assert table.tap_solves == len(subsets)
    assert set(table.evaluated_subsets) == set(subsets)
    assert set(table.singles) == set(ups.ids)
    problem = rw.SelectionProblem.from_delta_table(table, ups, budget=2400.0, m=M)
    assert rw.optimize_subset(problem).spend <= 2400.0

    # greedy, its exact check, and the independent schedule over period caches
    plan = rw.greedy_schedule(net, ups, horizon, settings, workers=2, cache_dir=str(tmp_path / "greedy"))
    assert rw.check_schedule(ups, horizon, plan.assignments).ok
    realized = rw.realized_npv(net, ups, horizon, plan.assignments, settings)
    assert isinstance(realized, float)
    values = {}
    for t in range(1, horizon.T + 1):
        demand_t = horizon.demand_for(t)
        cache_t = rw.FileDeltaCache.open(str(tmp_path / f"period{t}.cache"), net, demand_t, settings)
        table_t = rw.compute_deltas(net, demand_t, ups, [(i,) for i in ups.ids], settings, cache=cache_t, workers=2)
        assert table_t.tap_solves == (0 if t == 1 else 1 + len(ups.ids))
        values.update({(i, t): table_t.singles[i] for i in ups.ids})
    schedule = rw.independent_schedule(values, ups, horizon)
    assert rw.check_schedule(ups, horizon, schedule.assignments).ok

    # the fingerprints that name greedy's cache files
    key = (rw.network_fingerprint(rw.apply_upgrades(net, ups, [])), rw.demand_fingerprint(horizon.demand_for(2)))
    assert (tmp_path / "greedy" / f"deltas_{key[0]}_{key[1]}.cache").exists()
