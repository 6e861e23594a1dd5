"""Delta tables, the k-wise estimator, and the subset caches."""

import threading
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import roadworks.scenario
from roadworks import (
    DataError,
    DeltaBook,
    DeltaTable,
    FileDeltaCache,
    MemoryDeltaCache,
    PlanningHorizon,
    SolverError,
    SolverSettings,
    canonical_subset,
    compute_deltas,
    demand_fingerprint,
    error_report,
    estimate_delta,
    format_error_report,
    greedy_schedule,
    network_fingerprint,
    parse_upgrades,
    restricted,
    solve_with,
    table_from_cache,
)

CORRIDOR = ("C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3")


def test_canonical_subset(desk):
    assert canonical_subset(desk.upgrades, ["C-A2", "C-A1"]) == ("C-A1", "C-A2")
    assert canonical_subset(desk.upgrades, [2, 1, "C-A1"]) == ("C-A1", "C-A2")
    assert canonical_subset(desk.upgrades, []) == ()
    with pytest.raises(DataError):
        canonical_subset(desk.upgrades, ["who"])


def test_baseline_and_singles(desk, desk_table):
    base = solve_with(desk.net, desk.demand, SolverSettings(target_gap=1e-8, max_iters=1000))
    assert desk_table.baseline_vht == base.vht
    assert set(desk_table.singles) == set(CORRIDOR)
    # widening any single link relieves a bottleneck on its corridor
    assert all(v > 0 for v in desk_table.singles.values())


def test_pair_corrections_match_definition(desk_table):
    ev = desk_table.evaluated_subsets
    for i, j in combinations(CORRIDOR, 2):
        want = ev[(i, j)] - ev[(i,)] - ev[(j,)]
        assert desk_table.coefficients[(i, j)] == pytest.approx(want, abs=1e-9)


def test_estimator_is_exact_at_full_order(desk_table):
    for S, exact in desk_table.evaluated_subsets.items():
        est = estimate_delta(desk_table, S, len(S))
        assert abs(est - exact) <= 1e-9 * max(1.0, abs(exact))


def test_low_orders_sum_coefficients(desk_table):
    S = ("C-A1", "C-A2", "C-B1")
    t = desk_table
    o1 = sum(t.singles[i] for i in S)
    assert estimate_delta(t, S, 1) == pytest.approx(o1)
    o2 = o1 + sum(t.coefficients[p] for p in combinations(S, 2))
    assert estimate_delta(t, S, 2) == pytest.approx(o2)
    o3 = o2 + t.coefficients[S]
    assert estimate_delta(t, S, 3) == pytest.approx(o3)
    assert estimate_delta(t, S, 99) == estimate_delta(t, S, 3)
    with pytest.raises(DataError):
        estimate_delta(t, S, 0)


def test_estimates_ignore_unknown_coefficients(desk_table):
    # estimating over an id with no stored coefficient adds nothing
    S = ("C-A1", "C-ZZ")
    assert estimate_delta(desk_table, S, 2) == desk_table.singles["C-A1"]


def test_coefficients_hold_every_order(desk_table):
    coeffs = desk_table.coefficients
    assert set(coeffs) == set(desk_table.evaluated_subsets)
    assert coeffs[("C-A1",)] == desk_table.singles["C-A1"]
    assert desk_table.singles == {W[0]: c for W, c in coeffs.items() if len(W) == 1}
    pair = ("C-A1", "C-A2")
    assert coeffs[pair] == desk_table.evaluated_subsets[pair] - coeffs[("C-A1",)] - coeffs[("C-A2",)]


def test_error_report_structure(desk_table):
    rows = error_report(desk_table, orders=[1, 2, 3, 4, 5, 6])
    assert [r.computations for r in rows] == [6, 21, 41, 56, 62, 63]
    assert rows[0].label == "individual only"
    assert rows[1].label == "all pairwise"
    assert rows[2].label == "all subsets size <= 3"
    gold = [S for S in desk_table.evaluated_subsets if len(S) >= 3]
    assert all(r.subset_count == len(gold) for r in rows)
    means = [r.mean_error_pct for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] <= 1e-7
    assert rows[-1].count_over_10pct == 0
    text = format_error_report(rows)
    assert "individual only" in text and "computations" in text


def test_error_report_rows_equal_a_per_order_estimate(desk):
    ids = desk.upgrades.ids
    subsets = [S for r in range(1, len(ids) + 1) for S in combinations(ids, r)]
    table = compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, SolverSettings(target_gap=1e-8, max_iters=1000))
    lean = restricted(table, pairs=[("C-A1", "C-B1"), ("C-A3", "C-B3")])
    for t, ref in ((table, None), (lean, table)):
        orders = [3, 1, 8, 2, 5, 3]
        rows = error_report(t, orders, reference=ref)
        gold = {S: d for S, d in (ref or t).evaluated_subsets.items() if len(S) >= 3 and d != 0.0}
        for k, row in zip(orders, rows):
            errors = [abs(estimate_delta(t, S, k) - gold[S]) / abs(gold[S]) for S in sorted(gold)]
            assert row.mean_error_pct == 100.0 * sum(errors) / len(errors)
            assert row.count_over_10pct == sum(1 for e in errors if e > 0.10)
            assert (row.order, row.subset_count) == (k, len(gold))


def test_restricted_pairs(desk_table):
    keep = [("C-A1", "C-A2"), ("C-B1", "C-B2")]
    lean = restricted(desk_table, pairs=keep)
    assert {W for W in lean.coefficients if len(W) >= 2} == set(keep)
    assert lean.singles == desk_table.singles
    # exact deltas stay available as the error reference
    assert lean.evaluated_subsets == desk_table.evaluated_subsets
    rows = error_report(lean, orders=[2], reference=desk_table)
    assert rows[0].computations == 6 + 2
    assert rows[0].label == "significant pairwise"


def test_compute_deltas_counts_solves(desk):
    settings = SolverSettings(target_gap=1e-6)
    cache = MemoryDeltaCache()
    table = compute_deltas(
        desk.net, desk.demand, desk.upgrades, [("C-A1",), ("C-B1",)], settings, cache=cache
    )
    assert table.tap_solves == 3  # baseline + two subsets
    assert set(table.singles) == {"C-A1", "C-B1"}
    again = compute_deltas(
        desk.net, desk.demand, desk.upgrades, [("C-A1",), ("C-B1",)], settings, cache=cache
    )
    assert again.tap_solves == 0
    assert again.singles == table.singles
    assert again.baseline_vht == table.baseline_vht
    # a new subset triggers exactly one fresh solve
    more = compute_deltas(
        desk.net, desk.demand, desk.upgrades, [("C-A1", "C-B1")], settings, cache=cache
    )
    assert more.tap_solves == 1


def test_compute_deltas_canonicalizes_subsets(desk):
    settings = SolverSettings(target_gap=1e-6)
    table = compute_deltas(
        desk.net,
        desk.demand,
        desk.upgrades,
        [("C-A2", "C-A1"), (1, 2), ("C-A1", "C-A2", "C-A2")],
        settings,
    )
    assert set(table.evaluated_subsets) == {("C-A1", "C-A2")}
    assert table.tap_solves == 2


def test_compute_deltas_records_gaps(desk):
    settings = SolverSettings(target_gap=1e-6)
    table = compute_deltas(desk.net, desk.demand, desk.upgrades, [("C-X1",)], settings)
    assert table.baseline_gap <= 1e-6
    assert table.gaps[("C-X1",)] <= 1e-6


def test_memory_cache_round_trip():
    cache = MemoryDeltaCache()
    assert cache.baseline() is None
    cache.set_baseline(100.0, 1e-7)
    assert cache.baseline() == (100.0, 1e-7)
    assert cache.get(("a",)) is None
    cache.put(("a",), 5.0, 1e-8)
    assert cache.get(("a",)) == (5.0, 1e-8)
    rows = cache.rows()
    rows.clear()  # a copy, not the live store
    assert cache.get(("a",)) == (5.0, 1e-8)


def test_file_cache_round_trip(tmp_path):
    path = str(tmp_path / "deltas.cache")
    cache = FileDeltaCache(path, "aaaa", "bbbb", 1e-6)
    cache.set_baseline(5000.0, 2e-7)
    cache.put(("u1",), 12.5, 1e-7)
    cache.put(("u1", "u2"), 30.0, 9e-7)

    again = FileDeltaCache(path, "aaaa", "bbbb", 1e-6)
    assert again.baseline() == (5000.0, 2e-7)
    assert again.get(("u1",)) == (12.5, 1e-7)
    assert again.get(("u1", "u2")) == (30.0, 9e-7)
    assert again.get(("u3",)) is None


def test_file_cache_rejects_other_inputs(tmp_path):
    path = str(tmp_path / "deltas.cache")
    FileDeltaCache(path, "aaaa", "bbbb", 1e-6)
    with pytest.raises(DataError, match="different network"):
        FileDeltaCache(path, "cccc", "bbbb", 1e-6)
    with pytest.raises(DataError, match="different demand"):
        FileDeltaCache(path, "aaaa", "dddd", 1e-6)
    with pytest.raises(DataError, match="different target_gap"):
        FileDeltaCache(path, "aaaa", "bbbb", 1e-4)


def test_file_cache_rejects_garbage(tmp_path):
    path = tmp_path / "deltas.cache"
    path.write_text("# roadworks delta cache\nnetwork aaaa\ndemand bbbb\ntarget_gap 1e-06\nwhat is this line even\n")
    with pytest.raises(DataError):
        FileDeltaCache(str(path), "aaaa", "bbbb", 1e-6)


def test_file_cache_drives_compute(desk, tmp_path):
    settings = SolverSettings(target_gap=1e-6)
    path = str(tmp_path / "desk.cache")
    cache = FileDeltaCache.open(path, desk.net, desk.demand, settings)
    table = compute_deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)], settings, cache=cache)
    assert table.tap_solves == 2

    reopened = FileDeltaCache.open(path, desk.net, desk.demand, settings)
    warm = compute_deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)], settings, cache=reopened)
    assert warm.tap_solves == 0
    assert warm.singles == table.singles


def test_delta_book_keeps_one_cache_per_network_and_demand(desk, tmp_path):
    settings = SolverSettings(target_gap=1e-6)
    book = DeltaBook(settings, cache_dir=str(tmp_path))
    first = book.deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)])
    assert first.tap_solves == 2
    again = book.deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)])
    assert again.tap_solves == 0
    assert again.singles == first.singles
    assert book.cache(desk.net, desk.demand) is book.cache(desk.net, desk.demand)
    net_hash = network_fingerprint(desk.net)
    base_file = f"deltas_{net_hash}_{demand_fingerprint(desk.demand)}.cache"
    assert [p.name for p in tmp_path.iterdir()] == [base_file]

    grown = desk.demand.scaled({1}, 1.1)
    book.deltas(desk.net, grown, desk.upgrades, [("C-A1",)])
    grown_file = f"deltas_{net_hash}_{demand_fingerprint(grown)}.cache"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([base_file, grown_file])
    # a second book over the same directory reads the rows back
    warm = DeltaBook(settings, cache_dir=str(tmp_path)).deltas(desk.net, grown, desk.upgrades, [("C-A1",)])
    assert warm.tap_solves == 0


def test_the_kept_workers_keyword_rejects_a_count_below_one(desk):
    horizon = PlanningHorizon.with_growth((900.0,), 0.05, desk.demand)
    for workers in (0, -3):
        with pytest.raises(DataError, match="workers must be at least 1"):
            compute_deltas(desk.net, desk.demand, desk.upgrades, [], SolverSettings(), workers=workers)
        with pytest.raises(DataError, match="workers must be at least 1"):
            greedy_schedule(desk.net, desk.upgrades, horizon, SolverSettings(), workers=workers)


def test_two_books_over_one_cache_dir_solve_each_row_once(desk, tmp_path):
    settings = SolverSettings(target_gap=1e-6)
    book = DeltaBook(settings, cache_dir=str(tmp_path))
    book.deltas(desk.net, desk.demand, desk.upgrades, [(i,) for i in desk.upgrades.ids])
    cache = book.cache(desk.net, desk.demand)
    pairs = [("C-A1", "C-B1"), ("C-A3", "C-B3")]
    # without growth every period's demand is the base demand, so the
    # scheduler's own book appends both pairs to the same file
    horizon = PlanningHorizon.with_growth((900.0, 900.0, 1700.0), 0.05, desk.demand, m=3650.0)
    greedy_schedule(desk.net, desk.upgrades, horizon, settings, pairs=pairs, cache_dir=str(tmp_path))
    table = book.deltas(desk.net, desk.demand, desk.upgrades, pairs)
    assert table.tap_solves == 0
    assert book.cache(desk.net, desk.demand) is cache
    rows = [line.split()[0] for line in Path(cache.path).read_text().splitlines()[4:]]
    assert len(rows) == len(set(rows))
    assert {"C-A1,C-B1", "C-A3,C-B3"} <= set(rows)


def test_file_cache_refresh_reads_complete_rows_of_other_writers(tmp_path):
    path = tmp_path / "deltas.cache"
    mine = FileDeltaCache(str(path), "aaaa", "bbbb", 1e-6)
    other = FileDeltaCache(str(path), "aaaa", "bbbb", 1e-6)
    other.set_baseline(5000.0, 2e-7)
    other.put(("u1",), 12.5, 1e-7)
    mine.put(("u2",), 3.0, 1e-7)  # after the other's rows, which stay unread
    assert mine.baseline() is None
    with open(path, "a") as fh:
        fh.write("u3 7.0")  # another writer's row, still mid-write
    mine.refresh()
    assert mine.baseline() == (5000.0, 2e-7)
    assert mine.rows() == {("u1",): (12.5, 1e-7), ("u2",): (3.0, 1e-7)}
    assert path.read_text().endswith("u3 7.0")  # never truncated by a refresh
    with open(path, "a") as fh:
        fh.write(" 1e-07\nu4 oops 1e-07\n")
    with pytest.raises(DataError, match="line 9: bad number"):
        mine.refresh()
    assert mine.get(("u3",)) == (7.0, 1e-7)


def test_table_from_cache_reads_rows_and_names_missing_subsets():
    cache = MemoryDeltaCache()
    with pytest.raises(DataError, match="no baseline row"):
        table_from_cache(cache)
    cache.set_baseline(1000.0, 1e-7)
    cache.put(("a",), 10.0, 1e-8)
    cache.put(("a", "b"), 25.0, 2e-8)
    cache.put(("b",), 12.0, 3e-8)
    table = table_from_cache(cache)
    assert table == DeltaTable(
        baseline_vht=1000.0,
        coefficients={("a",): 10.0, ("b",): 12.0, ("a", "b"): 3.0},
        evaluated_subsets={("a",): 10.0, ("a", "b"): 25.0, ("b",): 12.0},
        gaps={("a",): 1e-8, ("a", "b"): 2e-8, ("b",): 3e-8},
        baseline_gap=1e-7,
    )
    assert set(table_from_cache(cache, [("a",)]).evaluated_subsets) == {("a",)}
    with pytest.raises(DataError, match="missing subsets: a,c; c .*run the deltas command"):
        table_from_cache(cache, [("a",), ("a", "c"), ("c",)])


def test_table_from_cache_matches_compute(desk_table):
    cache = MemoryDeltaCache()
    cache.set_baseline(desk_table.baseline_vht, desk_table.baseline_gap)
    for S, delta in desk_table.evaluated_subsets.items():
        cache.put(S, delta, desk_table.gaps[S])
    assert table_from_cache(cache) == replace(desk_table, tap_solves=0)


def test_table_from_cache_skips_unreachable_coefficients():
    # without the (b,) single, no coefficient containing b can be derived
    cache = MemoryDeltaCache()
    cache.set_baseline(1000.0, 0.0)
    cache.put(("a",), 10.0, 0.0)
    cache.put(("a", "b"), 25.0, 0.0)
    table = table_from_cache(cache)
    assert table.coefficients == {("a",): 10.0}
    assert table.evaluated_subsets == {("a",): 10.0, ("a", "b"): 25.0}


def test_desk_tables_do_not_depend_on_the_batch_cut(desk, by_batch_cut):
    settings = SolverSettings(target_gap=1e-7)
    subsets = [("C-A1",), ("C-A2",), ("C-B1",), ("C-X1",), ("C-A1", "C-B1")]
    cuts = by_batch_cut(lambda: compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings))
    (default, sizes), (alone, alone_sizes), (whole, whole_sizes) = cuts.values()
    assert (sum(sizes), alone_sizes, whole_sizes) == (6, [1] * 6, [6])
    assert len(default.evaluated_subsets) == 5
    assert default == alone == whole


def test_sioux_falls_delta_tables_do_not_depend_on_the_batch_cut(sioux_tables_by_cut):
    (default, sizes), (alone, alone_sizes), (whole, whole_sizes) = sioux_tables_by_cut.values()
    assert (sum(sizes), alone_sizes, whole_sizes) == (11, [1] * 11, [11])
    assert len(default.evaluated_subsets) == 10
    assert default == alone == whole


def test_subsets_are_solved_on_the_calling_thread(desk, monkeypatch):
    solve = roadworks.scenario._solve_batch
    threads = []

    def recording(problems, settings):  # one thread id per problem, taken where the batch runs
        threads.extend(threading.get_ident() for _ in problems)
        yield from solve(problems, settings)

    monkeypatch.setattr(roadworks.scenario, "_solve_batch", recording)
    subsets = [("C-A1",), ("C-B1",), ("C-X1",), ("C-A1", "C-B1")]
    settings = SolverSettings(target_gap=1e-6)
    table = compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings, workers=2)
    assert table.tap_solves == len(threads) == 1 + len(subsets)
    assert set(threads) == {threading.get_ident()}


def _failing_problem(number):
    """A `_solve_batch` whose `number`-th problem handed to it (from 1) fails."""
    solve, handed = roadworks.scenario._solve_batch, []

    def failing(problems, settings):
        problems = list(problems)
        for i, (net, demand) in enumerate(problems):
            handed.append(net)
            if len(handed) == number:
                # a capacity that makes its first latencies overflow, so it
                # fails inside the batch while the others iterate on
                choked = (replace(net.links[0], capacity=1e-80),) + net.links[1:]
                problems[i] = (replace(net, links=choked), demand)
        return solve(problems, settings)

    return failing


def test_an_interrupted_fill_keeps_its_finished_rows(desk, tmp_path, monkeypatch):
    settings = SolverSettings(target_gap=1e-6)
    subsets = [("C-A1",), ("C-B1",), ("C-X1",), ("C-X2",), ("C-A1", "C-B1")]
    whole = FileDeltaCache.open(str(tmp_path / "whole.cache"), desk.net, desk.demand, settings)
    expected = compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings, cache=whole)

    solve = roadworks.scenario._solve_batch
    path = str(tmp_path / "cut.cache")
    # the baseline, then the third subset
    monkeypatch.setattr(roadworks.scenario, "_solve_batch", _failing_problem(4))
    with pytest.raises(SolverError, match="non-finite latency on link 1->3"), np.errstate(over="ignore"):
        compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings,
                       cache=FileDeltaCache.open(path, desk.net, desk.demand, settings))
    monkeypatch.setattr(roadworks.scenario, "_solve_batch", solve)

    reopened = FileDeltaCache.open(path, desk.net, desk.demand, settings)
    assert reopened.baseline() == whole.baseline()
    assert reopened.rows() == {S: whole.get(S) for S in subsets[:2]}
    rerun = compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings, cache=reopened)
    assert rerun.tap_solves == len(subsets) - 2
    assert replace(rerun, tap_solves=0) == replace(expected, tap_solves=0)
    assert Path(path).read_bytes() == Path(whole.path).read_bytes()

    # across the requests of one `tables` call, all in one batch: the third
    # request's first subset fails, and every row before it is kept
    requests = [
        (desk.net, desk.demand, subsets[:3]),
        (desk.net, desk.demand.scaled({1}, 1.1), subsets[3:]),
        (desk.net, desk.demand.scaled({1}, 1.2), subsets),
    ]
    expected = DeltaBook(settings, cache_dir=str(tmp_path / "whole")).tables(desk.upgrades, requests)
    monkeypatch.setattr(roadworks.scenario, "_solve_batch", _failing_problem(4 + 3 + 2))
    cut = DeltaBook(settings, cache_dir=str(tmp_path / "cut"))
    with pytest.raises(SolverError, match="non-finite latency on link 1->3"), np.errstate(over="ignore"):
        cut.tables(desk.upgrades, requests)
    monkeypatch.setattr(roadworks.scenario, "_solve_batch", solve)

    def files(name):
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    kept, full = files("cut"), files("whole")
    assert set(kept) == set(full) and len(kept) == 3
    third = cut.cache(desk.net, requests[2][1]).path
    for name in full:
        # the third request's file holds its header and baseline
        lines = 5 if name == Path(third).name else None
        assert kept[name] == b"".join(full[name].splitlines(keepends=True)[:lines])
    rerun = DeltaBook(settings, cache_dir=str(tmp_path / "cut")).tables(desk.upgrades, requests)
    assert [table.tap_solves for table in rerun] == [0, 0, len(subsets)]
    assert [replace(table, tap_solves=0) for table in rerun] == [replace(table, tap_solves=0) for table in expected]
    assert files("cut") == full


def test_tables_check_every_request_before_solving(desk):
    book = DeltaBook(SolverSettings(target_gap=1e-6))
    requests = [(desk.net, desk.demand, [("C-A1",)]), (desk.net, desk.demand.scaled({1}, 1.1), [("nope",)])]
    with pytest.raises(DataError, match="unknown upgrade id 'nope'"):
        book.tables(desk.upgrades, requests)
    assert book.cache(desk.net, desk.demand).baseline() is None


def test_a_subset_that_cannot_be_built_keeps_the_rows_before_it(desk, tmp_path):
    upgrades = parse_upgrades(
        """PROJECT A 100 capacity-upgrade
  MOD 1 3 CAPACITY=800
PROJECT B 100 capacity-upgrade
  MOD 1 3 CAPACITY=900
PROJECT C 100 capacity-upgrade
  MOD 5 6 CAPACITY=800
""",
        network=desk.net,
    )
    settings = SolverSettings(target_gap=1e-6)
    whole = FileDeltaCache.open(str(tmp_path / "whole.cache"), desk.net, desk.demand, settings)
    compute_deltas(desk.net, desk.demand, upgrades, [("A",), ("B",), ("C",)], settings, cache=whole)
    path = str(tmp_path / "cut.cache")
    with pytest.raises(DataError, match="upgrades A and B both modify link 1->3"):
        compute_deltas(desk.net, desk.demand, upgrades, [("A",), ("B",), ("C",), ("A", "B"), ("A", "C")],
                       settings, cache=FileDeltaCache.open(path, desk.net, desk.demand, settings))
    assert Path(path).read_bytes() == Path(whole.path).read_bytes()


def test_capped_solves_warn_once_per_subset(desk):
    settings = SolverSettings(target_gap=1e-8, max_iters=1)
    subsets = [("C-A1",), ("C-A1", "C-B1")]
    with pytest.warns(RuntimeWarning) as record:
        table = compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings)
    messages = [str(w.message) for w in record if w.category is RuntimeWarning]
    assert [m.split(":")[0] for m in messages] == ["baseline", "subset {C-A1}", "subset {C-A1,C-B1}"]
    assert all("stopped after 1 iterations" in m for m in messages)
    # the table is still built from the capped solves, as before
    assert set(table.evaluated_subsets) == set(subsets)


def test_converged_solves_do_not_warn(desk, recwarn):
    settings = SolverSettings(target_gap=1e-6, max_iters=1000)
    compute_deltas(desk.net, desk.demand, desk.upgrades, [("C-A1",)], settings)
    assert not [w for w in recwarn if w.category is RuntimeWarning]
