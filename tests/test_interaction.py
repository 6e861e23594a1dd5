"""Upgrade geometry and interaction-pair prediction."""

import math
import random

import pytest

from roadworks import (
    DataError,
    ParseError,
    compute_locations,
    format_pair_list,
    kmeans,
    pairwise_distances,
    parse_pair_list,
    predict_pairs_clustering,
    predict_pairs_count,
    predict_pairs_threshold,
)

from oracles import best_partition_wcss, wcss_of

CORRIDOR = ("C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3")


def partition(assign):
    groups = {}
    for i, c in enumerate(assign):
        groups.setdefault(c, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def test_locations_average_touched_link_midpoints(desk):
    locs = compute_locations(desk.net, desk.upgrades)
    assert [l.upgrade_id for l in locs] == list(desk.upgrades.ids)
    assert [l.index for l in locs] == list(range(1, 9))  # 1-based, like resolve()
    by_id = {l.upgrade_id: (l.x, l.y) for l in locs}
    assert by_id["C-A1"] == (15.0, 5.0)
    assert by_id["C-A2"] == (45.0, 10.0)
    assert by_id["C-A3"] == (80.0, 5.0)
    assert by_id["C-B2"] == (45.0, -10.0)
    # a new road contributes the midpoint of each added link
    assert by_id["C-X1"] == (30.0, 0.0)
    assert by_id["C-X2"] == (60.0, 0.0)


def test_locations_need_coordinates(desk):
    from dataclasses import replace

    bare = replace(desk.net, coordinates=None)
    with pytest.raises(DataError):
        compute_locations(bare, desk.upgrades)


def test_pairwise_distances(desk):
    dist = pairwise_distances(desk.net, desk.upgrades)
    assert len(dist) == 8 * 7 // 2
    assert dist[("C-A1", "C-B1")] == pytest.approx(10.0)
    assert dist[("C-A2", "C-B2")] == pytest.approx(20.0)
    assert dist[("C-A1", "C-A2")] == pytest.approx(math.hypot(30.0, 5.0))
    assert all(k == tuple(sorted(k)) for k in dist)


def test_threshold_is_strict(desk):
    dist = pairwise_distances(desk.net, desk.upgrades)
    assert predict_pairs_threshold(dist, 10.0) == set()
    close = predict_pairs_threshold(dist, 10.5)
    assert close == {("C-A1", "C-B1"), ("C-A3", "C-B3")}
    wider = predict_pairs_threshold(dist, 25.0)
    assert ("C-A2", "C-B2") in wider
    assert close < wider


def test_count_takes_nearest(desk):
    dist = pairwise_distances(desk.net, desk.upgrades)
    assert predict_pairs_count(dist, 0) == set()
    assert predict_pairs_count(dist, 1) == {("C-A1", "C-B1")}  # 10.0 tie, lex lower
    assert predict_pairs_count(dist, 2) == {("C-A1", "C-B1"), ("C-A3", "C-B3")}
    everything = predict_pairs_count(dist, 999)
    assert everything == set(dist)


def test_kmeans_separates_corridor_columns(desk):
    locs = [l for l in compute_locations(desk.net, desk.upgrades) if l.upgrade_id in CORRIDOR]
    points = [(l.x, l.y) for l in locs]
    assign = kmeans(points, 3, seed=0)
    # columns at x = 15, 45, 80
    assert partition(assign) == frozenset(
        [frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]
    )


def test_kmeans_deterministic_and_seeded():
    rng = random.Random(5)
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(12)]
    a = kmeans(points, 3, seed=7)
    b = kmeans(points, 3, seed=7)
    assert a == b


def test_kmeans_near_optimal_on_small_sets():
    rng = random.Random(314)
    for _ in range(10):
        n = rng.randint(4, 7)
        k = rng.randint(2, 3)
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        assign = kmeans(points, k, restarts=10, seed=1)
        got = wcss_of(points, assign, k)
        best = best_partition_wcss(points, k)
        assert got <= best * (1.0 + 1e-9) + 1e-12


def test_kmeans_degenerate_cases():
    points = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)]
    assert kmeans(points, 1) == [0, 0, 0]
    assert len(set(kmeans(points, 3))) == 3
    with pytest.raises(DataError):
        kmeans(points, 0)
    with pytest.raises(DataError):
        kmeans(points, 4)
    for restarts in (0, -4):
        with pytest.raises(DataError, match="restarts must be at least 1"):
            kmeans(points, 2, restarts=restarts)


def test_clustering_pairs(desk):
    locs = [l for l in compute_locations(desk.net, desk.upgrades) if l.upgrade_id in CORRIDOR]
    pairs = predict_pairs_clustering(locs, 3, seed=0)
    assert pairs == {("C-A1", "C-B1"), ("C-A2", "C-B2"), ("C-A3", "C-B3")}


def test_pair_list_round_trip(desk):
    dist = pairwise_distances(desk.net, desk.upgrades)
    pairs = {("C-A1", "C-B1"), ("C-A2", "C-B2")}
    text = format_pair_list(pairs, dist)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("C-A1 C-B1 ")  # nearer pair first
    assert parse_pair_list(text) == sorted(pairs)

    bare = format_pair_list(pairs)
    assert parse_pair_list(bare) == sorted(pairs)
    assert format_pair_list([]) == ""


def test_parse_pair_list_errors():
    with pytest.raises(ParseError) as err:
        parse_pair_list("a b\nc\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_pair_list("a a\n")
    with pytest.raises(ParseError):
        parse_pair_list("a b notanumber\n")
    assert parse_pair_list("# comment only\n\n") == []
    assert parse_pair_list("b a 4.5 # swapped\n") == [("a", "b")]
