"""The Bellman-Ford kernel and the many-origin array path against a naive
relaxation oracle and a binary-heap Dijkstra."""

import math
import random

import numpy as np
import pytest

from roadworks import (
    DataError,
    Link,
    Network,
    ShortestPathTree,
    shortest_paths,
)
from roadworks.shortest_path import _BatchGraph, _trees_for_origins

from oracles import bellman_ford_labels, dijkstra


def random_digraph(rng, max_nodes=60, max_arcs=400, cost_pool=None):
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_arcs)
    links = []
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        links.append(Link(u, v, 1.0, 1.0, 0.0, 1.0))
    if not links:
        links.append(Link(1, 2, 1.0, 1.0, 0.0, 1.0))
    if cost_pool is None:
        costs = [rng.uniform(0.0, 10.0) for _ in links]
    else:
        costs = [rng.choice(cost_pool) for _ in links]
    first_thru = rng.choice([1, 1, 1, rng.randint(1, max(1, n // 4))])
    net = Network(node_count=n, links=tuple(links), zone_count=1, first_thru_node=first_thru)
    return net, costs


def as_tree(source, dist, pred, nodes):
    labels = {node: float(dist[node]) for node in nodes}
    preds = {node: int(pred[node]) for node in nodes if pred[node] >= 0}
    return ShortestPathTree(source=source, labels=labels, predecessor_link=preds)


def every_tree(net, costs, source):
    """The tree from `source` by the kernel, by the Dijkstra reference, and by
    the array path, which builds it in one chunk with two more origins."""
    kernel = shortest_paths(net, costs, source)
    dist, pred = dijkstra(net.node_count, net.adjacency, costs, source, net.first_thru_node)
    reference = as_tree(source, dist, pred, net.nodes)
    graph = _BatchGraph([net])
    dist, pred = _trees_for_origins(graph, np.array(costs, dtype=float), [net.node_count, source, 1], [0, 0, 0])
    return [kernel, reference, as_tree(source, dist[1], pred[1], net.nodes)]


def assert_labels_close(got, want, rel=1e-12):
    assert got.keys() == want.keys()
    for node, w in want.items():
        g = got[node]
        if math.isinf(w):
            assert math.isinf(g)
        else:
            assert abs(g - w) <= rel * max(1.0, abs(w))


def test_all_kernels_match_naive_relaxation():
    # the kernel, the array path and the Dijkstra reference
    rng = random.Random(20260819)
    for _ in range(150):
        net, costs = random_digraph(rng)
        source = rng.randint(1, net.node_count)
        want = bellman_ford_labels(net, costs, source)
        for tree in every_tree(net, costs, source):
            assert_labels_close(tree.labels, want)


def test_kernels_agree_on_predecessor_trees_under_ties():
    # integer cost pool (zero included) forces many equal-label paths; the
    # shared tie rule (keep the lower link index) must make the kernel, the
    # array path and the Dijkstra reference build the same tree
    rng = random.Random(7)
    for _ in range(60):
        net, costs = random_digraph(rng, max_nodes=40, max_arcs=300, cost_pool=[0.0, 1.0, 2.0, 3.0])
        source = rng.randint(1, net.node_count)
        trees = every_tree(net, costs, source)
        for other in trees[1:]:
            assert other.labels == trees[0].labels
            assert other.predecessor_link == trees[0].predecessor_link


def test_source_and_unreachable_conventions():
    net = Network(
        node_count=4,
        links=(Link(1, 2, 1.0, 1.0, 0.0, 1.0), Link(4, 3, 1.0, 1.0, 0.0, 1.0)),
        zone_count=1,
    )
    for tree in every_tree(net, [2.0, 5.0], 1):
        assert tree.labels[1] == 0.0
        assert tree.labels[2] == 2.0
        assert math.isinf(tree.labels[3])
        assert math.isinf(tree.labels[4])
        assert set(tree.predecessor_link) == {2}
        assert tree.predecessor_link[2] == 0


def test_centroids_never_relay():
    # 1 and 2 are centroids; the only 1->3 route runs through centroid 2, so
    # with first_thru_node=3 node 3 must stay unreachable
    links = (
        Link(1, 2, 1.0, 1.0, 0.0, 1.0),
        Link(2, 3, 1.0, 1.0, 0.0, 1.0),
    )
    net = Network(node_count=3, links=links, zone_count=2, first_thru_node=3)
    for tree in every_tree(net, [1.0, 1.0], 1):
        assert tree.labels[2] == 1.0
        assert math.isinf(tree.labels[3])


def test_centroid_source_can_leave():
    # the source is below first_thru_node but its own out-arcs still count
    links = (Link(1, 3, 1.0, 1.0, 0.0, 1.0), Link(3, 2, 1.0, 1.0, 0.0, 1.0))
    net = Network(node_count=3, links=links, zone_count=2, first_thru_node=3)
    for tree in every_tree(net, [4.0, 2.0], 1):
        assert tree.labels[3] == 4.0
        assert tree.labels[2] == 6.0


def test_parallel_links_prefer_lower_index():
    links = (
        Link(1, 2, 1.0, 1.0, 0.0, 1.0),
        Link(1, 2, 1.0, 1.0, 0.0, 1.0),
    )
    net = Network(node_count=2, links=links, zone_count=1)
    for tree in every_tree(net, [3.0, 3.0], 1):
        assert tree.predecessor_link[2] == 0


def test_zero_cost_cycles_terminate():
    links = (
        Link(1, 2, 1.0, 1.0, 0.0, 1.0),
        Link(2, 3, 1.0, 1.0, 0.0, 1.0),
        Link(3, 2, 1.0, 1.0, 0.0, 1.0),
        Link(3, 4, 1.0, 1.0, 0.0, 1.0),
    )
    net = Network(node_count=4, links=links, zone_count=1)
    for tree in every_tree(net, [0.0, 0.0, 0.0, 0.0], 1):
        assert tree.labels == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}


def test_input_validation():
    net = Network(node_count=2, links=(Link(1, 2, 1.0, 1.0, 0.0, 1.0),), zone_count=1)
    with pytest.raises(DataError):
        shortest_paths(net, [1.0], 5)
    with pytest.raises(DataError):
        shortest_paths(net, [1.0, 2.0], 1)
    with pytest.raises(DataError):
        shortest_paths(net, [-1.0], 1)
    with pytest.raises(DataError):
        shortest_paths(net, [math.nan], 1)


def test_invalid_cost_names_the_first_bad_link():
    links = (Link(1, 2, 1.0, 1.0, 0.0, 1.0), Link(2, 3, 1.0, 1.0, 0.0, 1.0), Link(3, 1, 1.0, 1.0, 0.0, 1.0))
    net = Network(node_count=3, links=links, zone_count=1)
    with pytest.raises(DataError, match=r"link 2->3 has invalid cost -2.0"):
        shortest_paths(net, [1.0, -2.0, math.nan], 1)
    with pytest.raises(DataError, match=r"link 3->1 has invalid cost inf"):
        shortest_paths(net, np.array([1.0, 0.0, math.inf]), 1)
