from dataclasses import replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from roadworks import (
    SolverSettings,
    compute_deltas,
    parse_demand,
    parse_network,
    parse_nodes,
    parse_upgrades,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def sioux():
    """Bundled 24-node network with its trip table and coordinates."""
    net = parse_network((DATA / "siouxfalls_net.tntp").read_text())
    coords = parse_nodes((DATA / "siouxfalls_nodes.tntp").read_text())
    net = replace(net, coordinates=coords)
    demand = parse_demand((DATA / "siouxfalls_trips.tntp").read_text())
    upgrades = parse_upgrades((DATA / "siouxfalls_upgrades.upg").read_text(), network=net)
    return SimpleNamespace(net=net, demand=demand, upgrades=upgrades)


@pytest.fixture(scope="session")
def desk():
    """Twin-corridor 6-node network with 8 candidate projects."""
    net = parse_network((DATA / "desk_net.tntp").read_text())
    coords = parse_nodes((DATA / "desk_nodes.tntp").read_text())
    net = replace(net, coordinates=coords)
    demand = parse_demand((DATA / "desk_trips.tntp").read_text())
    upgrades = parse_upgrades((DATA / "desk_upgrades.upg").read_text(), network=net)
    return SimpleNamespace(net=net, demand=demand, upgrades=upgrades)


@pytest.fixture(scope="session")
def sioux_tables_by_workers(sioux):
    """Sioux Falls deltas of the 4 upgrades and their 6 pairs at gap 1e-4,
    computed with 1 subset worker and with 2."""
    ids = sioux.upgrades.ids
    subsets = [(i,) for i in ids] + list(combinations(ids, 2))
    settings = SolverSettings(target_gap=1e-4, max_iters=2000)
    return tuple(
        compute_deltas(sioux.net, sioux.demand, sioux.upgrades, subsets, settings, workers=w)
        for w in (1, 2)
    )


@pytest.fixture(scope="session")
def desk_table(desk):
    """All 63 subsets of the six corridor-widening projects, solved tight."""
    corridor = desk.upgrades.ids[:6]
    subsets = []
    for r in range(1, 7):
        subsets.extend(combinations(corridor, r))
    settings = SolverSettings(target_gap=1e-8, max_iters=4000)
    return compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings)
