import math
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
from roadworks import scenario

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


# batch bounds, in links, that cut a table's solves three ways
BATCH_CUTS = {"default": scenario._BATCH_LINKS, "alone": 0, "one batch": math.inf}


def _record_batch_sizes(patch):
    """The sizes of the batches handed to the solver while `patch` (a
    MonkeyPatch) holds."""
    sizes, solve = [], scenario._solve_batch

    def recording(problems, settings):
        sizes.append(len(problems))
        return solve(problems, settings)

    patch.setattr(scenario, "_solve_batch", recording)
    return sizes


@pytest.fixture
def batch_sizes(monkeypatch):
    return _record_batch_sizes(monkeypatch)


def _by_batch_cut(fill):
    """`fill()` under each bound of BATCH_CUTS: a map from the cut's name to
    the result and the sizes of the batches handed to the solver."""
    results = {}
    for name, bound in BATCH_CUTS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "_BATCH_LINKS", bound)
            sizes = _record_batch_sizes(patch)
            results[name] = fill(), sizes
    return results


@pytest.fixture(scope="session")
def by_batch_cut():
    return _by_batch_cut


@pytest.fixture(scope="session")
def sioux_tables_by_cut(sioux):
    """Sioux Falls deltas of the 4 upgrades and their 6 pairs at gap 1e-4,
    with the batch sizes, under each cut of BATCH_CUTS."""
    ids = sioux.upgrades.ids
    subsets = [(i,) for i in ids] + list(combinations(ids, 2))
    settings = SolverSettings(target_gap=1e-4, max_iters=2000)
    return _by_batch_cut(lambda: compute_deltas(sioux.net, sioux.demand, sioux.upgrades, subsets, settings))


@pytest.fixture(scope="session")
def desk_table(desk):
    """All 63 subsets of the six corridor-widening projects, solved tight."""
    corridor = desk.upgrades.ids[:6]
    subsets = []
    for r in range(1, 7):
        subsets.extend(combinations(corridor, r))
    settings = SolverSettings(target_gap=1e-8, max_iters=4000)
    return compute_deltas(desk.net, desk.demand, desk.upgrades, subsets, settings)
