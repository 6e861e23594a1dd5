"""Hand-built networks shared across test modules: tiny ones, and a seeded
grid large enough for the array path and for OpenBLAS to split a dot
product over threads, which no solve may depend on."""

import random

from roadworks import DemandMatrix, Link, Network, parse_upgrades


def two_link_net(t1=10.0, t2=20.0, q1=1000.0, q2=1000.0, alpha=0.15, beta=4.0):
    """Two parallel links from node 1 to node 2."""
    links = (
        Link(1, 2, q1, t1, alpha, beta),
        Link(1, 2, q2, t2, alpha, beta),
    )
    return Network(node_count=2, links=links, zone_count=2)


def two_link_demand(total):
    return DemandMatrix({(1, 2): float(total)})


# Classic 4-node paradox instance: two 2-hop routes 1->2->4 and 1->3->4, each
# one congestible leg (5 + 0.02 f) plus one constant 25-minute leg.  A free
# 2->3 connector makes everyone pile onto both congestible legs.
def braess_net():
    links = (
        Link(1, 2, 1000.0, 5.0, 4.0, 1.0),
        Link(2, 4, 1000.0, 25.0, 0.0, 1.0),
        Link(1, 3, 1000.0, 25.0, 0.0, 1.0),
        Link(3, 4, 1000.0, 5.0, 4.0, 1.0),
    )
    return Network(node_count=4, links=links, zone_count=4)


def braess_demand():
    return DemandMatrix({(1, 4): 1000.0})


BRAESS_UPGRADE_TEXT = """\
# zero-cost connector between the route midpoints
PROJECT bypass 100 new-road
  ADD 2 3 1000 0 0 4 1
"""


def braess_upgrades(net):
    return parse_upgrades(BRAESS_UPGRADE_TEXT, network=net)


def grid_net(side=51, zone_lines=(0, 12, 25, 38, 50)):
    """A side x side lattice with a link each way between neighbours (side 51:
    2,601 nodes, 10,200 links).  Zones sit where the zone rows and columns
    cross and take ids 1..25 in row-major order; they never relay.  Costs and
    capacities come from a fixed seed."""
    rng = random.Random(51)
    ids = {(r, c): i + 1 for i, (r, c) in enumerate((r, c) for r in zone_lines for c in zone_lines)}
    for r in range(side):
        for c in range(side):
            ids.setdefault((r, c), len(ids) + 1)
    links = []
    for (r, c), u in sorted(ids.items()):
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            v = ids.get((r + dr, c + dc))
            if v is not None:
                links.append(Link(u, v, 1000.0 * rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2), 0.15, 4.0))
    zones = len(zone_lines) ** 2
    return Network(node_count=side * side, links=tuple(links), zone_count=zones, first_thru_node=zones + 1)


def grid_demand(zones=25, per_pair=40.0):
    """Demand between every ordered pair of the grid's zones."""
    rng = random.Random(52)
    return DemandMatrix(
        {(o, d): per_pair * rng.uniform(0.8, 1.2) for o in range(1, zones + 1) for d in range(1, zones + 1) if o != d}
    )
