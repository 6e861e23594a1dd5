"""Seeded generator of the grid-solve network, written as TNTP text.

The make-up is fixed: a 64 x 64 lattice (4,096 nodes, 16,128 directed links),
25 zones on a 5 x 5 sub-lattice, demand between every ordered zone pair (600
OD pairs) and two corridor-widening projects close enough to be screened as
an interacting pair.  Link parameters and demand come from one fixed stream
tied to lattice positions, so every seed yields the same network up to
labelling.  The seed permutes the ids of the non-zone nodes and the order of
the link rows.  That changes what the parser reads and the order in which the
shortest-path kernels visit nodes, but not the equilibrium, the iteration
count or the amount of work, which keeps the figures of different seeds
comparable.
"""

from __future__ import annotations

import random

SIDE = 64
ZONE_LINES = (0, 16, 32, 47, 63)  # rows and columns of the zone sub-lattice
DEMAND_PER_PAIR = 34.0
CAPACITY = 1000.0
PAIR_THRESHOLD = 12.0  # G-ROW and G-COL midpoints lie about 11.3 apart

_MAKEUP_SEED = "perfbench-grid-makeup"


def _node_ids(seed: int) -> dict[tuple[int, int], int]:
    """Lattice cell -> node id; zones take ids 1..25 in row-major order."""
    ids: dict[tuple[int, int], int] = {}
    for r in ZONE_LINES:
        for c in ZONE_LINES:
            ids[(r, c)] = len(ids) + 1
    others = [(r, c) for r in range(SIDE) for c in range(SIDE) if (r, c) not in ids]
    labels = list(range(len(ids) + 1, SIDE * SIDE + 1))
    random.Random(seed).shuffle(labels)
    ids.update(zip(others, labels))
    return ids


def _links(makeup: random.Random) -> list[tuple[tuple[int, int], tuple[int, int], float, float]]:
    """(from cell, to cell, capacity, free-flow time) for every lattice edge."""
    out = []
    for r in range(SIDE):
        for c in range(SIDE):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < SIDE and 0 <= cc < SIDE:
                    capacity = CAPACITY * makeup.uniform(0.8, 1.2)
                    fftime = makeup.uniform(0.8, 1.2)
                    out.append(((r, c), (rr, cc), capacity, fftime))
    return out


def generate(seed: int) -> dict[str, str]:
    """TNTP texts keyed 'net', 'trips', 'nodes' and 'upgrades'."""
    makeup = random.Random(_MAKEUP_SEED)
    ids = _node_ids(seed)
    links = _links(makeup)
    zones = len(ZONE_LINES) ** 2
    trips = {}
    for o in range(1, zones + 1):
        for d in range(1, zones + 1):
            if o != d:
                trips[(o, d)] = round(DEMAND_PER_PAIR * makeup.uniform(0.8, 1.2), 3)
    capacity_of = {(a, b): cap for a, b, cap, _ in links}

    rows = [
        f"{ids[a]}\t{ids[b]}\t{cap!r}\t1.0\t{fft!r}\t0.15\t4\t0\t0\t1\t;"
        for a, b, cap, fft in links
    ]
    random.Random(seed + 1).shuffle(rows)
    net = (
        f"<NUMBER OF ZONES> {zones}\n<NUMBER OF NODES> {SIDE * SIDE}\n"
        f"<FIRST THRU NODE> 1\n<NUMBER OF LINKS> {len(rows)}\n<END OF METADATA>\n\n"
        "~ init term capacity length fftime b power speed toll type ;\n"
        + "\n".join(rows) + "\n"
    )

    total = sum(trips.values())
    trip_lines = [f"<NUMBER OF ZONES> {zones}", f"<TOTAL OD FLOW> {total!r}", "<END OF METADATA>", ""]
    for o in range(1, zones + 1):
        trip_lines.append(f"Origin {o}")
        trip_lines.extend(f"    {d} : {trips[(o, d)]!r};" for d in range(1, zones + 1) if d != o)
    node_lines = ["Node\tX\tY\t;"]
    node_lines += [f"{ids[(r, c)]}\t{float(c)!r}\t{float(r)!r}\t;" for r in range(SIDE) for c in range(SIDE)]

    def widen(cells):
        mods = []
        for a, b in zip(cells, cells[1:]):
            for u, v in ((a, b), (b, a)):
                mods.append(f"  MOD {ids[u]} {ids[v]} CAPACITY={2.0 * capacity_of[(u, v)]!r}")
        return mods

    upgrades = ["# Two corridor widenings that meet at zone (32, 32)."]
    upgrades.append("PROJECT G-ROW 1600 capacity-upgrade")
    upgrades += widen([(32, c) for c in range(16, 33)])
    upgrades.append("PROJECT G-COL 1600 capacity-upgrade")
    upgrades += widen([(r, 32) for r in range(16, 33)])
    return {
        "net": net,
        "trips": "\n".join(trip_lines) + "\n",
        "nodes": "\n".join(node_lines) + "\n",
        "upgrades": "\n".join(upgrades) + "\n",
    }
