"""Road network, travel demand, and upgrade-project domain types plus file I/O.

Link and trip files follow the TNTP conventions: a metadata block of
``<TAG> value`` lines closed by ``<END OF METADATA>``, ``~`` comment lines,
and whitespace-separated data rows terminated by ``;``.  Link rows carry
``init_node term_node capacity length free_flow_time B power speed toll
link_type``; the B column is the BPR alpha and the power column the BPR beta.
Trip files hold ``Origin r`` blocks of ``dest : flow;`` entries.

Upgrade files use a small line grammar of our own::

    # comment
    PROJECT <id> <cost_k$> <capacity-upgrade|new-road>
        ADD <from> <to> <capacity> <length> <free_flow_time> <alpha> <beta>
        MOD <from> <to> [parallel_index] CAPACITY=<v> [FFTIME=<v>]

Edit lines belong to the most recent PROJECT line; indentation is free-form.
Costs are in thousands of dollars (k$) throughout the package.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "Link",
    "Network",
    "DemandMatrix",
    "LinkModification",
    "Upgrade",
    "UpgradeSet",
    "parse_network",
    "parse_demand",
    "parse_nodes",
    "parse_upgrades",
    "apply_upgrades",
    "write_network",
    "network_fingerprint",
    "demand_fingerprint",
]


@dataclass(frozen=True)
class Link:
    """One directed road segment with BPR latency parameters."""

    from_node: int
    to_node: int
    capacity: float
    free_flow_time: float
    alpha: float
    beta: float
    length: float = 0.0

    def __post_init__(self):
        # written `not x > 0`, so NaN fails each check
        if not self.capacity > 0:
            raise DataError(f"link {self.from_node}->{self.to_node}: capacity must be positive")
        if not self.free_flow_time >= 0:
            raise DataError(f"link {self.from_node}->{self.to_node}: negative free-flow time")
        if not (self.alpha >= 0 and self.beta >= 0):
            raise DataError(f"link {self.from_node}->{self.to_node}: negative BPR parameter")


@dataclass(frozen=True)
class Network:
    """Immutable directed network. Nodes are dense 1-based ids; zone centroids
    are ids 1..zone_count, and ids below first_thru_node never act as
    intermediate nodes on a path."""

    node_count: int
    links: tuple[Link, ...]
    zone_count: int
    first_thru_node: int = 1
    coordinates: Mapping[int, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise DataError("network must have at least one node")
        if not 0 <= self.zone_count <= self.node_count:
            raise DataError("zone count must lie within the node range")
        if self.first_thru_node < 1:
            raise DataError("first_thru_node must be >= 1")
        for link in self.links:
            if not (1 <= link.from_node <= self.node_count and 1 <= link.to_node <= self.node_count):
                raise DataError(
                    f"link {link.from_node}->{link.to_node} references a node outside 1..{self.node_count}"
                )

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """adjacency[u] lists (to_node, link_index) in file order; index 0 unused."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count + 1)]
        for idx, link in enumerate(self.links):
            out[link.from_node].append((link.to_node, idx))
        return tuple(tuple(entries) for entries in out)

    @cached_property
    def out_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR layout of ``adjacency``: ``(start, link, head)`` int arrays; the
        out-links of node u are ``link[start[u]:start[u + 1]]``, in file order,
        and ``head`` holds their to-nodes."""
        tails = np.array([l.from_node for l in self.links], dtype=np.int64)
        link = np.argsort(tails, kind="stable")
        start = np.zeros(self.node_count + 2, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.node_count + 1), out=start[1:])
        head = np.array([l.to_node for l in self.links], dtype=np.int64)[link]
        return start, link, head

    @cached_property
    def _fingerprint(self) -> str:
        """Stable 16-hex digest of the contents (coordinates included)."""
        h = hashlib.sha256(write_network(self).encode())
        if self.coordinates:
            for node in sorted(self.coordinates):
                x, y = self.coordinates[node]
                h.update(f"{node}:{x!r}:{y!r};".encode())
        return h.hexdigest()[:16]

    @cached_property
    def _parallel_index(self) -> dict[tuple[int, int, int], int]:
        seen: dict[tuple[int, int], int] = {}
        table: dict[tuple[int, int, int], int] = {}
        for idx, link in enumerate(self.links):
            pair = (link.from_node, link.to_node)
            rank = seen.get(pair, 0)
            seen[pair] = rank + 1
            table[(link.from_node, link.to_node, rank)] = idx
        return table

    def find_link(self, from_node: int, to_node: int, parallel_index: int = 0) -> int | None:
        """Index of the parallel_index-th link from->to (file order), or None."""
        return self._parallel_index.get((from_node, to_node, parallel_index))

    def with_coordinates(self, coordinates: Mapping[int, tuple[float, float]]) -> "Network":
        return replace(self, coordinates=dict(coordinates))


@dataclass(frozen=True)
class DemandMatrix:
    """Sparse origin-destination demand; zero entries are not stored."""

    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        for (r, s), q in self.entries.items():
            if r < 1 or s < 1:
                raise DataError(f"demand entry ({r},{s}) has a non-positive node id")
            if not q >= 0:
                raise DataError(f"demand entry ({r},{s}) is {'negative' if q < 0 else 'not a finite number'}")
        if self.total == math.inf:  # an infinite entry, or finite ones whose sum overflows
            for (r, s), q in self.entries.items():
                if q == math.inf:
                    raise DataError(f"demand entry ({r},{s}) is not a finite number")

    @cached_property
    def total(self) -> float:
        return float(sum(self.entries.values()))

    @cached_property
    def by_origin(self) -> tuple[tuple[int, tuple[tuple[int, float], ...]], ...]:
        """((origin, ((dest, flow), ...)), ...) sorted by origin then destination,
        with zero-flow entries dropped."""
        grouped: dict[int, list[tuple[int, float]]] = {}
        for (r, s), q in self.entries.items():
            if q > 0:
                grouped.setdefault(r, []).append((s, q))
        return tuple(
            (r, tuple(sorted(dests))) for r, dests in sorted(grouped.items())
        )

    @cached_property
    def _fingerprint(self) -> str:
        """Stable 16-hex digest of the entries."""
        h = hashlib.sha256()
        for (r, s), q in sorted(self.entries.items()):
            h.update(f"{r},{s}:{q!r};".encode())
        return h.hexdigest()[:16]

    def scaled(self, zones: frozenset[int] | set[int], factor: float) -> "DemandMatrix":
        """Multiply every entry whose origin or destination lies in `zones`."""
        if not 0 <= factor < math.inf:
            raise DataError("demand scale factor must be non-negative and finite")
        out = {}
        for (r, s), q in self.entries.items():
            if r in zones or s in zones:
                q = q * factor
                if q == math.inf:
                    raise DataError(f"demand entry ({r},{s}) scaled by {factor!r} overflows")
            if q != 0:
                out[(r, s)] = q
        return DemandMatrix(out)


@dataclass(frozen=True)
class LinkModification:
    """Retargets one existing link, selected by (from, to, parallel_index)."""

    from_node: int
    to_node: int
    capacity: float
    free_flow_time: float | None = None
    parallel_index: int = 0

    def selector(self) -> str:
        return f"{self.from_node}->{self.to_node}[{self.parallel_index}]"


UPGRADE_KINDS = ("capacity-upgrade", "new-road")


@dataclass(frozen=True)
class Upgrade:
    """One candidate capital project: a cost plus a bundle of link edits."""

    id: str
    cost: float
    kind: str
    additions: tuple[Link, ...] = ()
    modifications: tuple[LinkModification, ...] = ()

    def __post_init__(self):
        if not self.id or re.search(r"[\s,]", self.id):
            raise DataError(f"upgrade id {self.id!r} must be non-empty with no whitespace or commas")
        if self.id == "BASELINE" or self.id.startswith("#"):
            # delta caches read these as the baseline row and as comments
            raise DataError(f"upgrade id {self.id!r} is reserved (BASELINE, or a leading '#')")
        if not self.cost >= 0:
            raise DataError(f"upgrade {self.id}: negative cost")
        if self.kind not in UPGRADE_KINDS:
            raise DataError(f"upgrade {self.id}: unknown kind {self.kind!r}")
        if not self.additions and not self.modifications:
            raise DataError(f"upgrade {self.id}: no link edits")


@dataclass(frozen=True)
class UpgradeSet:
    """The ordered candidate list; 1-based positions double as indices."""

    upgrades: tuple[Upgrade, ...]

    def __post_init__(self):
        ids = [u.id for u in self.upgrades]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate upgrade ids: {', '.join(dupes)}")

    def __len__(self) -> int:
        return len(self.upgrades)

    def __iter__(self):
        return iter(self.upgrades)

    @cached_property
    def by_id(self) -> dict[str, Upgrade]:
        return {u.id: u for u in self.upgrades}

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(u.id for u in self.upgrades)

    def resolve(self, selected: Iterable[str | int]) -> tuple[Upgrade, ...]:
        """Normalize a selection of ids (or 1-based indices) to upgrades in
        candidate-list order, deduplicated."""
        picked: set[int] = set()
        for item in selected:
            if isinstance(item, str):
                if item not in self.by_id:
                    raise DataError(f"unknown upgrade id {item!r}")
                picked.add(self.ids.index(item))
            else:
                if not 1 <= item <= len(self.upgrades):
                    raise DataError(f"upgrade index {item} outside 1..{len(self.upgrades)}")
                picked.add(item - 1)
        return tuple(self.upgrades[i] for i in sorted(picked))


# ---------------------------------------------------------------------------
# TNTP parsing


_METADATA_RE = re.compile(r"^<([^<>]+)>\s*(.*?)\s*$")


def _strip_comment(line: str) -> str:
    pos = line.find("~")
    return line if pos < 0 else line[:pos]


def _read_metadata(lines: Sequence[str]) -> tuple[dict[str, str], int]:
    """Parse the metadata block; returns (tags, index of first data line)."""
    tags: dict[str, str] = {}
    for i, raw in enumerate(lines):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _METADATA_RE.match(line)
        if not m:
            raise ParseError(f"expected metadata tag, got {line!r}", line=i + 1)
        key = m.group(1).strip().upper()
        if key == "END OF METADATA":
            return tags, i + 1
        tags[key] = m.group(2)
    raise ParseError("missing <END OF METADATA>")


def _meta(tags: dict[str, str], key: str, kind: type = int) -> int | float | None:
    """The number in metadata tag `key` as `kind` (an int truncates), or None when absent."""
    if key not in tags:
        return None
    try:
        return kind(float(tags[key]))
    except (ValueError, OverflowError):
        raise ParseError(f"metadata <{key}> is not a number: {tags[key]!r}")


def parse_network(text: str) -> Network:
    """Parse a TNTP link file into a Network."""
    lines = text.splitlines()
    tags, start = _read_metadata(lines)
    zone_count = _meta(tags, "NUMBER OF ZONES")
    if zone_count is None:
        raise ParseError("missing <NUMBER OF ZONES> metadata")
    declared_nodes = _meta(tags, "NUMBER OF NODES")
    declared_links = _meta(tags, "NUMBER OF LINKS")
    first_thru = _meta(tags, "FIRST THRU NODE")
    if first_thru is None:
        first_thru = 1

    links: list[Link] = []
    last_line = start
    for i in range(start, len(lines)):
        line = _strip_comment(lines[i]).strip()
        if not line:
            continue
        last_line = i + 1
        fields = line.split()
        if fields[-1] == ";":
            fields = fields[:-1]
        elif fields[-1].endswith(";"):
            fields[-1] = fields[-1][:-1]
        else:
            raise ParseError("link row not terminated by ';'", line=i + 1)
        if len(fields) != 10:
            raise ParseError(f"expected 10 link fields, got {len(fields)}", line=i + 1)
        try:
            init, term = int(fields[0]), int(fields[1])
            capacity, length, fftime = (float(f) for f in fields[2:5])
            alpha, beta = float(fields[5]), float(fields[6])
        except ValueError as exc:
            raise ParseError(f"non-numeric link field: {exc}", line=i + 1)
        try:
            links.append(
                Link(
                    from_node=init,
                    to_node=term,
                    capacity=capacity,
                    free_flow_time=fftime,
                    alpha=alpha,
                    beta=beta,
                    length=length,
                )
            )
        except DataError as exc:
            raise ParseError(str(exc), line=i + 1)

    if declared_links is not None and declared_links != len(links):
        raise ParseError(
            f"<NUMBER OF LINKS> declares {declared_links} but file holds {len(links)}",
            line=last_line,
        )
    node_count = declared_nodes
    if node_count is None:
        node_count = max((max(l.from_node, l.to_node) for l in links), default=zone_count)
    try:
        return Network(
            node_count=node_count,
            links=tuple(links),
            zone_count=zone_count,
            first_thru_node=first_thru,
        )
    except DataError as exc:
        raise ParseError(str(exc))


_TRIP_ENTRY_RE = re.compile(r"(\d+)\s*:\s*([-+0-9.eE]+)\s*;")
_ORIGIN_RE = re.compile(r"origin\s+(\d+)", re.IGNORECASE)


def parse_demand(text: str) -> DemandMatrix:
    """Parse a TNTP trip file into a DemandMatrix."""
    lines = text.splitlines()
    tags, start = _read_metadata(lines)
    zone_count = _meta(tags, "NUMBER OF ZONES")
    declared_total = _meta(tags, "TOTAL OD FLOW", float)

    entries: dict[tuple[int, int], float] = {}
    origin: int | None = None
    for i in range(start, len(lines)):
        line = _strip_comment(lines[i]).strip()
        if not line:
            continue
        m = _ORIGIN_RE.match(line)
        if m:
            origin = int(m.group(1))
            if zone_count is not None and origin > zone_count:
                raise ParseError(f"origin {origin} exceeds zone count {zone_count}", line=i + 1)
            rest = line[m.end():].strip()
        else:
            rest = line
        if not rest:
            continue
        if origin is None:
            raise ParseError("trip entry before any 'Origin' line", line=i + 1)
        matches = list(_TRIP_ENTRY_RE.finditer(rest))
        if re.sub(r"\s", "", rest) != re.sub(r"\s", "", "".join(m.group(0) for m in matches)):
            raise ParseError(f"unparseable trip entries: {rest!r}", line=i + 1)
        for em in matches:
            dest = int(em.group(1))
            try:
                flow = float(em.group(2))
            except ValueError:
                raise ParseError(f"non-numeric flow {em.group(2)!r}", line=i + 1)
            if zone_count is not None and dest > zone_count:
                raise ParseError(f"destination {dest} exceeds zone count {zone_count}", line=i + 1)
            if flow < 0:
                raise ParseError(f"negative demand for pair ({origin},{dest})", line=i + 1)
            if flow == math.inf:
                raise ParseError(f"demand {em.group(2)} for pair ({origin},{dest}) is not finite", line=i + 1)
            if (origin, dest) in entries:
                raise ParseError(f"duplicate entry for pair ({origin},{dest})", line=i + 1)
            if flow != 0:
                entries[(origin, dest)] = flow

    matrix = DemandMatrix(entries)
    if declared_total is not None:
        if abs(matrix.total - declared_total) > 1e-6 * max(1.0, abs(declared_total)):
            raise ParseError(
                f"<TOTAL OD FLOW> declares {declared_total} but entries sum to {matrix.total}"
            )
    return matrix


def parse_nodes(text: str) -> dict[int, tuple[float, float]]:
    """Parse a TNTP node file (``node x y ;`` rows; a ``node,x,y`` header is skipped)."""
    coords: dict[int, tuple[float, float]] = {}
    seen_data = False
    for i, raw in enumerate(text.splitlines()):
        line = _strip_comment(raw).strip().rstrip(";").strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        if not seen_data and not fields[0].lstrip("+-").isdigit():
            continue  # column header
        seen_data = True
        if len(fields) < 3:
            raise ParseError(f"expected 'node x y', got {line!r}", line=i + 1)
        try:
            node = int(fields[0])
            x, y = float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ParseError(f"non-numeric node field: {exc}", line=i + 1)
        coords[node] = (x, y)
    return coords


# ---------------------------------------------------------------------------
# Upgrade files


def parse_upgrades(text: str, network: Network | None = None) -> UpgradeSet:
    """Parse an upgrade-project file. When `network` is given, MOD selectors
    are checked against it immediately."""
    upgrades: list[Upgrade] = []
    current: dict | None = None

    def finish():
        nonlocal current
        if current is None:
            return
        try:
            upgrades.append(
                Upgrade(
                    id=current["id"],
                    cost=current["cost"],
                    kind=current["kind"],
                    additions=tuple(current["adds"]),
                    modifications=tuple(current["mods"]),
                )
            )
        except DataError as exc:
            raise ParseError(str(exc), line=current["line"])
        current = None

    for i, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        if keyword == "PROJECT":
            finish()
            if len(fields) != 4:
                raise ParseError("PROJECT takes exactly: id cost kind", line=i + 1)
            try:
                cost = float(fields[2])
            except ValueError:
                raise ParseError(f"non-numeric project cost {fields[2]!r}", line=i + 1)
            current = {"id": fields[1], "cost": cost, "kind": fields[3].lower(),
                       "adds": [], "mods": [], "line": i + 1}
        elif keyword == "ADD":
            if current is None:
                raise ParseError("ADD before any PROJECT line", line=i + 1)
            if len(fields) != 8:
                raise ParseError("ADD takes: from to capacity length fftime alpha beta", line=i + 1)
            try:
                u, v = int(fields[1]), int(fields[2])
                cap, length, fft, alpha, beta = (float(f) for f in fields[3:8])
            except ValueError as exc:
                raise ParseError(f"non-numeric ADD field: {exc}", line=i + 1)
            try:
                current["adds"].append(
                    Link(from_node=u, to_node=v, capacity=cap, free_flow_time=fft,
                         alpha=alpha, beta=beta, length=length)
                )
            except DataError as exc:
                raise ParseError(str(exc), line=i + 1)
        elif keyword == "MOD":
            if current is None:
                raise ParseError("MOD before any PROJECT line", line=i + 1)
            if len(fields) < 4:
                raise ParseError("MOD takes: from to [index] CAPACITY=<v> [FFTIME=<v>]", line=i + 1)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ParseError(f"non-numeric MOD endpoint: {exc}", line=i + 1)
            rest = fields[3:]
            par = 0
            if rest and "=" not in rest[0]:
                try:
                    par = int(rest[0])
                except ValueError:
                    raise ParseError(f"bad parallel index {rest[0]!r}", line=i + 1)
                rest = rest[1:]
            capacity = None
            fftime = None
            for token in rest:
                key, _, value = token.partition("=")
                if not value:
                    raise ParseError(f"expected KEY=VALUE, got {token!r}", line=i + 1)
                try:
                    num = float(value)
                except ValueError:
                    raise ParseError(f"non-numeric value in {token!r}", line=i + 1)
                key = key.upper()
                if key == "CAPACITY":
                    capacity = num
                elif key == "FFTIME":
                    fftime = num
                else:
                    raise ParseError(f"unknown MOD field {key!r}", line=i + 1)
            if capacity is None:
                raise ParseError("MOD requires CAPACITY=<v>", line=i + 1)
            if not capacity > 0:
                raise ParseError("MOD capacity must be positive", line=i + 1)
            if fftime is not None and not fftime >= 0:
                raise ParseError("MOD free-flow time must be non-negative", line=i + 1)
            mod = LinkModification(from_node=u, to_node=v, capacity=capacity,
                                   free_flow_time=fftime, parallel_index=par)
            if network is not None and network.find_link(u, v, par) is None:
                raise ParseError(f"MOD targets missing link {mod.selector()}", line=i + 1)
            current["mods"].append(mod)
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", line=i + 1)
    finish()
    try:
        return UpgradeSet(tuple(upgrades))
    except DataError as exc:
        raise ParseError(str(exc))


def apply_upgrades(
    net: Network, upgrades: UpgradeSet, selected: Iterable[str | int]
) -> Network:
    """Return a new network with the selected upgrades applied.

    Modifications resolve their selectors against `net`; two selected upgrades
    touching the same link is an error, not a composition.  Additions are
    appended after the existing links in candidate-list order.
    """
    chosen = upgrades.resolve(selected)
    new_links = list(net.links)
    claimed: dict[int, str] = {}
    for up in chosen:
        for mod in up.modifications:
            idx = net.find_link(mod.from_node, mod.to_node, mod.parallel_index)
            if idx is None:
                raise DataError(f"upgrade {up.id}: MOD targets missing link {mod.selector()}")
            if idx in claimed:
                raise DataError(
                    f"upgrades {claimed[idx]} and {up.id} both modify link {mod.selector()}"
                )
            claimed[idx] = up.id
            base = new_links[idx]
            new_links[idx] = replace(
                base,
                capacity=mod.capacity,
                free_flow_time=base.free_flow_time if mod.free_flow_time is None else mod.free_flow_time,
            )
    for up in chosen:
        for link in up.additions:
            if not (1 <= link.from_node <= net.node_count and 1 <= link.to_node <= net.node_count):
                raise DataError(
                    f"upgrade {up.id}: ADD references node outside 1..{net.node_count}"
                )
            new_links.append(link)
    return replace(net, links=tuple(new_links))


# ---------------------------------------------------------------------------
# Serialization and fingerprints


def write_network(net: Network) -> str:
    """Serialize to TNTP link-file text; floats round-trip exactly."""
    out = [
        f"<NUMBER OF ZONES> {net.zone_count}",
        f"<NUMBER OF NODES> {net.node_count}",
        f"<FIRST THRU NODE> {net.first_thru_node}",
        f"<NUMBER OF LINKS> {len(net.links)}",
        "<END OF METADATA>",
        "",
        "~ init term capacity length fftime b power speed toll type ;",
    ]
    for link in net.links:
        out.append(
            f"{link.from_node}\t{link.to_node}\t{link.capacity!r}\t{link.length!r}\t"
            f"{link.free_flow_time!r}\t{link.alpha!r}\t{link.beta!r}\t0\t0\t1\t;"
        )
    return "\n".join(out) + "\n"


def network_fingerprint(net: Network) -> str:
    """Stable 16-hex digest of the network contents (coordinates included),
    computed once per instance."""
    return net._fingerprint


def demand_fingerprint(demand: DemandMatrix) -> str:
    """Stable 16-hex digest of the demand matrix, computed once per instance."""
    return demand._fingerprint
