"""Road network, travel demand, and upgrade-project domain types plus file I/O.

Link and trip files follow the TNTP conventions: a metadata block of
``<TAG> value`` lines closed by ``<END OF METADATA>``, ``~`` comment lines,
and whitespace-separated data rows terminated by ``;``.  Link rows carry
``init_node term_node capacity length free_flow_time B power speed toll
link_type``; the B column is the BPR alpha and the power column the BPR beta.
Trip files hold ``Origin r`` blocks of ``dest : flow;`` entries.

A `Network` holds its links as read-only numpy columns (`LinkColumns`: node
ids as int64, capacity, length, free-flow time, alpha and beta as float64),
and a `DemandMatrix` its entries as CSR arrays sorted by origin and then
destination (`origins`, `start`, `dest`, `q`).  The parsers fill these
directly, a slab of rows at a time, checking each slab's numbers in bulk, and
keep no `Link` or other object per link or entry.  `Network.links`,
`Network.adjacency`, `DemandMatrix.entries` and `DemandMatrix.by_origin` are
views built from the arrays on first use, for callers that want Python
objects.

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "Link",
    "LinkColumns",
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
        problem = _link_problem(self.from_node, self.to_node, self.capacity, self.free_flow_time, self.alpha, self.beta)
        if problem is not None:
            raise DataError(problem)


def _link_problem(u: int, v: int, capacity: float, free_flow_time: float, alpha: float, beta: float) -> str | None:
    """What is wrong with the values of link u->v, or None when nothing is."""
    # written `not x > 0`, so NaN fails each check
    if not capacity > 0:
        return f"link {u}->{v}: capacity must be positive"
    if not free_flow_time >= 0:
        return f"link {u}->{v}: negative free-flow time"
    if not (alpha >= 0 and beta >= 0):
        return f"link {u}->{v}: negative BPR parameter"
    if math.inf in (free_flow_time, alpha, beta):
        return f"link {u}->{v}: infinite free-flow time or BPR parameter"
    return None


class LinkColumns(NamedTuple):
    """A network's links as numpy columns, one entry per link in file order:
    node ids as int64, the rest as float64."""

    from_node: np.ndarray
    to_node: np.ndarray
    capacity: np.ndarray
    length: np.ndarray
    free_flow_time: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


_COLUMN_TYPES = (np.int64, np.int64) + (np.float64,) * 5


def _readonly(values: np.ndarray) -> np.ndarray:
    """`values`, made read-only in place; an array that no one else holds."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True, init=False, eq=False)
class Network:
    """Immutable directed network. Nodes are dense 1-based ids; zone centroids
    are ids 1..zone_count, and ids below first_thru_node never act as
    intermediate nodes on a path.

    The links are held as `columns`.  A `links` sequence of `Link`, when
    given, builds them and takes their place, so ``Network(..., links=...)``
    and ``dataclasses.replace(net, links=...)`` work as on a tuple of links;
    the `links` attribute is a view built from the columns on first use."""

    node_count: int
    zone_count: int
    first_thru_node: int
    coordinates: Mapping[int, tuple[float, float]] | None
    columns: LinkColumns = field(repr=False)

    def __init__(
        self,
        node_count: int,
        links: Iterable[Link] | None = None,
        zone_count: int | None = None,
        first_thru_node: int = 1,
        coordinates: Mapping[int, tuple[float, float]] | None = None,
        columns: LinkColumns | None = None,
    ):
        if zone_count is None:
            raise TypeError("Network() missing required argument: 'zone_count'")
        if links is not None:
            links = tuple(links)
            lists = [[getattr(l, name) for l in links] for name in LinkColumns._fields]
        elif columns is not None:
            lists = [np.asarray(c).tolist() for c in columns]
        else:
            raise TypeError("Network() needs links or columns")
        if len(set(map(len, lists))) > 1:
            raise DataError("link columns differ in length")
        tails, heads, capacity, _, fftime, alpha, beta = lists
        low, high = min(tails + heads, default=1), max(tails + heads, default=1)
        bad = _bad_link(tails, heads, capacity, fftime, alpha, beta, low, high)
        if bad is not None:
            raise DataError(bad[1])
        columns = LinkColumns._make([_readonly(np.array(c, dtype=t)) for c, t in zip(lists, _COLUMN_TYPES)])
        self.__dict__.update(node_count=node_count, zone_count=zone_count, first_thru_node=first_thru_node,
                             coordinates=coordinates, columns=columns)
        self._check(low, high)

    @classmethod
    def _of(cls, node_count: int, zone_count: int, first_thru_node: int,
            coordinates: Mapping[int, tuple[float, float]] | None, columns: LinkColumns) -> "Network":
        """A network of read-only columns whose values the caller has checked
        (and its counts and node ids, unless it calls `_check`)."""
        net = cls.__new__(cls)
        net.__dict__.update(node_count=node_count, zone_count=zone_count, first_thru_node=first_thru_node,
                            coordinates=coordinates, columns=columns)
        return net

    def _check(self, low: int, high: int) -> None:
        """Check the counts, and that every link's nodes lie in 1..node_count
        given the lowest and the highest node id of the links (1 for none)."""
        if self.node_count < 1:
            raise DataError("network must have at least one node")
        if not 0 <= self.zone_count <= self.node_count:
            raise DataError("zone count must lie within the node range")
        if self.first_thru_node < 1:
            raise DataError("first_thru_node must be >= 1")
        n = self.node_count
        if not (low >= 1 and high <= n):
            tails, heads = self.columns.from_node, self.columns.to_node
            k = int(np.argmax((tails < 1) | (tails > n) | (heads < 1) | (heads > n)))
            raise DataError(f"link {self._name(k)} references a node outside 1..{n}")

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.node_count, self.zone_count, self.first_thru_node, self.coordinates) == (
            other.node_count, other.zone_count, other.first_thru_node, other.coordinates
        ) and all(map(np.array_equal, self.columns, other.columns))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # adding 0 turns -0.0 into 0.0, so networks equal under `==` hash alike
        return hash((self.node_count, self.zone_count, self.first_thru_node,
                     *[(column + 0).tobytes() for column in self.columns]))

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    @property
    def link_count(self) -> int:
        return len(self.columns.from_node)

    def _name(self, k: int) -> str:
        """Link k as ``from->to``."""
        return f"{self.columns.from_node[k]}->{self.columns.to_node[k]}"

    @cached_property
    def links(self) -> tuple[Link, ...]:
        """The links as `Link` objects, in file order."""
        c = self.columns
        return tuple(map(Link, c.from_node.tolist(), c.to_node.tolist(), c.capacity.tolist(),
                         c.free_flow_time.tolist(), c.alpha.tolist(), c.beta.tolist(), c.length.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """adjacency[u] lists (to_node, link_index) in file order; index 0 unused."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count + 1)]
        c = self.columns
        for idx, u, v in zip(range(self.link_count), c.from_node.tolist(), c.to_node.tolist()):
            out[u].append((v, idx))
        return tuple([tuple(entries) for entries in out])

    @cached_property
    def out_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR layout of ``adjacency``: ``(start, link, head)`` int arrays; the
        out-links of node u are ``link[start[u]:start[u + 1]]``, in file order,
        and ``head`` holds their to-nodes."""
        tails = self.columns.from_node
        link = np.argsort(tails, kind="stable")
        start = np.zeros(self.node_count + 2, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.node_count + 1), out=start[1:])
        return start, link, self.columns.to_node[link]

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
    def _pair_index(self) -> tuple[list[int], dict[int, int]]:
        """Each link's (from, to) pair as one int, and the first link of
        each pair, for `find_link`."""
        width = self.node_count + 1
        keys = [u * width + v for u, v in zip(self.columns.from_node.tolist(), self.columns.to_node.tolist())]
        return keys, dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))

    def find_link(self, from_node: int, to_node: int, parallel_index: int = 0) -> int | None:
        """Index of the parallel_index-th link from->to (file order), or None."""
        n = self.node_count
        if not (1 <= from_node <= n and 1 <= to_node <= n and parallel_index >= 0):
            return None
        keys, first = self._pair_index
        key = from_node * (n + 1) + to_node
        k = first.get(key)
        try:
            for _ in range(parallel_index if k is not None else 0):
                k = keys.index(key, k + 1)
        except ValueError:
            return None
        return k

    def with_coordinates(self, coordinates: Mapping[int, tuple[float, float]]) -> "Network":
        return Network._of(self.node_count, self.zone_count, self.first_thru_node, dict(coordinates), self.columns)


_ZERO = 0.0


def _bad_link(
    tails: list, heads: list, capacity: list, fftime: list, alpha: list, beta: list, low: int, high: int
) -> tuple[int, str] | None:
    """The first link, given as lists of its fields and the lowest and
    highest of its node ids, whose values `Link` rejects or whose node ids
    do not fit in 64 bits, and what is wrong with it; None when there is
    none."""
    # each list is checked in one pass.  NaN fails every comparison; `sqrt`
    # raises on a negative, and `isfinite` fails on inf and NaN
    try:
        finite = all(map(math.isfinite, map(math.sqrt, fftime + alpha + beta)))
    except ValueError:
        finite = False
    if not tails or (finite and all(map(_ZERO.__lt__, capacity)) and _INT64_MIN <= low and high <= _INT64_MAX):
        return None
    for k, (u, v, q, t, a, b) in enumerate(zip(tails, heads, capacity, fftime, alpha, beta)):
        problem = _link_problem(u, v, q, t, a, b)
        if problem is not None:
            return k, problem
        if not (_INT64_MIN <= u <= _INT64_MAX and _INT64_MIN <= v <= _INT64_MAX):
            return k, f"link {u}->{v}: node id out of range"
    raise AssertionError("a link fails a check")


def _sum(q: np.ndarray) -> float:
    """The built-in `sum` of the flows `q` in the order given, as `float`, so
    that a total adds up as the sum of a mapping's values does on every
    Python; a memoryview makes the floats one at a time."""
    return float(sum(memoryview(q)))


def _csr(rows: np.ndarray, dest: np.ndarray, q: np.ndarray) -> tuple:
    """``(origins, start, dest, q, order)``: CSR arrays of the entries
    (rows[i], dest[i]): q[i], sorted by origin and then destination, and the
    CSR position of each entry in the order given, or None when that order
    is sorted already."""
    order = None
    if not _strictly_sorted(rows, dest):
        perm = np.lexsort((dest, rows))
        rows, dest, q = rows[perm], dest[perm], q[perm]
        order = np.empty_like(perm)
        order[perm] = np.arange(len(perm))
    n = len(rows)
    edges = np.ones(n + 1, dtype=bool)  # where a run of one origin starts or ends
    np.not_equal(rows[1:], rows[:-1], out=edges[1:n])
    start = edges.nonzero()[0]
    return rows[start[:-1]], start, dest, q, order


class _Trips(NamedTuple):
    """The entries of a demand that carry flow, as CSR: the trips from
    ``origins[i]`` go to ``dest[start[i]:start[i + 1]]`` with flows
    ``q[start[i]:start[i + 1]]``."""

    origins: np.ndarray
    start: np.ndarray
    dest: np.ndarray
    q: np.ndarray


class DemandMatrix:
    """Sparse origin-destination demand, held as CSR arrays sorted by origin
    and then destination: `origins` lists each origin once, and its trips
    go to ``dest[start[i]:start[i + 1]]`` with flows ``q[start[i]:start[i + 1]]``.

    ``DemandMatrix({(r, s): q, ...})`` builds one from a mapping; zero
    entries are kept (and fingerprinted) but load nothing.  The mapping's
    order is remembered: `total` sums in it, and `entries`, a view built on
    first use, lists in it, as they did when the mapping itself was kept."""

    def __init__(self, entries: Mapping[tuple[int, int], float]):
        try:
            rows, dest = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T.copy()
        except OverflowError:
            raise DataError("demand node ids must fit in 64 bits") from None
        q = np.fromiter(entries.values(), dtype=float, count=len(rows))
        # one reduction per check, the entries looked at only when one fails;
        # written `not x >= 0`, so NaN fails
        if len(q) and not (rows.min() >= 1 and dest.min() >= 1 and q.min() >= 0):
            i = int(np.argmax((rows < 1) | (dest < 1) | ~(q >= 0)))
            r, s = int(rows[i]), int(dest[i])
            if r < 1 or s < 1:
                raise DataError(f"demand entry ({r},{s}) has a non-positive node id")
            raise DataError(f"demand entry ({r},{s}) is {'negative' if q[i] < 0 else 'not a finite number'}")
        total = float(sum(entries.values()))
        if total == math.inf:  # an infinite entry, or finite ones whose sum overflows
            hit = q == math.inf
            if hit.any():
                i = int(np.argmax(hit))
                raise DataError(f"demand entry ({rows[i]},{dest[i]}) is not a finite number")
        self._set(*_csr(rows, dest, q), total)

    @classmethod
    def _of(cls, origins: np.ndarray, start: np.ndarray, dest: np.ndarray, q: np.ndarray,
            order: np.ndarray | None, total: float) -> "DemandMatrix":
        """The matrix of these CSR arrays (and `order`, as `_csr` gives
        them), whose entries the caller has checked as `DemandMatrix`
        checks them; `total` sums their flows in the order given.  The
        arrays become its own."""
        matrix = cls.__new__(cls)
        matrix._set(origins, start, dest, q, order, total)
        return matrix

    def _set(self, origins, start, dest, q, order, total) -> None:
        self.origins, self.start, self.dest, self.q = map(_readonly, (origins, start, dest, q))
        # the CSR position of each entry in the order given, or None when
        # that order is sorted
        self._order = order
        self.total = total

    def __eq__(self, other):
        if not isinstance(other, DemandMatrix):
            return NotImplemented
        return all(map(np.array_equal, (self.origins, self.start, self.dest, self.q),
                       (other.origins, other.start, other.dest, other.q)))

    def __repr__(self) -> str:
        return f"DemandMatrix(<{len(self.q)} entries from {len(self.origins)} origins>)"

    @cached_property
    def _rows(self) -> np.ndarray:
        """The origin of each CSR entry."""
        return np.repeat(self.origins, np.diff(self.start))

    def _in_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(origin, destination, flow) arrays of the entries in the order given."""
        if self._order is None:
            return self._rows, self.dest, self.q
        return self._rows[self._order], self.dest[self._order], self.q[self._order]

    @cached_property
    def entries(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``{(r, s): q}`` view, in the order given."""
        rows, dest, q = self._in_order()
        return MappingProxyType(dict(zip(zip(rows.tolist(), dest.tolist()), q.tolist())))

    @cached_property
    def _trips(self) -> _Trips:
        """The entries with flow, which are what loads a network."""
        keep = self.q > 0
        if keep.all():
            return _Trips(self.origins, self.start, self.dest, self.q)
        counts = np.diff(np.cumsum(keep)[self.start[1:] - 1], prepend=0)
        start = np.zeros(np.count_nonzero(counts) + 1, dtype=np.int64)
        np.cumsum(counts[counts > 0], out=start[1:])
        return _Trips(self.origins[counts > 0], start, self.dest[keep], self.q[keep])

    @cached_property
    def _travels(self) -> bool:
        """Whether any trip with flow leaves its zone; intrazonal trips load no link."""
        t = self._trips
        return bool((t.dest != np.repeat(t.origins, np.diff(t.start))).any())

    @cached_property
    def by_origin(self) -> tuple[tuple[int, tuple[tuple[int, float], ...]], ...]:
        """((origin, ((dest, flow), ...)), ...) sorted by origin then destination,
        with zero-flow entries dropped."""
        origins, start, dest, q = self._trips
        pairs = list(zip(dest.tolist(), q.tolist()))
        bounds = start.tolist()
        return tuple((r, tuple(pairs[a:b])) for r, a, b in zip(origins.tolist(), bounds, bounds[1:]))

    @cached_property
    def _top_node(self) -> int:
        """The largest origin or destination id, 0 when there is no entry."""
        return max(int(self.origins[-1]), int(self.dest.max())) if len(self.q) else 0

    @cached_property
    def _fingerprint(self) -> str:
        """Stable 16-hex digest of the entries."""
        h = hashlib.sha256()
        rows, dest, q = self._rows, self.dest, self.q
        for lo in range(0, len(q), _SLAB):
            part = slice(lo, lo + _SLAB)
            entries = zip(rows[part].tolist(), dest[part].tolist(), q[part].tolist())
            h.update("".join([f"{r},{s}:{flow!r};" for r, s, flow in entries]).encode())
        return h.hexdigest()[:16]

    def scaled(self, zones: frozenset[int] | set[int], factor: float) -> "DemandMatrix":
        """Multiply every entry whose origin or destination lies in `zones`."""
        if not 0 <= factor < math.inf:
            raise DataError("demand scale factor must be non-negative and finite")
        rows, dest, q = self._in_order()
        marked = np.zeros(self._top_node + 1, dtype=bool)
        marked[[z for z in zones if 0 < z <= self._top_node]] = True
        hit = marked[rows] | marked[dest]
        q = q.copy()
        with np.errstate(over="ignore"):  # an overflow is reported below
            q[hit] *= factor
        over = q == math.inf
        if over.any():
            i = int(np.argmax(over))
            raise DataError(f"demand entry ({rows[i]},{dest[i]}) scaled by {factor!r} overflows")
        keep = q != 0
        q = q[keep]
        return DemandMatrix._of(*_csr(rows[keep], dest[keep], q), _sum(q))


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
        if not self.id or "," in self.id or self.id.split() != [self.id]:  # no whitespace
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

    @cached_property
    def _added(self) -> LinkColumns:
        """The additions as link columns."""
        return LinkColumns(*(np.array([getattr(link, name) for link in self.additions], dtype=t)
                             for name, t in zip(LinkColumns._fields, _COLUMN_TYPES)))


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


def _strip_comment(line: str) -> str:
    pos = line.find("~")
    return line if pos < 0 else line[:pos]


def _read_metadata(lines: Iterable[str]) -> tuple[dict[str, str], int]:
    """Parse the metadata block; returns (tags, the number of lines it
    takes), the lines taken from `lines`."""
    tags: dict[str, str] = {}
    for i, raw in enumerate(lines):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        # ``<TAG> value``: a tag of one or more characters other than '<'
        # and '>', then the value with its outer whitespace stripped
        close = line.find(">")
        key = line[1:close]
        if line[0] != "<" or close < 2 or "<" in key:
            raise ParseError(f"expected metadata tag, got {line!r}", line=i + 1)
        key = key.strip().upper()
        if key == "END OF METADATA":
            return tags, i + 1
        tags[key] = line[close + 1 :].strip()
    raise ParseError("missing <END OF METADATA>")


def _meta(tags: dict[str, str], key: str, kind: type = int) -> int | float | None:
    """The number in metadata tag `key` as `kind` (an int truncates), or None when absent."""
    if key not in tags:
        return None
    try:
        return kind(float(tags[key]))
    except (ValueError, OverflowError):
        raise ParseError(f"metadata <{key}> is not a number: {tags[key]!r}")


# Data lines converted at a time: bounds the tokens and strings held at once.
_SLAB = 4096

# Characters of a file split into lines at a time.
_TEXT_SLAB = 1 << 20

# The int64 range, as Python ints.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, as `str.splitlines` gives them, split a slab of
    text at a time; a slab ends just after a newline, which ends a line."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _TEXT_SLAB)
        end = len(text) if end < 0 else end + 1
        yield from text[pos:end].splitlines()
        pos = end


def _data_slabs(lines: Iterator[str], start: int) -> Iterator[tuple[list[int], list[str]]]:
    """The non-blank lines left in `lines`, the first being line start + 1,
    with comments and outer whitespace stripped, and their line numbers;
    _SLAB lines at a time."""
    while True:
        numbers, rows, taken = [], [], 0
        for taken, line in enumerate(islice(lines, _SLAB), 1):
            line = line.partition("~")[0].strip()
            if line:
                numbers.append(start + taken)
                rows.append(line)
        if not taken:
            return
        yield numbers, rows
        start += taken


def _first_bad_number(rows: Sequence[str]) -> tuple[int, str]:
    """The first of `rows` (well-formed link rows) with a field that is no
    number, as `Link`'s fields are read (two ints, then five floats), and
    the error it raises."""
    for k, row in enumerate(rows):
        fields = row[:-1].split()
        try:
            [int(f) for f in fields[:2]]
            [float(f) for f in fields[2:7]]
        except ValueError as exc:
            return k, str(exc)
    raise AssertionError("every field is a number")


def _link_rows(rows: Sequence[str], numbers: Sequence[int]) -> tuple[LinkColumns, int, int]:
    """The columns of link rows and their lowest and highest node id, or a
    ParseError for the first bad row.

    A row is checked for its closing ';', its field count (10 before the
    ';'), its numbers, and then as `_bad_link` checks it, in that order.
    Each check runs on the rows before the last failure, so the failure
    kept is the first row's, and its first check's."""
    # one split of all the rows, each closing ';' made a "~" token, which no
    # row holds once its comment is stripped: the rows are well formed when
    # every 11th token is one
    flat = ("\n".join(rows) + "\n").replace(";\n", " ~ ").split()
    cut = len(rows)
    if len(flat) != 11 * cut or flat[10::11].count("~") != cut:
        cut, problem = next(
            (k, "link row not terminated by ';'" if row[-1] != ";" else f"expected 10 link fields, got {count}")
            for k, row in enumerate(rows)
            if row[-1] != ";" or (count := len(row[:-1].split())) != 10
        )
    columns = [flat[k : 11 * cut : 11] for k in range(7)]
    del flat
    try:
        lists = [list(map(int, columns[k])) for k in (0, 1)] + [list(map(float, columns[k])) for k in range(2, 7)]
    except ValueError:
        cut, error = _first_bad_number(rows[:cut])
        problem = f"non-numeric link field: {error}"
        lists = [list(map(int, columns[k][:cut])) for k in (0, 1)] + [list(map(float, columns[k][:cut])) for k in range(2, 7)]
    tails, heads, capacity, _, fftime, alpha, beta = lists
    low = min(min(tails, default=1), min(heads, default=1))
    high = max(max(tails, default=1), max(heads, default=1))
    bad = _bad_link(tails, heads, capacity, fftime, alpha, beta, low, high)
    if bad is not None:
        cut, problem = bad
    if cut < len(rows):
        raise ParseError(problem, line=numbers[cut])
    # one read-only array per type, whose rows are the columns
    nodes, values = _readonly(np.array(lists[:2], dtype=np.int64)), _readonly(np.array(lists[2:], dtype=float))
    columns = LinkColumns(nodes[0], nodes[1], values[0], values[1], values[2], values[3], values[4])
    return columns, low, high


def parse_network(text: str) -> Network:
    """Parse a TNTP link file into a Network, a slab of rows at a time."""
    lines = _lines(text)
    tags, start = _read_metadata(lines)
    zone_count = _meta(tags, "NUMBER OF ZONES")
    if zone_count is None:
        raise ParseError("missing <NUMBER OF ZONES> metadata")
    declared_nodes = _meta(tags, "NUMBER OF NODES")
    declared_links = _meta(tags, "NUMBER OF LINKS")
    first_thru = _meta(tags, "FIRST THRU NODE")
    if first_thru is None:
        first_thru = 1

    slabs, last_line = [], start
    for numbers, rows in _data_slabs(lines, start):
        if rows:
            slabs.append(_link_rows(rows, numbers))
            last_line = numbers[-1]
    parts = [columns for columns, _, _ in slabs]
    if len(parts) == 1:
        columns = parts[0]
    elif parts:
        columns = LinkColumns._make([_readonly(np.concatenate(c)) for c in zip(*parts)])
    else:
        columns = LinkColumns._make([_readonly(np.zeros(0, dtype=t)) for t in _COLUMN_TYPES])
    count = len(columns.from_node)
    if declared_links is not None and declared_links != count:
        raise ParseError(
            f"<NUMBER OF LINKS> declares {declared_links} but file holds {count}",
            line=last_line,
        )
    low = min((low for _, low, _ in slabs), default=1)
    high = max((high for _, _, high in slabs), default=1)
    node_count = declared_nodes
    if node_count is None:
        node_count = high if count else zone_count
    net = Network._of(node_count, zone_count, first_thru, None, columns)
    try:
        net._check(low, high)
    except DataError as exc:
        raise ParseError(str(exc))
    return net


_TRIP_ENTRY_RE = re.compile(r"(\d+)\s*:\s*([-+0-9.eE]+)\s*;")
_ORIGIN_RE = re.compile(r"origin\s+(\d+)", re.IGNORECASE)


def _strictly_sorted(rows: np.ndarray, dest: np.ndarray) -> bool:
    """Whether the (rows[i], dest[i]) pairs strictly increase."""
    if len(rows) < 2:
        return True
    later, same = rows[1:] > rows[:-1], rows[1:] == rows[:-1]
    return bool((later | (same & (dest[1:] > dest[:-1]))).all())


def _first_repeat(origin: np.ndarray, dest: np.ndarray, q: np.ndarray) -> int | None:
    """The first entry whose pair an earlier entry with flow already holds,
    or None.  An entry of zero flow is never kept, so it holds no pair."""
    if _strictly_sorted(origin, dest):
        return None
    order = np.lexsort((dest, origin))  # stable: file order within a pair
    o, d, flowing = origin[order], dest[order], q[order] != 0
    new = np.ones(len(order), dtype=bool)
    new[1:] = (o[1:] != o[:-1]) | (d[1:] != d[:-1])
    before = np.cumsum(flowing) - flowing  # entries with flow before each
    seen = before - before[np.flatnonzero(new)][np.cumsum(new) - 1] > 0
    return int(order[seen].min()) if seen.any() else None


def _first_non_float(strings: Sequence[str]) -> int:
    for k, text in enumerate(strings):
        try:
            float(text)
        except ValueError:
            return k
    return len(strings)


class _TripEntries:
    """A trip file's entries, taken a line at a time and converted to
    arrays a slab at a time, so that the entries' strings are held for one
    slab only."""

    def __init__(self, zone_count: int | None):
        self.zone_count = zone_count
        # no id above it fits (the zone count, if any, bounds it)
        self.top = _INT64_MAX if zone_count is None else min(zone_count, _INT64_MAX)
        # each entry line's number and entry count
        self.numbers: list[int] = []
        self.counts: list[int] = []
        # the entries not yet converted: origins, and destinations and
        # flows as strings
        self.origins: list[int] = []
        self.dests: list[str] = []
        self.flows: list[str] = []
        self.done = 0  # entries converted
        # of the entries converted: the lowest node id, and whether any flow is zero
        self.low, self.zeros = 1, False
        # the converted entries' origin, destination and flow arrays
        self.columns: tuple[list[np.ndarray], ...] = ([], [], [])
        self.error: ParseError | None = None  # the first entry that failed a check of its own

    def beyond(self, kind: str, node: int) -> str:
        if self.zone_count is None:
            return f"{kind} {node} is out of range"
        return f"{kind} {node} exceeds zone count {self.zone_count}"

    def add(self, number: int, origin: int, dests: list[str], flows: list[str]) -> None:
        self.numbers.append(number)
        self.counts.append(len(dests))
        self.origins += [origin] * len(dests)
        self.dests += dests
        self.flows += flows
        if len(self.flows) >= _SLAB:
            self.convert()

    def line_of(self, entry: int) -> int:
        """The line number of entry `entry`, counting from 0."""
        return self.numbers[int(np.searchsorted(np.cumsum(self.counts), entry, side="right"))]

    def convert(self) -> None:
        """Convert the entries still held as strings, up to the first that
        fails a check of its own.  Each check runs on the entries before
        the last failure, in the order non-numeric flow, destination range,
        sign, finiteness, so the failure kept is the first in file order."""
        origins, dests, flows = self.origins, self.dests, self.flows
        cut, problem = len(flows), None
        try:
            q = list(map(float, flows))
        except ValueError:
            cut = _first_non_float(flows)
            problem = f"non-numeric flow {flows[cut]!r}"
            q = list(map(float, flows[:cut]))
        d = list(map(int, dests[:cut]))
        if d and max(d) > self.top:
            cut = next(k for k, node in enumerate(d) if node > self.top)
            problem = self.beyond("destination", d[cut])
            del d[cut:], q[cut:]
        # each list is checked in one pass; the entry pattern admits no NaN
        if not (all(map(_ZERO.__le__, q)) and all(map(math.inf.__gt__, q))):
            cut, flow = next((k, flow) for k, flow in enumerate(q) if not 0 <= flow < math.inf)
            if flow < 0:
                problem = f"negative demand for pair ({origins[cut]},{d[cut]})"
            else:
                problem = f"demand {flows[cut]} for pair ({origins[cut]},{d[cut]}) is not finite"
            del d[cut:], q[cut:]
        if problem is not None:
            self.error = ParseError(problem, line=self.line_of(self.done + cut))
        del origins[cut:]
        if origins:
            self.low = min(self.low, min(origins), min(d))
            self.zeros = self.zeros or 0.0 in q
        self.columns[0].append(np.array(origins, dtype=np.int64))
        self.columns[1].append(np.array(d, dtype=np.int64))
        self.columns[2].append(np.array(q, dtype=float))
        self.done += cut
        origins.clear()
        dests.clear()
        flows.clear()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The converted entries' origins, destinations and flows, each
        column joined and then let go before the next."""
        out = []
        for column, dtype in zip(self.columns, (np.int64, np.int64, float)):
            out.append(column[0] if len(column) == 1 else np.concatenate(column) if column else np.zeros(0, dtype))
            column.clear()
        return tuple(out)


def _read_trips(entries: _TripEntries, slabs: Iterable[tuple[list[int], list[str]]]) -> ParseError | None:
    """Give `entries` each trip line of `slabs` (data slabs of a trip file)
    until a line fails a check of its own, whose error it returns, or one
    of the entries fails one; None when no line fails."""
    origin = None
    for numbers, rows in slabs:
        for number, line in zip(numbers, rows):
            m = _ORIGIN_RE.match(line)
            if m:
                origin = int(m.group(1))
                if origin > entries.top:
                    return ParseError(entries.beyond("origin", origin), line=number)
                rest = line[m.end():].strip()
                if not rest:
                    continue
            else:
                rest = line
            if origin is None:
                return ParseError("trip entry before any 'Origin' line", line=number)
            parts = _TRIP_ENTRY_RE.split(rest)  # text, dest, flow, text, ..., text
            if "".join(parts[::3]).strip():
                return ParseError(f"unparseable trip entries: {rest!r}", line=number)
            entries.add(number, origin, parts[1::3], parts[2::3])
            if entries.error is not None:
                return None
    return None


def parse_demand(text: str) -> DemandMatrix:
    """Parse a TNTP trip file into a DemandMatrix.

    One regex call per line splits it into its entries, whose numbers are
    converted and checked as arrays a slab at a time.  The first bad line
    or entry in file order raises: a line's own checks (its origin's range,
    an entry before any origin, text that is no entry) come before its
    entries', and each entry's run in the order non-numeric flow,
    destination range, sign, finiteness and repeated pair."""
    lines = _lines(text)
    tags, start = _read_metadata(lines)
    zone_count = _meta(tags, "NUMBER OF ZONES")
    declared_total = _meta(tags, "TOTAL OD FLOW", float)

    entries = _TripEntries(zone_count)
    error = _read_trips(entries, _data_slabs(lines, start))
    if entries.flows:
        entries.convert()
    origin, dest, q = entries.arrays()
    repeat = _first_repeat(origin, dest, q)
    if repeat is not None:
        raise ParseError(f"duplicate entry for pair ({origin[repeat]},{dest[repeat]})",
                         line=entries.line_of(repeat))
    if entries.error is not None:
        raise entries.error
    if error is not None:
        raise error
    if entries.zeros:  # a zero entry is not kept
        flowing = q != 0
        origin, dest, q = origin[flowing], dest[flowing], q[flowing]
    if entries.low < 1 and ((origin < 1) | (dest < 1)).any():  # an id `DemandMatrix` rejects
        i = int(np.argmax((origin < 1) | (dest < 1)))
        raise DataError(f"demand entry ({origin[i]},{dest[i]}) has a non-positive node id")
    matrix = DemandMatrix._of(*_csr(origin, dest, q), _sum(q))
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
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"node {node} has a non-finite coordinate", line=i + 1)
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
            if fftime == math.inf:
                raise ParseError("MOD free-flow time must be finite", line=i + 1)
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
    c = net.columns
    capacity, free_flow_time = c.capacity, c.free_flow_time
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
            # the link's own values, but for the ones the MOD sets
            fftime = c.free_flow_time.item(idx) if mod.free_flow_time is None else mod.free_flow_time
            problem = _link_problem(c.from_node.item(idx), c.to_node.item(idx), mod.capacity, fftime,
                                    c.alpha.item(idx), c.beta.item(idx))
            if problem is not None:
                raise DataError(problem)
            if not claimed:
                capacity, free_flow_time = capacity.copy(), free_flow_time.copy()
            claimed[idx] = up.id
            capacity[idx] = mod.capacity
            if mod.free_flow_time is not None:
                free_flow_time[idx] = mod.free_flow_time
    for up in chosen:
        for link in up.additions:
            if not (1 <= link.from_node <= net.node_count and 1 <= link.to_node <= net.node_count):
                raise DataError(
                    f"upgrade {up.id}: ADD references node outside 1..{net.node_count}"
                )
    columns = c
    if claimed:
        columns = c._replace(capacity=_readonly(capacity), free_flow_time=_readonly(free_flow_time))
    added = [up._added for up in chosen if up.additions]
    if added:
        columns = LinkColumns._make([_readonly(np.concatenate(parts)) for parts in zip(columns, *added)])
    return Network._of(net.node_count, net.zone_count, net.first_thru_node, net.coordinates, columns)


# ---------------------------------------------------------------------------
# Serialization and fingerprints


def write_network(net: Network) -> str:
    """Serialize to TNTP link-file text; floats round-trip exactly."""
    out = [
        f"<NUMBER OF ZONES> {net.zone_count}",
        f"<NUMBER OF NODES> {net.node_count}",
        f"<FIRST THRU NODE> {net.first_thru_node}",
        f"<NUMBER OF LINKS> {net.link_count}",
        "<END OF METADATA>",
        "",
        "~ init term capacity length fftime b power speed toll type ;",
    ]
    c = net.columns
    out += [
        f"{u}\t{v}\t{capacity!r}\t{length!r}\t{fftime!r}\t{alpha!r}\t{beta!r}\t0\t0\t1\t;"
        for u, v, capacity, length, fftime, alpha, beta in zip(
            c.from_node.tolist(), c.to_node.tolist(), c.capacity.tolist(), c.length.tolist(),
            c.free_flow_time.tolist(), c.alpha.tolist(), c.beta.tolist(),
        )
    ]
    return "\n".join(out) + "\n"


def network_fingerprint(net: Network) -> str:
    """Stable 16-hex digest of the network contents (coordinates included),
    computed once per instance."""
    return net._fingerprint


def demand_fingerprint(demand: DemandMatrix) -> str:
    """Stable 16-hex digest of the demand matrix, computed once per instance."""
    return demand._fingerprint
