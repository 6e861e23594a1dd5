"""Parsing, serialization, and upgrade application."""

import math
import random
from dataclasses import replace

import pytest

from roadworks import (
    DataError,
    DemandMatrix,
    Link,
    LinkModification,
    Network,
    ParseError,
    Upgrade,
    UpgradeSet,
    apply_upgrades,
    demand_fingerprint,
    network_fingerprint,
    parse_demand,
    parse_network,
    parse_nodes,
    parse_upgrades,
    write_network,
)


def test_parse_network_desk(desk):
    net = desk.net
    assert net.node_count == 6
    assert net.zone_count == 2
    assert net.first_thru_node == 3
    assert len(net.links) == 6
    first = net.links[0]
    assert (first.from_node, first.to_node) == (1, 3)
    assert first.capacity == 400.0
    assert first.free_flow_time == 10.0
    assert first.alpha == 0.15
    assert first.beta == 4.0


def test_parse_network_sioux(sioux):
    net = sioux.net
    assert net.node_count == 24
    assert net.zone_count == 24
    assert net.first_thru_node == 1
    assert len(net.links) == 76
    assert net.coordinates is not None
    assert len(net.coordinates) == 24


def test_parse_demand_sioux(sioux):
    dem = sioux.demand
    assert dem.total == pytest.approx(360600.0, abs=1e-9)
    assert len(dem.entries) == 528
    assert all(q > 0 for q in dem.entries.values())
    assert (1, 1) not in dem.entries
    assert dem.entries[(1, 2)] == 100.0


def test_parse_demand_missing_metadata():
    with pytest.raises(ParseError):
        parse_demand("Origin 1\n 2 : 100;\n")


def test_parse_network_requires_metadata():
    with pytest.raises(ParseError):
        parse_network("1 2 100 1 1 0.15 4 0 0 1 ;\n")


@pytest.mark.parametrize("value", ["many", "nan", "inf"])
def test_metadata_that_is_no_count_is_a_parse_error(value):
    text = f"<NUMBER OF ZONES> {value}\n<END OF METADATA>\n1 2 100 1 1 0.15 4 0 0 1 ;\n"
    with pytest.raises(ParseError, match=r"metadata <NUMBER OF ZONES> is not a number"):
        parse_network(text)


def test_parse_network_bad_row_reports_line():
    text = (
        "<NUMBER OF ZONES> 2\n<NUMBER OF NODES> 2\n<FIRST THRU NODE> 1\n"
        "<NUMBER OF LINKS> 1\n<END OF METADATA>\n"
        "1 2 oops 1 1 0.15 4 0 0 1 ;\n"
    )
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert err.value.line == 6


_NET_HEAD = (
    "<NUMBER OF ZONES> 2\n<NUMBER OF NODES> 3\n<FIRST THRU NODE> 1\n<NUMBER OF LINKS> 2\n"
    "<END OF METADATA>\n~ a comment\n\n1 2 100 1 1 0.15 4 0 0 1 ;\n"
)


@pytest.mark.parametrize("rows, message, line", [
    ("2 3 100 1 1 0.15 4 0 0 1", "link row not terminated by ';'", 9),
    ("2 3 100 1 1 0.15 4 0 0 ;", "expected 10 link fields, got 9", 9),
    ("2 3 100 1 1 0.15 4 0 0 1 7;", "expected 10 link fields, got 11", 9),
    ("2 3 oops 1 1 0.15 4 0 0 1 ;", "non-numeric link field: could not convert string to float: 'oops'", 9),
    ("2.5 3 100 1 1 0.15 4 0 0 1 ;", "non-numeric link field: invalid literal for int() with base 10: '2.5'", 9),
    ("2 3 100 1 1 0.15 x 0 0 1 ;", "non-numeric link field: could not convert string to float: 'x'", 9),
    ("2 3 100 1; 1 0.15 4 0 0 1 ;", "non-numeric link field: could not convert string to float: '1;'", 9),
    ("2 3 0 1 1 0.15 4 0 0 1 ;", "link 2->3: capacity must be positive", 9),
    ("2 3 nan 1 1 0.15 4 0 0 1 ;", "link 2->3: capacity must be positive", 9),
    ("2 3 100 1 -1 0.15 4 0 0 1 ;", "link 2->3: negative free-flow time", 9),
    ("2 3 100 1 1 -0.15 4 0 0 1 ;", "link 2->3: negative BPR parameter", 9),
    ("2 3 100 1 1 0.15 -4 0 0 1 ;", "link 2->3: negative BPR parameter", 9),
    ("2 4 100 1 1 0.15 4 0 0 1 ;   ~ node 4 > 3", "link 2->4 references a node outside 1..3", None),
    ("0 2 100 1 1 0.15 4 0 0 1;", "link 0->2 references a node outside 1..3", None),
    ("2 3 100 1 1 0.15 4 0 0 1;\n\n2 3 100 1 1 0.15 4 0 0 1 ;\n~ end",
     "<NUMBER OF LINKS> declares 2 but file holds 3", 11),
    # the first bad row wins, whatever its check
    ("2 3 0 1 1 0.15 4 0 0 1 ;\n2 3 100", "link 2->3: capacity must be positive", 9),
    ("2 3 100\n2 3 0 1 1 0.15 4 0 0 1 ;", "link row not terminated by ';'", 9),
], ids=["unterminated", "too-few-fields", "too-many-fields", "non-numeric-float", "non-numeric-int",
        "non-numeric-late", "stray-semicolon", "zero-capacity", "nan-capacity", "negative-fftime",
        "negative-alpha", "negative-beta", "node-above-range", "node-zero", "link-count",
        "value-before-structure", "structure-before-value"])
def test_parse_network_error_messages_and_lines(rows, message, line):
    with pytest.raises(ParseError) as err:
        parse_network(_NET_HEAD + rows + "\n")
    assert (str(err.value), err.value.line) == (message if line is None else f"line {line}: {message}", line)


_TRIPS_HEAD = "<NUMBER OF ZONES> 3\n<TOTAL OD FLOW> {total}\n<END OF METADATA>\n~ comment\n\nOrigin 1\n  2 : 5.0;  3 : 1.0;\n"


@pytest.mark.parametrize("rest, total, message, line", [
    ("Origin 2\n  1 : 5.0; junk", "6", "unparseable trip entries: '1 : 5.0; junk'", 9),
    ("Origin 2\n  1 : 1.2.3;", "6", "non-numeric flow '1.2.3'", 9),
    ("Origin 2\n  3 : 1.0; 1 : -5.0;", "6", "negative demand for pair (2,1)", 9),
    ("Origin 2\n  1 : 1e309;", "6", "demand 1e309 for pair (2,1) is not finite", 9),
    ("Origin 1\n  3 : 4.0;", "6", "duplicate entry for pair (1,3)", 9),
    ("Origin 2\n 1 : 5.0;\n 1 : 0;", "6", "duplicate entry for pair (2,1)", 10),
    ("Origin 4\n  1 : 5.0;", "6", "origin 4 exceeds zone count 3", 8),
    ("Origin 2 1 : 1.0; 4 : 5.0;", "6", "destination 4 exceeds zone count 3", 8),
    ("", "7.5", "<TOTAL OD FLOW> declares 7.5 but entries sum to 6.0", None),
    # a line's own checks come before those of its entries
    ("Origin 2\n  1 : -5.0; junk", "6", "unparseable trip entries: '1 : -5.0; junk'", 9),
    ("Origin 4 junk", "6", "origin 4 exceeds zone count 3", 8),
    ("Origin 2\n  1 : -5.0;\n  junk", "6", "negative demand for pair (2,1)", 9),
], ids=["unparseable", "non-numeric", "negative", "infinite", "duplicate", "duplicate-zero",
        "origin-range", "destination-range", "total", "unparseable-first", "origin-first", "earlier-line-first"])
def test_parse_demand_error_messages_and_lines(rest, total, message, line):
    with pytest.raises(ParseError) as err:
        parse_demand(_TRIPS_HEAD.format(total=total) + rest + "\n")
    assert (str(err.value), err.value.line) == (message if line is None else f"line {line}: {message}", line)


def test_parse_demand_entry_before_any_origin():
    with pytest.raises(ParseError) as err:
        parse_demand("<NUMBER OF ZONES> 3\n<END OF METADATA>\n\n  2 : 5.0;\nOrigin 1\n")
    assert (str(err.value), err.value.line) == ("line 4: trip entry before any 'Origin' line", 4)


def test_a_zero_trip_is_not_kept_so_a_later_entry_for_its_pair_is_no_duplicate():
    dem = parse_demand(_TRIPS_HEAD.format(total=11) + "Origin 2\n 1 : 0;\n 1 : 5.0;\n")
    assert dict(dem.entries) == {(1, 2): 5.0, (1, 3): 1.0, (2, 1): 5.0}


def test_link_count_mismatch():
    text = (
        "<NUMBER OF ZONES> 2\n<NUMBER OF NODES> 2\n<FIRST THRU NODE> 1\n"
        "<NUMBER OF LINKS> 2\n<END OF METADATA>\n"
        "1 2 100 1 1 0.15 4 0 0 1 ;\n"
    )
    with pytest.raises(ParseError):
        parse_network(text)


def test_link_validation():
    with pytest.raises(DataError):
        Link(1, 2, 0.0, 1.0, 0.15, 4.0)
    with pytest.raises(DataError):
        Link(1, 2, 100.0, -1.0, 0.15, 4.0)
    with pytest.raises(DataError):
        Link(1, 2, 100.0, 1.0, -0.15, 4.0)


def test_network_validation():
    link = Link(1, 3, 100.0, 1.0, 0.15, 4.0)
    with pytest.raises(DataError):
        Network(node_count=2, links=(link,), zone_count=1)
    with pytest.raises(DataError):
        Network(node_count=2, links=(), zone_count=5)


def test_demand_validation():
    with pytest.raises(DataError):
        DemandMatrix({(1, 2): -5.0})
    with pytest.raises(DataError):
        DemandMatrix({(0, 2): 5.0})


@pytest.mark.parametrize("q", [math.inf, math.nan])
def test_demand_must_be_finite(q):
    with pytest.raises(DataError, match=r"demand entry \(1,2\) is not a finite number"):
        DemandMatrix({(1, 2): q})


def test_network_round_trip(desk, sioux):
    # the link file never carries coordinates, so compare without them
    for net in (desk.net, sioux.net):
        bare = replace(net, coordinates=None)
        again = parse_network(write_network(bare))
        assert network_fingerprint(again) == network_fingerprint(bare)
        assert network_fingerprint(net) != network_fingerprint(bare)


def test_fingerprints_differ(desk, sioux):
    assert network_fingerprint(desk.net) != network_fingerprint(sioux.net)
    assert demand_fingerprint(desk.demand) != demand_fingerprint(sioux.demand)


def test_fingerprints_are_stable_and_computed_once(sioux, desk):
    # delta-cache headers written before memoisation carry these digests
    net, demand = replace(sioux.net), DemandMatrix(dict(sioux.demand.entries))
    assert network_fingerprint(net) == "fdf87fc1a78723de"
    assert demand_fingerprint(demand) == "ac1dc8d82654c65d"
    assert network_fingerprint(replace(desk.net)) == "3984c4dca0af5589"
    built = apply_upgrades(sioux.net, sioux.upgrades, ["SF-A", "SF-D"])  # two MODs, two ADDs
    assert network_fingerprint(built) == "570e9db93d18aa0b"
    links = (
        Link(1, 2, 1000.0, 1.0, 0.15, 4.0),
        Link(2, 3, 500.5, 2.25, 0.15, 4.0, length=1.5),
        Link(3, 1, 1e-3, 0.0, 0.0, 1.0),
    )
    assert network_fingerprint(Network(node_count=3, links=links, zone_count=2, first_thru_node=2)) == "677606734400f460"
    assert demand_fingerprint(sioux.demand.scaled({1, 2, 3}, 1.03)) == "d76af8fe2962a924"
    # a recomputed digest would be a new string object
    assert network_fingerprint(net) is network_fingerprint(net)
    assert demand_fingerprint(demand) is demand_fingerprint(demand)


def test_totals_add_up_as_sum_adds_the_flows_in_order():
    # more entries than one slab of the parser, with flows whose sum depends
    # on how the additions are made: a compensated sum, or one slab at a
    # time, would give another total
    rng = random.Random(5)
    flows = [rng.choice([1e16, 0.1, 3.3, 7e-5]) * rng.random() for _ in range(3 * 2500)]
    given = iter(flows)
    lines = ["<NUMBER OF ZONES> 2500", "<END OF METADATA>"]
    for r in (3, 1, 2):  # origins out of order, so the entries are sorted
        lines.append(f"Origin {r}")
        lines += [f" {s} : {next(given)!r};" for s in range(1, 2501)]
    text = "\n".join(lines) + "\n"
    dem = parse_demand(text)
    assert list(dem.entries.values()) == flows
    assert dem.total == float(sum(flows))
    out = dem.scaled({1}, 1.03)
    assert out.total == float(sum(out.entries.values()))
    assert DemandMatrix(dict(dem.entries)).total == dem.total


def test_scaled_touches_origin_or_destination():
    dem = DemandMatrix({(1, 2): 10.0, (2, 1): 20.0, (3, 4): 30.0})
    out = dem.scaled({1}, 2.0)
    assert out.entries[(1, 2)] == 20.0
    assert out.entries[(2, 1)] == 40.0
    assert out.entries[(3, 4)] == 30.0
    assert dem.scaled({1, 3}, 0.0).entries == {}  # zeros are dropped entirely
    with pytest.raises(DataError):
        dem.scaled({1}, -1.0)


def test_parse_upgrades_desk(desk):
    ups = desk.upgrades
    assert ups.ids == ("C-A1", "C-A2", "C-A3", "C-B1", "C-B2", "C-B3", "C-X1", "C-X2")
    a1 = ups.by_id["C-A1"]
    assert a1.cost == 800.0
    assert a1.kind == "capacity-upgrade"
    x1 = ups.by_id["C-X1"]
    assert x1.kind == "new-road"


def test_parse_upgrades_errors():
    with pytest.raises(ParseError):
        parse_upgrades("PROJECT a 100\n")  # missing kind
    with pytest.raises(ParseError):
        parse_upgrades("PROJECT a 100 repaving\n")  # unknown kind
    with pytest.raises(ParseError):
        parse_upgrades("MOD 1 2 CAPACITY=5\n")  # edit before any project
    with pytest.raises(ParseError):
        parse_upgrades(
            "PROJECT a 1 new-road\nADD 1 2 100 1 1 0.15 4\n"
            "PROJECT a 2 new-road\nADD 2 1 100 1 1 0.15 4\n"
        )  # duplicate id
    with pytest.raises(ParseError) as err:
        parse_upgrades("PROJECT a 1 new-road\nADD 1 2 100 1 1 0.15\n")
    assert err.value.line == 2


def test_reserved_upgrade_ids_are_rejected():
    road = (Link(1, 2, 100.0, 1.0, 0.15, 4.0),)
    for reserved in ("BASELINE", "#1", "#"):
        with pytest.raises(DataError, match="reserved"):
            Upgrade(reserved, 10.0, "new-road", additions=road)
    # only the exact cache keyword is reserved
    assert Upgrade("BASELINE-2", 10.0, "new-road", additions=road).id == "BASELINE-2"
    with pytest.raises(ParseError) as err:
        parse_upgrades("PROJECT BASELINE 1 new-road\nADD 1 2 100 1 1 0.15 4\n")
    assert "reserved" in str(err.value)


def test_parse_upgrades_checks_links_against_network(desk):
    text = "PROJECT ghost 10 capacity-upgrade\nMOD 4 5 CAPACITY=1\n"
    with pytest.raises((ParseError, DataError)):
        parse_upgrades(text, network=desk.net)
    # without a network the same text is accepted
    ups = parse_upgrades(text)
    assert ups.ids == ("ghost",)


def test_apply_capacity_upgrade(desk):
    out = apply_upgrades(desk.net, desk.upgrades, ("C-A1",))
    changed = [l for l in out.links if (l.from_node, l.to_node) == (1, 3)]
    assert changed[0].capacity == 800.0
    untouched = [l for l in out.links if (l.from_node, l.to_node) == (3, 4)]
    assert untouched[0].capacity == 400.0
    assert len(out.links) == len(desk.net.links)


def test_apply_new_road(desk):
    out = apply_upgrades(desk.net, desk.upgrades, ("C-X1",))
    assert len(out.links) == len(desk.net.links) + 2
    added = [l for l in out.links if (l.from_node, l.to_node) == (3, 5)]
    assert added and added[0].capacity == 600.0


def test_apply_checks_a_modified_link_as_link_does(desk):
    for mod, message in [
        (LinkModification(1, 3, capacity=0.0), "link 1->3: capacity must be positive"),
        (LinkModification(1, 3, capacity=5.0, free_flow_time=-1.0), "link 1->3: negative free-flow time"),
        (LinkModification(1, 3, capacity=5.0, free_flow_time=math.inf), "link 1->3: infinite free-flow time or BPR parameter"),
    ]:
        ups = UpgradeSet((Upgrade("U", 1.0, "capacity-upgrade", modifications=(mod,)),))
        with pytest.raises(DataError, match=f"^{message}$"):
            apply_upgrades(desk.net, ups, ["U"])


def test_equal_networks_hash_alike(desk):
    assert hash(replace(desk.net)) == hash(desk.net)
    assert len({desk.net, replace(desk.net), apply_upgrades(desk.net, desk.upgrades, ["C-A1"])}) == 2
    zero, negative_zero = (
        Network(node_count=2, links=(Link(1, 2, 10.0, t, 0.15, 4.0),), zone_count=2) for t in (0.0, -0.0)
    )
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_apply_unknown_id(desk):
    with pytest.raises(DataError):
        apply_upgrades(desk.net, desk.upgrades, ("nope",))


def test_apply_is_order_independent(desk):
    a = apply_upgrades(desk.net, desk.upgrades, ("C-A1", "C-X1"))
    b = apply_upgrades(desk.net, desk.upgrades, ("C-X1", "C-A1"))
    assert network_fingerprint(a) == network_fingerprint(b)


def test_resolve_accepts_indices(desk):
    ups = desk.upgrades
    by_idx = ups.resolve([1, 2])
    by_id = ups.resolve(["C-A1", "C-A2"])
    assert by_idx == by_id
    assert [u.id for u in ups.resolve(["C-A2", "C-A1", 1])] == ["C-A1", "C-A2"]
    with pytest.raises(DataError):
        ups.resolve([99])
    with pytest.raises(DataError):
        ups.resolve(["C-A9"])


def test_mod_with_fftime_and_parallel_index():
    net = Network(
        node_count=2,
        links=(
            Link(1, 2, 100.0, 5.0, 0.15, 4.0),
            Link(1, 2, 200.0, 7.0, 0.15, 4.0),
        ),
        zone_count=2,
    )
    text = "PROJECT p 10 capacity-upgrade\nMOD 1 2 1 CAPACITY=300 FFTIME=6\n"
    ups = parse_upgrades(text, network=net)
    out = apply_upgrades(net, ups, ("p",))
    assert out.links[0].capacity == 100.0
    assert out.links[1].capacity == 300.0
    assert out.links[1].free_flow_time == 6.0


def test_parse_nodes_skips_header():
    text = "Node,X,Y,;\n1,10.5,20.5,;\n2,30,40,;\n"
    coords = parse_nodes(text)
    assert coords == {1: (10.5, 20.5), 2: (30.0, 40.0)}


@pytest.mark.parametrize("row", ["2 nan 40 ;", "2 30 inf ;", "2 -inf 40 ;", "2 1e999 40 ;"])
def test_parse_nodes_rejects_a_non_finite_coordinate(row):
    with pytest.raises(ParseError) as err:
        parse_nodes(f"Node X Y ;\n1 10.5 20.5 ;\n{row}\n")
    assert (str(err.value), err.value.line) == ("line 3: node 2 has a non-finite coordinate", 3)


def test_random_network_round_trip():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randint(2, 30)
        m = rng.randint(1, 60)
        links = tuple(
            Link(
                rng.randint(1, n),
                rng.randint(1, n),
                rng.uniform(1, 1e4),
                rng.uniform(0, 100),
                rng.uniform(0, 2),
                rng.choice([1.0, 2.0, 4.0]),
                length=rng.uniform(0, 10),
            )
            for _ in range(m)
        )
        net = Network(node_count=n, links=links, zone_count=rng.randint(1, n))
        again = parse_network(write_network(net))
        assert network_fingerprint(again) == network_fingerprint(net)
