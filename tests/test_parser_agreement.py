"""The parsers' bulk checks against their row-at-a-time reference readers.

The bulk path of `parse_network` and `parse_demand` only says whether a slab
is clean, and the readers name the error.  So on every input the two must
agree: the parse succeeds and the reader finds nothing, or the parse raises
exactly the reader's error.  Each file below is desk's or Sioux Falls' link
or trip file with one data line given one fault: every fault of every line
of desk's files, and of a seeded sample of Sioux Falls' lines.
"""

import random

import pytest

from roadworks import DataError, ParseError, parse_demand, parse_network
from roadworks.network import _data_slabs, _lines, _link_row_problem, _read_metadata, _trip_error

BIG, NEG_BIG = str(1 << 63), str(-(1 << 63) - 1)

# checks of the whole file that no reader makes, by message
FILE_CHECKS = ("<NUMBER OF LINKS> declares", "references a node outside", "<TOTAL OD FLOW> declares",
               "has a non-positive node id", "demand entries sum past")


def link_faults(row):
    """Link row `row` given each of a row's faults in turn."""
    fields = row.rstrip().rstrip(";").split()
    out = [" ".join(fields), " ".join(fields[:-1]) + " ;", " ".join(fields + ["7"]) + " ;"]
    for k, value in [(0, "x"), (1, "2.5"), (2, "oops"), (3, "--1"), (4, "1.2.3"), (5, "e"), (6, "-"),
                     (2, "0"), (2, "nan"), (4, "-1"), (4, "inf"), (5, "-0.1"), (6, "nan"), (0, BIG), (1, NEG_BIG),
                     (0, "99")]:
        out.append(" ".join(fields[:k] + [value] + fields[k + 1:]) + " ;")
    return out


def trip_faults(line, zones, earlier):
    """Trip line `line` given each of a line's and an entry's faults in
    turn; `earlier` is an entry of an earlier line, or None."""
    if line.split()[0].lower() == "origin":
        return [f"Origin {zones + 1}", f"Origin {BIG}", "Origin 0", line + " junk", "2 : 1.0;"]
    first = line.split(";")[0] + ";"
    dest, _ = first.split(":")
    out = [line + " junk", line + first, line + f"{dest}: 0;"]
    out += [line.replace(first, f"{dest}: {flow};", 1) for flow in ("1.2.3", "-0.5", "1e999", "0")]
    out += [line.replace(first, f" {d} : 1.0;", 1) for d in (str(zones + 1), BIG, "0")]
    return out + ([line + " " + earlier] if earlier else [])


def link_reference(text):
    """The message and line of the first link row that `_link_row_problem`
    rejects, or None."""
    lines = _lines(text)
    _, start = _read_metadata(lines)
    for numbers, rows in _data_slabs(lines, start):
        for number, row in zip(numbers, rows):
            problem = _link_row_problem(row)
            if problem is not None:
                return f"line {number}: {problem}", number
    return None


def trip_reference(text):
    error = _trip_error(text)
    return None if error is None else (str(error), error.line)


def one_fault_files(text, kind, sample):
    """Each one-fault variant of link or trip file `text` (as `kind` says),
    for at most `sample` of its data lines, drawn with a fixed seed."""
    lines = text.splitlines()
    end = next(i for i, line in enumerate(lines) if "END OF METADATA" in line) + 1
    zones = int(lines[0].split()[-1])
    data = [i for i in range(end, len(lines)) if lines[i].strip() and not lines[i].lstrip().startswith("~")]
    chosen = set(random.Random(26).sample(data, min(sample, len(data))))
    earlier = None
    for i in data:
        line = lines[i].strip()
        if i in chosen:
            for fault in link_faults(line) if kind == "net" else trip_faults(line, zones, earlier):
                yield "\n".join(lines[:i] + [fault] + lines[i + 1:]) + "\n"
        if ":" in line:
            earlier = line.split(";")[0] + ";"


@pytest.mark.parametrize("name, sample", [("desk", 10), ("siouxfalls", 30)])
@pytest.mark.parametrize("kind", ["net", "trips"])
def test_the_bulk_checks_are_exactly_as_strict_as_the_reader(data_dir, name, sample, kind):
    parse, reference = (parse_network, link_reference) if kind == "net" else (parse_demand, trip_reference)
    named = files = 0
    for files, text in enumerate(one_fault_files((data_dir / f"{name}_{kind}.tntp").read_text(), kind, sample), 1):
        expected = reference(text)
        try:
            parse(text)
        except (ParseError, DataError) as exc:
            if expected is None:
                assert any(check in str(exc) for check in FILE_CHECKS), exc
            else:
                assert (type(exc), str(exc), exc.line) == (ParseError, *expected)
                named += 1
        else:
            assert expected is None
    assert named > files / 2
