"""Serialization: golden bytes, round trips, malformed-input diagnostics."""

import hashlib
import json
import random

import pytest

from trisat import (FormatError, GraphBuilder, GraphError, VertexRef, deserialize, new_host,
                    serialize)
from trisat.serialization import to_json_obj
from conftest import edge_tuples, random_graph, random_sizes


def test_edges_format_golden():
    empty = GraphBuilder((1, 1, 1)).build()
    assert serialize(empty, "edges") == b"tripartite 1 1 1\n"
    host = new_host(1, 1, 1)
    assert serialize(host, "edges") == (
        b"tripartite 1 1 1\n"
        b"1 1 2 1\n"
        b"1 1 3 1\n"
        b"2 1 3 1\n")


def test_json_format_shape():
    host = new_host(1, 1, 1)
    obj = json.loads(serialize(host, "json"))
    assert obj == {"parts": [1, 1, 1], "edges": [[1, 1, 2, 1], [1, 1, 3, 1], [2, 1, 3, 1]]}


def test_round_trip_on_random_graphs():
    rnd = random.Random(17)
    for _ in range(100):
        g = random_graph(rnd, random_sizes(rnd, max_size=5), density=rnd.random())
        for fmt in ("json", "edges"):
            assert deserialize(serialize(g, fmt)) == g


def test_serialization_deterministic():
    rnd = random.Random(23)
    g = random_graph(rnd, (4, 3, 2))
    assert serialize(g, "json") == serialize(g, "json")
    assert serialize(g, "edges") == serialize(g, "edges")


MALFORMED = [
    (b"", "unrecognized"),
    (b"tripartite 1 1\n", "line 1"),
    (b"tripartite 1 1 x\n", "line 1"),
    (b"tripartite 1_0 2 2\n", "line 1"),                 # int() would read 10
    (b"tripartite +1 1 1\n", "line 1"),
    (b"tripartite 1 1 1\n+1 1 2 0_1\n", "line 2"),
    (b"tripartite 1 1 1\n1 1 2\n", "line 2"),
    (b"tripartite 1 1 1\n1 1 1 1\n", "line 2"),          # same-part pair
    (b"tripartite 1 1 1\n1 1 2 1\n1 1 2 1\n", "line 3"),  # duplicate edge
    (b"tripartite 1 1 1\n1 2 2 1\n", "line 2"),           # index out of range
    (b'{"parts": [1, 1]}', "parts"),
    (b'{"parts": [1, 1, 1], "edges": [[1, 1, 2]]}', "edges[0]"),
    (b'{"parts": [1, 1, 1], "edges": [[1, 1, 2, 1]], "foo": 1}', "unknown"),
    (b'{"parts": [1, 1, 1], "edges": ', "line 1"),         # truncated JSON
    (b'{"parts":[true,true,true],"edges":[[1,true,2,1]]}', "parts"),  # JSON booleans
    (b'{"parts":[1,1,1],"edges":[[1,true,2,1]]}', "edges[0]"),
]


@pytest.mark.parametrize("data,fragment", MALFORMED)
def test_malformed_inputs_carry_position(data, fragment):
    with pytest.raises(FormatError) as err:
        deserialize(data)
    assert fragment in str(err.value)


def test_leading_blank_lines_before_the_header_are_skipped():
    # the header is the first non-blank line, as deserialize's format test reads it
    plain = deserialize(b"tripartite 1 1 1\n1 1 2 1\n")
    assert deserialize(b"\n tripartite 1 1 1\n1 1 2 1\n") == plain


def test_messages_after_leading_blank_lines_keep_the_file_line_number():
    with pytest.raises(FormatError, match=r"^line 4: v1\^1 and v1\^1 lie in the same part$"):
        deserialize(b"\n \ntripartite 1 1 1\n1 1 1 1\n")
    with pytest.raises(FormatError, match=r"^line 3: part sizes must be decimal integers$"):
        deserialize(b"\r\n\t\ntripartite 1 1 x\n")


def test_unknown_format_rejected():
    with pytest.raises(FormatError):
        serialize(new_host(1, 1, 1), "graph6")


# -- decode and write outcomes ------------------------------------------------

# the values a mutated field takes; "n+1" stands for one past the field's range
FIELD_VALUES = ("0", "n+1", "4", "-1", "1_0", "\u0661", "true", "1.5")


def _render(parts: list, rows: list, fmt: str, sep: str = " ", nl: str = "\n") -> bytes:
    """The text of a graph given as field strings: ``parts`` and one
    4-list per edge row.  A string in ``rows`` is a whitespace line, kept
    as a line of the edge list and as whitespace in the JSON; ``sep``
    separates fields and ``nl`` ends lines."""
    if fmt == "edges":
        lines = [sep.join(["tripartite", *parts])]
        lines += [r if isinstance(r, str) else sep.join(r) for r in rows]
        return (nl.join(lines) + nl).encode()
    items, pad = [], ""
    for r in rows:
        if isinstance(r, str):
            pad += r + nl
        else:
            items.append(pad + "[" + ("," + sep).join(r) + "]")
            pad = ""
    return ('{"parts":[' + ",".join(parts) + "]," + nl + '"edges":['
            + ("," + nl).join(items) + pad + "]}" + nl).encode()


def _mutants(g, values=FIELD_VALUES) -> list[tuple]:
    """``(parts, rows, sep, nl)`` for g as written and for one-change
    mutations of it: each header and edge field set to each of ``values``,
    each edge swapped end for end, turned into a same-part pair or
    duplicated, a blank and a whitespace line before each edge, and the
    whole text with tab separators, CRLF line ends or both."""
    parts = [str(n) for n in g.part_sizes]
    rows = [[str(x) for x in e] for e in edge_tuples(g)]
    out = [(parts, rows, " ", "\n")]
    for f in range(3):
        for val in values:
            new = str(g.part_sizes[f] + 1) if val == "n+1" else val
            out.append((parts[:f] + [new] + parts[f + 1:], rows, " ", "\n"))
    for k, r in enumerate(rows):
        def edited(row, at=k, insert=False):
            return (parts, rows[:at] + [row] + rows[at + (not insert):], " ", "\n")
        for f in range(4):
            for val in values:
                if val == "n+1":
                    val = "4" if f % 2 == 0 else str(g.part_sizes[int(r[f - 1]) - 1] + 1)
                out.append(edited(r[:f] + [val] + r[f + 1:]))
        out += [edited(r[2:] + r[:2]), edited([r[0], r[1], r[0], "1"]),
                edited(r, k + 1, True), edited("", insert=True), edited(" \t ", insert=True)]
    out += [(parts, rows, sep, nl) for sep, nl in (("\t", "\n"), (" ", "\r\n"), ("\t", "\r\n"))]
    return out


def _outcome(decode) -> str:
    """The graph ``decode()`` returns, as its edge count and JSON object, or
    the class and full text of the FormatError or GraphError it raises."""
    try:
        g = decode()
    except (FormatError, GraphError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([g.num_edges, to_json_obj(g)])


def decode_outcomes_digest() -> str:
    """sha256 over the outcome of every malformed input above, of
    ``deserialize`` on every mutant of a seeded (3,3,2) graph in both
    formats, and of ``add_edge`` and ``remove_edge`` on that graph's
    builder for every ordered pair of refs with indices up to one past
    each part's size (out of range, same part, present and absent)."""
    g = random_graph(random.Random(41), (3, 3, 2))
    outcomes = [_outcome(lambda: deserialize(data)) for data, _ in MALFORMED]
    outcomes += [_outcome(lambda: deserialize(_render(parts, rows, fmt, sep, nl)))
                 for parts, rows, sep, nl in _mutants(g) for fmt in ("edges", "json")]
    refs = [VertexRef(i, a) for i in (1, 2, 3) for a in range(1, g.part_sizes[i - 1] + 2)]
    for u in refs:
        for v in refs:
            for op in (GraphBuilder.add_edge, GraphBuilder.remove_edge):
                b = GraphBuilder.from_graph(g)
                outcomes.append(_outcome(lambda: op(b, u, v) or b.build()))
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome.encode() + b"\n")
    return digest.hexdigest()


def test_decode_and_write_outcomes_pinned_by_digest():
    # every graph, message and line or row number the decoders and the edge writes give
    assert decode_outcomes_digest() == (
        "296321e9328fa30043e9bff077b96c06bc3e7bec817e1e80a8cc4ec5ee86f0c7")


def _reference_decode(data: bytes):
    """The inputs made by ``_mutants`` decoded one edge at a time through
    ``add_edge(VertexRef(i, a), VertexRef(j, b))``, with the decoders' messages."""
    text = data.decode("ascii")
    if text.startswith("{"):
        obj = json.loads(text)
        b = GraphBuilder(tuple(obj["parts"]))
        for k, row in enumerate(obj["edges"]):
            if not all(type(x) is int for x in row):
                raise FormatError(f"input: edges[{k}] must be four integers [i, a, j, b]")
            try:
                b.add_edge(VertexRef(row[0], row[1]), VertexRef(row[2], row[3]))
            except GraphError as exc:
                raise FormatError(f"input: edges[{k}]: {exc}") from None
        return b.build()
    lines = text.splitlines()
    b = GraphBuilder(tuple(int(n) for n in lines[0].split()[1:]))
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if not all(x.isascii() and x.isdigit() for x in fields):
            raise FormatError(f"line {ln}: non-decimal field in {line!r}")
        i, a, j, c = map(int, fields)
        try:
            b.add_edge(VertexRef(i, a), VertexRef(j, c))
        except GraphError as exc:
            raise FormatError(f"line {ln}: {exc}") from None
    return b.build()


def test_decoders_agree_with_a_per_edge_reference_decoder():
    # edge-field mutations only: the reference reads headers and JSON syntax as given
    rnd = random.Random(29)
    values = ("0", "n+1", "4", "-1", "1.5")
    for _ in range(100):
        g = random_graph(rnd, random_sizes(rnd, max_size=5), density=rnd.random())
        mutants = _mutants(g, values)
        edits = [m for m in mutants if m[0] == mutants[0][0]]
        for parts, rows, sep, nl in [edits[0]] + rnd.sample(edits, min(len(edits), 12)):
            for fmt in ("edges", "json"):
                data = _render(parts, rows, fmt, sep, nl)
                assert _outcome(lambda: deserialize(data)) == _outcome(
                    lambda: _reference_decode(data)), data
