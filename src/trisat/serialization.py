"""Deterministic graph serialization.

Two formats, both listing edges in canonical order:

* ``json``  -- ``{"parts": [n1, n2, n3], "edges": [[i, a, j, b], ...]}``
  with i < j on every edge row.
* ``edges`` -- ASCII text: a header line ``tripartite n1 n2 n3`` followed
  by one line ``i a j b`` per edge, newline-terminated; every number is
  plain decimal digits (no sign, no ``_`` separator).

``deserialize`` is the one way in: it auto-detects the format from the
first non-blank text (``{`` or ``tripartite``) and hands it to that
format's decoder.  Leading blank lines are skipped in both formats: the
edge list's header is its first non-blank line.  Each decoder hands the
ints it parsed for an edge straight to the builder's one edge write,
which sets the two row bits (no ``VertexRef`` is built unless the edge is
refused), and the writers read ``(i, a, j, b)`` from the graph's canonical
row walk.  Malformed input raises :class:`FormatError` carrying the
offending line (its line number in the file), edge row or JSON position.
"""

from __future__ import annotations

import json

from .graphs import GraphBuilder, GraphError, TripartiteGraph, edge_ints

FORMATS = ("json", "edges")


class FormatError(ValueError):
    """Malformed serialized graph data."""


def serialize(g: TripartiteGraph, fmt: str = "edges") -> bytes:
    if fmt == "json":
        obj = to_json_obj(g)
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii")
    if fmt == "edges":
        lines = ["tripartite {} {} {}".format(*g.part_sizes)]
        lines += [f"{i} {a} {j} {b}" for i, a, j, b in edge_ints(g)]
        return ("\n".join(lines) + "\n").encode("ascii")
    raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def to_json_obj(g: TripartiteGraph) -> dict:
    return {
        "parts": list(g.part_sizes),
        "edges": [[i, a, j, b] for i, a, j, b in edge_ints(g)],
    }


def deserialize(data: bytes) -> TripartiteGraph:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte at position {exc.start}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(text)
    if stripped.startswith("tripartite"):
        return _from_edge_lines(text)
    raise FormatError("unrecognized format: expected a JSON object or a 'tripartite' header")


def _from_json(text: str) -> TripartiteGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise FormatError("input: expected a JSON object")
    unknown = set(obj) - {"parts", "edges"}
    if unknown:
        raise FormatError(f"input: unknown keys {sorted(unknown)}")
    parts = obj.get("parts")
    # type(x) is int, not isinstance: JSON true/false decode to bool, an int subclass
    if (not isinstance(parts, list) or len(parts) != 3
            or not all(type(n) is int and n >= 1 for n in parts)):
        raise FormatError("input: 'parts' must be three positive integers")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise FormatError("input: 'edges' must be a list")
    b = GraphBuilder(tuple(parts))
    join = b._join
    for k, row in enumerate(edges):
        if not (isinstance(row, list) and len(row) == 4
                and all(type(x) is int for x in row)):
            raise FormatError(f"input: edges[{k}] must be four integers [i, a, j, b]")
        try:
            join(*row)
        except GraphError as exc:
            raise FormatError(f"input: edges[{k}]: {exc}") from None
    return b.build()


def decimal_ints(fields: list[str]) -> list[int]:
    """The fields as ints; ValueError unless each is plain ASCII decimal
    digits (Python's ``int`` also takes signs, ``_``, spaces and non-ASCII
    digits).  The edge-list header and the command line are read with it;
    edge lines apply the same test to their fields joined."""
    if not all(x.isascii() and x.isdigit() for x in fields):
        raise ValueError("not a decimal field")
    return [int(x) for x in fields]


def _from_edge_lines(text: str) -> TripartiteGraph:
    lines = text.splitlines()
    # deserialize saw non-blank text, so a first non-blank line exists
    top = next(k for k, line in enumerate(lines) if line.split())
    head = lines[top].split()
    if len(head) != 4 or head[0] != "tripartite":
        raise FormatError(f"line {top + 1}: expected header 'tripartite n1 n2 n3'")
    try:
        sizes = tuple(decimal_ints(head[1:]))
    except ValueError:
        raise FormatError(f"line {top + 1}: part sizes must be decimal integers") from None
    if any(n < 1 for n in sizes):
        raise FormatError(f"line {top + 1}: part sizes must be positive")
    b = GraphBuilder(sizes)
    join = b._join
    for ln, line in enumerate(lines[top + 1:], start=top + 2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise FormatError(f"line {ln}: expected 'i a j b', got {line!r}")
        # split() yields no empty field, so this is decimal_ints' test on each
        digits = "".join(fields)
        if not (digits.isascii() and digits.isdigit()):
            raise FormatError(f"line {ln}: non-decimal field in {line!r}")
        i, a, j, bb = fields
        try:
            join(int(i), int(a), int(j), int(bb))
        except GraphError as exc:
            raise FormatError(f"line {ln}: {exc}") from None
    return b.build()
