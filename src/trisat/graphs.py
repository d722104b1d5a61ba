"""Tripartite graph data model.

Vertices are addressed as (part, index) with parts numbered 1..3 and
1-based vertex indices, so the j-th vertex of part i is ``VertexRef(i, j)``.
Edges join vertices of distinct parts only; within-part pairs never exist.

Adjacency is stored as one int row per vertex over a single vertex
numbering: the vertices of part 1, then part 2, then part 3, each part in
index order, so v_i^a sits at position ``offsets[i-1] + a - 1`` and bit y
of ``rows[x]`` is set iff the vertices at positions x and y are adjacent.
A neighbourhood intersection is one AND whatever parts it spans;
``neighbors_mask(i, a, j)`` reads part j's slice of v_i^a's row (bit b-1
set iff v_i^a ~ v_j^b).  Split degrees are read the same way: one pass
ANDs each row with the three part spans, and ``iso_equivalent`` maps g's
positions onto h's positions of equal split degree, comparing row bits on
the pairs already mapped.

A published ``TripartiteGraph`` is an immutable value and safe to share;
``GraphBuilder`` is the single-owner mutable stage used while assembling
one.  The canonical edge order used everywhere (iteration, serialization,
search) is: part pair (1,2) before (1,3) before (2,3), and
lexicographic by (a, b) within a pair.  Edge lists are walked as
``(i, a, j, b)`` ints (``edge_ints``, the host's ``host_edge_ints``), and
``VertexRef`` pairs are views built at the end of a walk, and
``host_edge_count`` counts the host's edges without a walk.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from typing import Iterator

PARTS = (1, 2, 3)
PAIR_ORDER = ((1, 2), (1, 3), (2, 3))

# frames kept free below the recursion limit for the callers of a recursive search
_STACK_MARGIN = 200


class GraphError(ValueError):
    """Structural misuse of the tripartite graph API."""


@dataclass(frozen=True, order=True)
class VertexRef:
    """Address of one vertex: v_part^index, both 1-based plain ints (a numpy
    integer is converted; a bool, float or other value raises GraphError)."""

    part: int
    index: int

    def __post_init__(self) -> None:
        part, index = self.part, self.index
        if type(part) is not int or type(index) is not int:
            part, index = exact_int(part), exact_int(index)
            if part is None or index is None:
                raise GraphError(f"part and index must be integers, got {self.part!r}, {self.index!r}")
            object.__setattr__(self, "part", part)
            object.__setattr__(self, "index", index)
        if part not in PARTS:
            raise GraphError(f"part must be one of {PARTS}, got {part}")
        if index < 1:
            raise GraphError(f"vertex index must be >= 1, got {index}")

    def __repr__(self) -> str:
        return f"v{self.part}^{self.index}"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 1-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def exact_int(x) -> int | None:
    """x as an int when it is an integer (numpy integers included) and not
    a bool; None for anything else, floats and strings among them."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def _check_sizes(part_sizes: tuple[int, int, int]) -> tuple[int, int, int]:
    sizes = tuple(exact_int(n) for n in part_sizes)
    if len(sizes) != 3 or any(n is None or n < 1 for n in sizes):
        raise GraphError(f"part sizes must be three positive integers, got {part_sizes}")
    return sizes  # type: ignore[return-value]


class _GraphReader:
    """Read-only surface shared by :class:`TripartiteGraph` and
    :class:`GraphBuilder`, so read-only algorithms run against either."""

    __slots__ = ("part_sizes", "_offsets", "_adj", "_num_edges")

    def __init__(self, part_sizes: tuple[int, int, int], adj, num_edges: int):
        self.part_sizes = part_sizes
        self._offsets = (0, part_sizes[0], part_sizes[0] + part_sizes[1])
        self._adj = adj
        self._num_edges = num_edges

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def offsets(self) -> tuple[int, int, int]:
        """The position of each part's first vertex in the rows' numbering."""
        return self._offsets

    @property
    def rows(self) -> tuple[int, ...]:
        """One adjacency row per vertex position (see the module docstring)."""
        return self._adj

    def part_mask(self, part: int) -> int:
        return (1 << self.part_sizes[part - 1]) - 1

    def induced(self, keep: "list[int]") -> "TripartiteGraph":
        """The subgraph induced on the vertices whose bits are set in
        ``keep`` (one mask per part); vertices keep their indices."""
        kept = 0
        for i in PARTS:
            kept |= (keep[i - 1] & self.part_mask(i)) << self._offsets[i - 1]
        adj = tuple(r & kept if (kept >> x) & 1 else 0 for x, r in enumerate(self._adj))
        return TripartiteGraph(self.part_sizes, adj, sum(r.bit_count() for r in adj) // 2)

    def neighbors_mask(self, part: int, index: int, other_part: int) -> int:
        """Bitmask of the neighbours of v_part^index inside other_part."""
        return ((self._adj[self._offsets[part - 1] + index - 1] >> self._offsets[other_part - 1])
                & ((1 << self.part_sizes[other_part - 1]) - 1))

    def check_vertex(self, v: VertexRef) -> None:
        if v.index > self.part_sizes[v.part - 1]:
            raise GraphError(f"{v} out of range for part sizes {self.part_sizes}")

    def _pos(self, v: VertexRef) -> int:
        """v's position in the vertex numbering of the rows."""
        self.check_vertex(v)
        return self._offsets[v.part - 1] + v.index - 1

    def _place(self, i: int, a: int, j: int, b: int) -> tuple[int, int]:
        """The positions of v_i^a and v_j^b in distinct parts, checked on the
        plain ints; only a refused pair builds its refs, for the message."""
        sizes = self.part_sizes
        if i != j and 0 < i < 4 and 0 < j < 4 and 0 < a <= sizes[i - 1] and 0 < b <= sizes[j - 1]:
            return self._offsets[i - 1] + a - 1, self._offsets[j - 1] + b - 1
        u, v = VertexRef(i, a), VertexRef(j, b)
        if i == j:
            raise GraphError(f"{u} and {v} lie in the same part")
        return self._pos(u), self._pos(v)

    def has_edge(self, u: VertexRef, v: VertexRef) -> bool:
        return bool((self._adj[self._pos(u)] >> self._pos(v)) & 1)

    def degree(self, v: VertexRef) -> int:
        return self._adj[self._pos(v)].bit_count()

    def edges(self) -> list[tuple[VertexRef, VertexRef]]:
        """All edges in canonical order, read from the walk of :func:`edge_ints`."""
        return _refs(edge_ints(self))


class TripartiteGraph(_GraphReader):
    """Immutable tripartite graph.

    Construct through :class:`GraphBuilder`, :func:`new_host` or
    :meth:`from_edges`; the constructor is an internal detail.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, part_sizes: tuple[int, int, int],
                   edges: "list[tuple[VertexRef, VertexRef]]") -> "TripartiteGraph":
        b = GraphBuilder(part_sizes)
        for u, v in edges:
            b.add_edge(u, v)
        return b.build()

    def vertices(self) -> list[VertexRef]:
        return [VertexRef(i, a) for i in PARTS
                for a in range(1, self.part_sizes[i - 1] + 1)]

    # -- derivation ----------------------------------------------------------

    def with_edge(self, u: VertexRef, v: VertexRef) -> "TripartiteGraph":
        """A new graph with the edge uv added; self is unchanged."""
        b = GraphBuilder.from_graph(self)
        b.add_edge(u, v)
        return b.build()

    def without_edge(self, u: VertexRef, v: VertexRef) -> "TripartiteGraph":
        """A new graph with the edge uv removed; self is unchanged."""
        b = GraphBuilder.from_graph(self)
        b.remove_edge(u, v)
        return b.build()

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripartiteGraph):
            return NotImplemented
        return self.part_sizes == other.part_sizes and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.part_sizes, self._adj))

    def __repr__(self) -> str:
        return f"TripartiteGraph(parts={self.part_sizes}, edges={self._num_edges})"


class GraphBuilder(_GraphReader):
    """Mutable edge-set stage for assembling a TripartiteGraph.

    Every edge write is ``_join(i, a, j, b)`` on plain ints: the reader's
    ``_place`` checks parts and ranges, ``_join`` absence, then it sets the
    two row bits.  ``add_edge`` is that write on a pair of refs, and the
    decoders of :mod:`trisat.serialization` call it with the ints they
    parsed.  A refused edge raises the GraphError of its first failed
    check: the refs' own checks, then same part, then u's range, then v's
    range, then duplicate; ``remove_edge`` shares the position step.
    """

    __slots__ = ()

    def __init__(self, part_sizes: tuple[int, int, int]):
        sizes = _check_sizes(part_sizes)
        super().__init__(sizes, [0] * sum(sizes), 0)

    @property
    def rows(self) -> tuple[int, ...]:
        """A snapshot of the rows; later edits do not show in it."""
        return tuple(self._adj)

    @classmethod
    def from_graph(cls, g: TripartiteGraph) -> "GraphBuilder":
        b = cls(g.part_sizes)
        b._adj = list(g._adj)
        b._num_edges = g.num_edges
        return b

    def _join(self, i: int, a: int, j: int, b: int) -> None:
        """Add the edge v_i^a v_j^b: the one edge write, on plain ints."""
        x, y = self._place(i, a, j, b)
        adj = self._adj
        if (adj[x] >> y) & 1:
            raise GraphError(f"edge {VertexRef(i, a)}{VertexRef(j, b)} already present")
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        self._num_edges += 1

    def add_edge(self, u: VertexRef, v: VertexRef) -> None:
        self._join(u.part, u.index, v.part, v.index)

    def remove_edge(self, u: VertexRef, v: VertexRef) -> None:
        x, y = self._place(u.part, u.index, v.part, v.index)
        if not (self._adj[x] >> y) & 1:
            raise GraphError(f"edge {u}{v} not present")
        self._adj[x] ^= 1 << y
        self._adj[y] ^= 1 << x
        self._num_edges -= 1

    def build(self) -> TripartiteGraph:
        """Publish an immutable snapshot; the builder stays usable."""
        return TripartiteGraph(self.part_sizes, tuple(self._adj), self._num_edges)


# -- module-level operations --------------------------------------------------

def _row_runs(sizes: tuple[int, int, int], row_bits) -> Iterator[tuple[int, int, int, int]]:
    """The runs ``(i, a, j, row_bits(i, a, j))`` in canonical order: the one walk behind
    every edge list.  A run names the pairs (v_i^a, v_j^b), b over its mask's set bits."""
    return ((i, a, j, row_bits(i, a, j)) for i, j in PAIR_ORDER
            for a in range(1, sizes[i - 1] + 1))


def _pairs(runs) -> Iterator[tuple[int, int, int, int]]:
    """The pairs ``(i, a, j, b)`` named by ``runs``, in run order."""
    return ((i, a, j, b) for i, a, j, mask in runs for b in iter_bits(mask))


def _refs(pairs) -> list[tuple[VertexRef, VertexRef]]:
    """The pairs ``(i, a, j, b)`` as (v_i^a, v_j^b): the VertexRef view of an int walk."""
    return [(VertexRef(i, a), VertexRef(j, b)) for i, a, j, b in pairs]


def edge_ints(g: _GraphReader) -> Iterator[tuple[int, int, int, int]]:
    """g's edges as ``(i, a, j, b)`` for v_i^a v_j^b, in canonical order, read
    from its rows: the one edge walk behind ``edges()`` and serialization."""
    return _pairs(_row_runs(g.part_sizes, g.neighbors_mask))


def host_edge_ints(sizes: tuple[int, int, int]) -> list[tuple[int, int, int, int]]:
    """Every edge of the complete host on these part sizes as ``(i, a, j, b)``,
    in canonical order: the one host walk, which exact search numbers."""
    sizes = _check_sizes(sizes)
    return list(_pairs(_row_runs(sizes, lambda i, a, j: (1 << sizes[j - 1]) - 1)))


def host_edge_count(sizes: tuple[int, int, int]) -> int:
    """The number of edges of the complete host on these part sizes."""
    n1, n2, n3 = _check_sizes(sizes)
    return n1 * n2 + n1 * n3 + n2 * n3


def host_edges(sizes: tuple[int, int, int]) -> list[tuple[VertexRef, VertexRef]]:
    """Every edge of the complete host on these part sizes, in canonical order."""
    return _refs(host_edge_ints(sizes))


def new_host(n1: int, n2: int, n3: int) -> TripartiteGraph:
    """The complete tripartite host on parts of sizes n1 >= n2 >= n3 >= 1."""
    sizes = _check_sizes((n1, n2, n3))
    if n1 < n2 or n2 < n3:
        raise GraphError(f"host part sizes must satisfy n1 >= n2 >= n3, got ({n1},{n2},{n3})")
    b = GraphBuilder(sizes)
    for e in host_edge_ints(sizes):
        b._join(*e)
    return b.build()


def nonedge_runs(g: _GraphReader) -> Iterator[tuple[int, int, int, int]]:
    """The nonedges of g relative to its complete host, as runs read from g's rows."""
    return _row_runs(g.part_sizes, lambda i, a, j: g.part_mask(j) & ~g.neighbors_mask(i, a, j))


def host_nonedges(g: TripartiteGraph) -> list[tuple[VertexRef, VertexRef]]:
    """Nonedges of g relative to the complete host on its own part sizes."""
    return _refs(_pairs(nonedge_runs(g)))


def min_degrees(g: _GraphReader) -> tuple[int, int, int]:
    """Per part, the least degree of its vertices, read as row bit counts."""
    rows = g.rows
    return tuple(min(map(int.bit_count, rows[o:o + n]))  # type: ignore[return-value]
                 for n, o in zip(g.part_sizes, g.offsets))


def _signatures(g: _GraphReader) -> list[list[tuple[int, int, int]]]:
    """Per part, each vertex's neighbour counts in parts 1, 2, 3 (0 in its own)."""
    s1, s2, s3 = (((1 << n) - 1) << o for n, o in zip(g.part_sizes, g.offsets))
    return [[((r & s1).bit_count(), (r & s2).bit_count(), (r & s3).bit_count())
             for r in g.rows[o:o + n]] for n, o in zip(g.part_sizes, g.offsets)]


@dataclass(frozen=True)
class DegreeProfile:
    """Per-part minimum degrees and per-vertex degrees split by neighbour part."""

    delta: tuple[int, int, int]
    split: dict  # VertexRef -> {other_part: neighbour count}

    def degree(self, v: VertexRef) -> int:
        return sum(self.split[v].values())


def degree_profile(g: TripartiteGraph) -> DegreeProfile:
    sigs = _signatures(g)
    # part i's two other parts are j < k
    split = {VertexRef(i, a): {j: s[j - 1], k: s[k - 1]}
             for i, j, k, part in zip(PARTS, (2, 1, 1), (3, 3, 2), sigs)
             for a, s in enumerate(part, 1)}
    return DegreeProfile(delta=min_degrees(g), split=split)


def iso_invariant(g: TripartiteGraph) -> tuple:
    """A value equal for any two part-respecting isomorphic graphs: per
    part, its size and the sorted multiset of its vertices' sorted
    split-degree tuples, the parts in sorted order.  Graphs with different
    values are never isomorphic; equal values decide nothing."""
    # sorted(s) puts the vertex's own-part 0 first, then its other two counts
    return tuple(sorted((len(part), tuple(sorted(tuple(sorted(s)[1:]) for s in part)))
                        for part in _signatures(g)))


def iso_equivalent(g: TripartiteGraph, h: TripartiteGraph) -> bool:
    """Part-respecting isomorphism test.

    True iff some bijection composed of (a) a permutation of equal-size
    parts and (b) within-part vertex relabelings maps E(g) onto E(h).
    Each vertex's signature and triangle count are read once; every part
    permutation whose per-part multisets of these agree runs
    ``_iso_backtrack``, which maps g's positions in order, part 1 first.
    Exact; for parts up to ~12.  It recurses once per vertex, so a graph
    too large for the recursion limit raises :class:`GraphError`.
    """
    if sorted(g.part_sizes) != sorted(h.part_sizes) or g.num_edges != h.num_edges:
        return False
    n = len(g.rows)
    if n + _STACK_MARGIN > sys.getrecursionlimit():
        raise GraphError(f"graph has {n} vertices, too deep for the recursion limit "
                         f"{sys.getrecursionlimit()}")

    def keyed(x: TripartiteGraph) -> list:
        # per part, each vertex's signature followed by its triangle count
        rows = x.rows
        tri = iter([sum((rows[y - 1] & r).bit_count() for y in iter_bits(r)) // 2 for r in rows])
        return [[(*s, next(tri)) for s in part] for part in _signatures(x)]

    sig_g, sig_h = keyed(g), keyed(h)
    for perm in itertools.permutations(range(3)):
        # g's part i+1 goes to h's part perm[i]+1, unless sizes or signatures differ
        c1, c2, c3 = perm
        pools = []
        for part, k in zip(sig_g, perm):
            read = [(s[c1], s[c2], s[c3], s[3]) for s in sig_h[k]]
            if sorted(read) != sorted(part):
                break
            pools += [[h.offsets[k] + y for y, t in enumerate(read) if t == s] for s in part]
        else:
            if _iso_backtrack(g.rows, h.rows, pools):
                return True
    return False


def _iso_backtrack(rows_g: tuple[int, ...], rows_h: tuple[int, ...], pools: list) -> bool:
    """Map g's positions 0, 1, ... onto distinct h positions, x onto one of
    ``pools[x]`` (the positions of x's image part whose signature, read in
    g's part order, is x's): y is kept when h's row y on the positions taken
    is the image of g's row x on the positions mapped.  Two vertices of one
    part have a 0 bit in both graphs, so no part test is needed."""
    image: list[int] = []

    def rec(taken: int) -> bool:
        x = len(image)
        if x == len(rows_g):
            return True
        want = sum(1 << image[z - 1] for z in iter_bits(rows_g[x] & ((1 << x) - 1)))
        for y in pools[x]:
            if not (taken >> y) & 1 and rows_h[y] & taken == want:
                image.append(y)
                if rec(taken | 1 << y):
                    return True
                image.pop()
        return False

    return rec(0)
