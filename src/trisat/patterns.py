"""Complete tripartite patterns K_{l,m,p} and witness embeddings.

A pattern has class sizes l >= m >= p >= 0 with m >= 1, so it always has an
edge.  p = 0 degenerates to the complete bipartite pattern K_{l,m}; in
particular the four-cycle C4 is PatternSpec(2, 2, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import VertexRef, exact_int, iter_bits


class PatternError(ValueError):
    """Invalid pattern class sizes."""


class EmbeddingError(ValueError):
    """An embedding violating its own invariants."""


@dataclass(frozen=True)
class PatternSpec:
    """Class sizes of a complete tripartite pattern, largest first."""

    ell: int
    m: int
    p: int

    def __post_init__(self) -> None:
        sizes = tuple(exact_int(x) for x in self.sizes)
        if None in sizes:
            raise PatternError(f"class sizes must be integers, got {self.sizes}")
        # numpy integers become plain ints, so reports serialize as JSON
        for name, x in zip(("ell", "m", "p"), sizes):
            object.__setattr__(self, name, x)
        if not (self.ell >= self.m >= self.p >= 0):
            raise PatternError(f"class sizes must satisfy l >= m >= p >= 0, got {self.sizes}")
        if self.m < 1:
            raise PatternError("pattern must have at least one edge (m >= 1)")

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.ell, self.m, self.p)

    @property
    def is_bipartite(self) -> bool:
        return self.p == 0

    @property
    def nonempty_sizes(self) -> tuple[int, ...]:
        return (self.ell, self.m) if self.p == 0 else self.sizes

    def __repr__(self) -> str:
        return f"K({self.ell},{self.m},{self.p})"


class Embedding:
    """One vertex set per nonempty pattern class, witness of containment.

    ``Embedding(classes)`` holds the classes as given.  The containment
    search returns witnesses that hold each class as a mask over vertex
    positions plus the table of vertices by position, and builds
    ``classes`` from them on first read, each class's members inserted in
    position order; a caller that only tests a witness against None builds
    no sets.  Equality, hash and repr are those of the classes either way.
    """

    __slots__ = ("_classes", "_masks", "_verts")

    def __init__(self, classes: tuple[frozenset, ...]):
        self._classes = classes
        self._masks = self._verts = None

    @classmethod
    def from_masks(cls, masks: list[int], verts: tuple[VertexRef, ...]) -> "Embedding":
        """The embedding whose class k holds ``verts[x]`` for each set bit x of ``masks[k]``."""
        emb = cls.__new__(cls)
        emb._classes, emb._masks, emb._verts = None, masks, verts
        return emb

    @property
    def classes(self) -> tuple[frozenset, ...]:
        if self._classes is None:
            verts = self._verts
            self._classes = tuple(frozenset([verts[x - 1] for x in iter_bits(m)])
                                  for m in self._masks)
        return self._classes

    def all_vertices(self) -> frozenset:
        out: frozenset = frozenset()
        for cl in self.classes:
            out |= cl
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.classes == other.classes

    def __hash__(self) -> int:
        return hash((self.classes,))

    def __repr__(self) -> str:
        return f"Embedding(classes={self.classes!r})"


def validate_embedding(g, pat: PatternSpec, emb: Embedding) -> None:
    """Raise EmbeddingError unless emb is a valid witness for pat inside g.

    Checks class sizes, disjointness, and completeness of every cross-class
    pair.  When all three classes are nonempty it additionally asserts the
    rigidity property: each class occupies a single part and the three parts
    are distinct.  (Two vertices of different classes must be adjacent and
    hence lie in different parts; if a class split across two parts, the
    other two nonempty classes would be forced into the single remaining
    part and could not be mutually adjacent.)
    """
    want = pat.nonempty_sizes
    if len(emb.classes) != len(want):
        raise EmbeddingError(f"expected {len(want)} classes, got {len(emb.classes)}")
    seen: set = set()
    for k, cl in enumerate(emb.classes):
        if len(cl) != want[k]:
            raise EmbeddingError(f"class {k} has {len(cl)} vertices, expected {want[k]}")
        for v in cl:
            if not isinstance(v, VertexRef):
                raise EmbeddingError(f"class {k} holds a non-vertex {v!r}")
            g.check_vertex(v)
            if v in seen:
                raise EmbeddingError(f"vertex {v} used in two classes")
            seen.add(v)
    for k1 in range(len(emb.classes)):
        for k2 in range(k1 + 1, len(emb.classes)):
            for u in emb.classes[k1]:
                for v in emb.classes[k2]:
                    if u.part == v.part:
                        raise EmbeddingError(
                            f"{u} and {v} of distinct classes share part {u.part}")
                    if not g.has_edge(u, v):
                        raise EmbeddingError(f"missing edge {u}{v} between classes {k1},{k2}")
    if len(emb.classes) == 3:
        parts = [sorted({v.part for v in cl}) for cl in emb.classes]
        if any(len(ps) != 1 for ps in parts):
            raise EmbeddingError(f"a class spans several parts: {parts}")
        if len({ps[0] for ps in parts}) != 3:
            raise EmbeddingError(f"classes do not occupy three distinct parts: {parts}")
