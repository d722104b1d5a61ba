"""Generators for the saturated-subgraph constructions.

Six families, each deterministic (identical parameters produce identical
edge lists):

* ``construction1`` / ``construction2`` -- K_{l,m,m}-saturated subgraphs of
  K_{n1,n2,n3}: full hubs S_i of size m at the top index range, cyclic
  bounded-degree windows on the residual vertices, and three hub edges
  removed (a triangle of nonedges for 1, a path for 2).
* ``construction3`` -- K_{l,m,p}-saturated (m > p) in K_{n1,n2,n3}: hubs of
  size m-1 at the bottom range and cyclic windows on the residual vertices.
* ``construction4`` / ``construction5`` -- balanced-host variants that
  shave edges by completely joining small hub triangles T_i of size
  floor((l-m)/2).
* ``construction_c4`` -- the three-star C4-saturated subgraph with exactly
  n1+n2+n3 edges.

Every residual comes from one generator, ``_windows(res, w, shift)``, on
three position ranges of sizes ``res``: position a of part 3 joins the w
positions from a in parts 1 and 2, and position a of part 2 joins the w
positions from a + shift in part 1, positions reduced within their range
via rho(x) = ((x-1) mod N) + 1.  ``_place`` writes such position pairs as
int edges above an index base; hub joins, hub triangles and the C4 stars
go through it as well.  The families differ only in the residual sizes,
the base and the shift: w for constructions 1, 2 and 4 (whose residual
is triangle-free), 0 for constructions 3 and 5.

Every generator and every construction run of an experiment spec passes
one rule, :func:`admit`, built on :func:`formula_for`: parameters the
family's record in :mod:`trisat.formulas` refuses (non-integers, the
orderings l >= m (> p) >= 1 and n1 >= n2 >= n3 >= 1) are refused, and so,
unless ``force=True``, is a host where the record's hypothesis fails --
the regime under which saturation is proved (the verifier can judge a
forced result).  The generators themselves check only what building
needs: that hubs, triangles and windows fit.  Everything else stated per
family -- builder, pattern, closed-form record, hub sets -- sits in one
table that ``build``, ``pattern_for``, ``formula_for``, ``hub_sets`` and
``smallest_guaranteed_n`` read; a record's signature names the
parameters its family reads.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .formulas import (BoundRecord, FormulaError, c4_threshold, con1_threshold,
                       con3_threshold, con4_threshold, con5_threshold, f_c4,
                       f_con1_upper, f_con3_upper, f_con4_upper, f_con5_upper, t_of)
from .graphs import PARTS, GraphBuilder, TripartiteGraph, VertexRef, exact_int
from .patterns import PatternSpec
from .verifier import residual_structure_check


class ConstructionError(ValueError):
    """Parameters outside a construction's valid regime."""


def _rho(x: int, n: int) -> int:
    return (x - 1) % n + 1


def _cyc(i: int, shift: int) -> int:
    """Part arithmetic modulo 3 on 1-based part labels."""
    return (i - 1 + shift) % 3 + 1


def _place(b: GraphBuilder, base: int, pairs: Iterable[tuple[int, int, int, int]]) -> None:
    """Add the position pairs (i, a, j, c) as edges v_i^{base+a} v_j^{base+c};
    constructions define edge sets as unions, so re-adding is a no-op."""
    for i, a, j, c in pairs:
        if not b.neighbors_mask(i, base + a, j) >> (base + c - 1) & 1:
            b._join(i, base + a, j, base + c)


def _join_sets(b: GraphBuilder, sets: dict[int, range]) -> None:
    """Completely join each listed vertex set to both other parts."""
    ns = b.part_sizes
    _place(b, 0, ((i, a, j, c) for i in PARTS for a in sets.get(i, ()) for j in PARTS
                  if j != i for c in range(1, ns[j - 1] + 1)))


def _windows(res: tuple[int, int, int], w: int,
             shift: int) -> Iterator[tuple[int, int, int, int]]:
    """Cyclic windows on position ranges of sizes ``res``: position a of part 3
    joins the w positions from a in parts 1 and 2, and position a of part 2
    joins the w positions from a + shift in part 1, all reduced by rho."""
    for a in range(1, res[2] + 1):
        for off in range(w):
            yield 3, a, 1, _rho(a + off, res[0])
            yield 3, a, 2, _rho(a + off, res[1])
    for a in range(1, res[1] + 1):
        for off in range(shift, shift + w):
            yield 2, a, 1, _rho(a + off, res[0])


# -- constructions 1 and 2 -----------------------------------------------------

def _con1_body(n1: int, n2: int, n3: int, l: int, m: int) -> GraphBuilder:
    """Hub joins plus residual windows, before any edge removal."""
    if m > n3:
        raise ConstructionError(f"hubs of size m={m} do not fit in a part of size {n3}")
    if l > m and m >= n3:
        raise ConstructionError(
            f"the residual windows need m < n3, got m={m}, n3={n3}")
    ns = (n1, n2, n3)
    b = GraphBuilder(ns)
    _join_sets(b, {i: _FAMILIES["1"].hubs(ns[i - 1], l, m) for i in PARTS})
    # the windows live on the residual index ranges [n_j - m]
    _place(b, 0, _windows((n1 - m, n2 - m, n3 - m), l - m, l - m))
    return b


def construction1(l: int, m: int, n1: int, n2: int, n3: int, *,
                  force: bool = False) -> TripartiteGraph:
    """K_{l,m,m}-saturated subgraph with a triangle of hub nonedges."""
    n1, n2, n3, l, m = admit("1", n1, n2, n3, l, m, force=force).params.values()
    b = _con1_body(n1, n2, n3, l, m)
    b.remove_edge(VertexRef(1, n1), VertexRef(2, n2))
    b.remove_edge(VertexRef(1, n1), VertexRef(3, n3))
    b.remove_edge(VertexRef(2, n2), VertexRef(3, n3))
    return b.build()


def _check_variant(variant) -> int:
    """Construction 2's variant as an int; refuses anything but 1, 2 or 3."""
    i = exact_int(variant)
    if i not in PARTS:
        raise ConstructionError(f"variant must be 1, 2 or 3, got {variant!r}")
    return i


def construction2(variant: int, l: int, m: int, n1: int, n2: int, n3: int, *,
                  force: bool = False) -> TripartiteGraph:
    """K_{l,m,m}-saturated subgraph with a path of hub nonedges.

    Identical to :func:`construction1` except the removed triple, which for
    variant i is {v_i^{n_i} v_{i+1}^{n_{i+1}}, v_i^{n_i - 1} v_{i+2}^{n_{i+2}},
    v_{i+1}^{n_{i+1}} v_{i+2}^{n_{i+2}}}.  Requires m >= 2 so that
    v_i^{n_i - 1} is itself a hub vertex; with m = 1 the removal leaves a hub
    pair completely joined and the graph is not pattern-free (``force=True``
    builds it regardless, for experimentation).
    """
    i = _check_variant(variant)
    n1, n2, n3, l, m = admit("2", n1, n2, n3, l, m, force=force).params.values()
    if m < 2 and not force:
        raise ConstructionError(
            "the path-removal variant needs m >= 2 (with m = 1 the removed edges "
            "do not break every hub join and the result is not saturated)")
    if n3 < 2:
        raise ConstructionError("variant removal needs every part of size >= 2")
    ns = (n1, n2, n3)
    i1, i2 = _cyc(i, 1), _cyc(i, 2)
    b = _con1_body(n1, n2, n3, l, m)
    b.remove_edge(VertexRef(i, ns[i - 1]), VertexRef(i1, ns[i1 - 1]))
    b.remove_edge(VertexRef(i, ns[i - 1] - 1), VertexRef(i2, ns[i2 - 1]))
    b.remove_edge(VertexRef(i1, ns[i1 - 1]), VertexRef(i2, ns[i2 - 1]))
    return b.build()


# -- construction 3 ------------------------------------------------------------

def construction3(l: int, m: int, p: int, n1: int, n2: int, n3: int, *,
                  force: bool = False) -> TripartiteGraph:
    """K_{l,m,p}-saturated subgraph of K_{n1,n2,n3} for l >= m > p >= 1.

    Hubs S_i = {v_i^1, ..., v_i^{m-1}} joined to everything; between the
    residual ranges of parts i < j, the a-th residual vertex of the smaller
    part j takes the cyclic window of l-m positions starting at a in part i,
    so residual degrees are exactly l-m on the j side and at most l-m on the
    i side.
    """
    n1, n2, n3, l, m, p = admit("3", n1, n2, n3, l, m, p, force=force).params.values()
    if m - 1 > n3:
        raise ConstructionError(f"hub size m-1={m - 1} exceeds the smallest part {n3}")
    ns = (n1, n2, n3)
    b = GraphBuilder(ns)
    _join_sets(b, {i: _FAMILIES["3"].hubs(ns[i - 1], l, m) for i in PARTS})
    _place(b, m - 1, _windows((n1 - m + 1, n2 - m + 1, n3 - m + 1), l - m, 0))
    return b.build()


# -- constructions 4 and 5 (balanced hosts) -------------------------------------

def _balanced_body(n: int, s: int, t: int) -> GraphBuilder:
    """K_{n,n,n} builder with hubs S_i = {v_i^1..v_i^s} joined to everything
    and triangles T_i = {v_i^{s+1}..v_i^{s+t}} completely joined to each other."""
    b = GraphBuilder((n, n, n))
    _join_sets(b, {i: range(1, s + 1) for i in PARTS})
    _place(b, s, ((i, a, _cyc(i, 1), c) for i in PARTS for a in range(1, t + 1)
                  for c in range(1, t + 1)))
    return b


def residual_triple_edges(n_res: int, w: int) -> list[tuple[int, int, int, int]]:
    """Edges of a triangle-free tripartite graph on three position ranges
    [n_res] in which every position has exactly w neighbours in each other
    range.  Rows are (i, a, j, b) position pairs with parts labelled 1..3.

    Two regimes:

    * n_res >= 3w - 1: the windows with shift w.  Position a of part 3 joins
      positions a..a+w-1 of parts 1 and 2; position a of part 2 joins
      positions a+w..a+2w-1 of part 1.  A triangle needs offsets with
      alpha = beta + gamma (mod n_res) for alpha, beta in [0, w) and
      gamma in [w, 2w), impossible without wrapping, and n_res >= 3w - 1
      rules wrapping out.

    * n_res even with n_res/2 >= w: halves.  Split every range into a low
      and a high block and lay the shift-0 windows on each block triple,
      so parts 3-1 and 3-2 join matching blocks w-regularly, but cross
      the 2-1 pairs so that part 2-1 joins opposite blocks; then any
      two-edge path from part 3 ends in same-block vertices of parts 1, 2
      that the crossed 2-1 pairing never connects.

    Every smaller regime is refused; a pattern-degree w at such a residual
    size is an invalid parameter regime for the balanced construction.
    """
    if w == 0 or n_res >= 3 * w - 1:
        return list(_windows((n_res,) * 3, w, w))
    half = n_res // 2
    if n_res % 2 == 0 and half >= w:
        # two shift-0 triples on the half blocks; the 2-1 pairs cross blocks
        return [(i, lo + a, j, (hi if i == 2 else lo) + c)
                for lo, hi in ((0, half), (half, 0))
                for i, a, j, c in _windows((half,) * 3, w, 0)]
    raise ConstructionError(
        f"no triangle-free residual realization available for residual parts of "
        f"size {n_res} with per-pair degree {w}")


def construction4(l: int, m: int, n: int, *, force: bool = False) -> TripartiteGraph:
    """K_{l,m,m}-saturated subgraph of K_{n,n,n} with hub triangles.

    Hubs S_i = {v_i^1..v_i^m} joined to everything, triangles
    T_i = {v_i^{m+1}..v_i^{m+t}} with t = floor((l-m)/2) completely joined to
    each other, a triangle-free residual triple in which every residual
    vertex has exactly l-m residual neighbours in each other part, and the
    three edges v_1^1 v_2^1, v_1^1 v_3^1, v_2^1 v_3^1 removed.

    The builder admits exactly the hosts where ``f_con4_upper``'s
    hypothesis holds, n >= ``con4_threshold(l, m)``.  After building,
    :func:`residual_structure_check` re-checks the residual triple for
    triangle-freeness and exact degrees; a failure signals an invalid
    parameter regime rather than returning a silently wrong graph.  That
    check still refuses some admitted hosts: those where l - m is odd and
    at least 3 and the residual size n - m - t is odd, e.g. (l, m, n) =
    (4, 1, 9), since no triangle-free residual triple with every degree
    l - m exists there.  A parity condition in the record's hypothesis would
    therefore change the builder too, with no edit here.
    """
    n, l, m = admit("4", n, n, n, l, m, force=force).params.values()
    t = t_of(l, m)
    if n < m + t + 1:
        raise ConstructionError(f"parts of size {n} cannot hold hubs ({m}) plus triangles ({t})")
    b = _balanced_body(n, m, t)
    n_res = n - m - t
    w = l - m
    try:
        residual = residual_triple_edges(n_res, w)
    except ConstructionError:
        if not force:
            raise
        # forced experimentation: fall back to the plain windows even
        # though they close a residual triangle at this size
        residual = _windows((n_res,) * 3, w, w)
    _place(b, m + t, residual)
    b.remove_edge(VertexRef(1, 1), VertexRef(2, 1))
    b.remove_edge(VertexRef(1, 1), VertexRef(3, 1))
    b.remove_edge(VertexRef(2, 1), VertexRef(3, 1))
    g = b.build()
    if not force:
        res = residual_structure_check(g, hub_sets("4", l, m, g.part_sizes))
        if not res.triangle_free or any(d != w for counts in res.degrees.values()
                                        for d in counts.values()):
            raise ConstructionError(
                f"the residual triple is not triangle-free with every residual degree {w}: "
                f"invalid parameter regime")
    return g


def construction5(l: int, m: int, p: int, n: int, *, force: bool = False) -> TripartiteGraph:
    """K_{l,m,p}-saturated subgraph of K_{n,n,n} for l >= m > p >= 1.

    Hubs S_i of size m-1, triangles T_i of size t = floor((l-m)/2) completely
    joined to each other, and the shift-0 windows of width l-m on the
    residual ranges: each residual vertex of part j joins the l-m
    cyclically next positions from its own in every part i < j, so every
    part pair carries an (l-m)-regular bipartite graph.

    The fit checks already refuse every n below ``con5_threshold(l, m)``,
    so unlike the other families ``force=True`` cannot build below the
    threshold.
    """
    n, l, m, p = admit("5", n, n, n, l, m, p, force=force).params.values()
    t = t_of(l, m)
    if n < (m - 1) + t:
        raise ConstructionError(f"parts of size {n} cannot hold hubs ({m - 1}) plus triangles ({t})")
    n_res = n - (m - 1) - t
    w = l - m
    if w > n_res:
        raise ConstructionError(
            f"residual parts of size {n_res} cannot carry an {w}-regular bipartite graph")
    b = _balanced_body(n, m - 1, t)
    _place(b, m - 1 + t, _windows((n_res,) * 3, w, 0))
    return b.build()


# -- the C4 three-star construction ---------------------------------------------

def construction_c4(n1: int, n2: int, n3: int, *, force: bool = False) -> TripartiteGraph:
    """C4-saturated subgraph with edge set {v_i^1 v_{i+1}^j : i in [3], j in [n_{i+1}]}."""
    ns = tuple(admit("c4", n1, n2, n3, force=force).params.values())
    b = GraphBuilder(ns)
    # v_i^1 joins all of part i + 1, which is ns[i % 3]
    _place(b, 0, ((i, 1, _cyc(i, 1), c) for i in PARTS for c in range(1, ns[i % 3] + 1)))
    return b.build()


# -- the family table ------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """Everything stated about one construction family."""

    builder: Callable[..., TripartiteGraph]  # (ns, l, m, p, variant, force)
    pattern: Callable[..., PatternSpec]  # (l, m, p)
    record: Callable[..., BoundRecord]  # the formulas record; its parameters are those read
    hubs: Callable[[int, int, int], range]  # (part size, l, m) -> S_i plus T_i
    threshold: Callable[[int, int], int]  # (l, m) -> smallest n3, or n if balanced


_CON1 = _Family(
    lambda ns, l, m, p, variant, force: construction1(l, m, *ns, force=force),
    lambda l, m, p: PatternSpec(l, m, m), f_con1_upper,
    lambda n, l, m: range(n - m + 1, n + 1), con1_threshold)

_FAMILIES = {
    "1": _CON1,
    "2": replace(_CON1, builder=lambda ns, l, m, p, variant, force: construction2(
        variant, l, m, *ns, force=force)),
    "3": _Family(
        lambda ns, l, m, p, variant, force: construction3(l, m, p, *ns, force=force),
        lambda l, m, p: PatternSpec(l, m, p), f_con3_upper,
        lambda n, l, m: range(1, m), lambda l, m: con3_threshold(l)),
    "4": _Family(
        lambda ns, l, m, p, variant, force: construction4(l, m, ns[0], force=force),
        lambda l, m, p: PatternSpec(l, m, m), f_con4_upper,
        lambda n, l, m: range(1, m + t_of(l, m) + 1), con4_threshold),
    "5": _Family(
        lambda ns, l, m, p, variant, force: construction5(l, m, p, ns[0], force=force),
        lambda l, m, p: PatternSpec(l, m, p), f_con5_upper,
        lambda n, l, m: range(1, m + t_of(l, m)), con5_threshold),
    "c4": _Family(
        lambda ns, l, m, p, variant, force: construction_c4(*ns, force=force),
        lambda l, m, p: PatternSpec(2, 2, 0), f_c4,
        lambda n, l, m: range(1, 2), lambda l, m: c4_threshold()),
}

CONSTRUCTION_NAMES = tuple(_FAMILIES)


def _family(which: str) -> _Family:
    if which not in _FAMILIES:
        raise ConstructionError(f"unknown construction {which!r}; known: {CONSTRUCTION_NAMES}")
    return _FAMILIES[which]


def hub_sets(which: str, l: int | None, m: int | None,
             sizes: tuple[int, int, int]) -> list[set[int]]:
    """Indices of the hub vertices (S_i plus T_i where present) per part.

    l and m must be integers with l >= m >= 1 (construction c4 reads
    neither), the sizes three positive integers, and every hub index must
    fall within its part.
    """
    family = _family(which)
    if which != "c4":
        lm = exact_int(l), exact_int(m)
        if None in lm or not lm[0] >= lm[1] >= 1:
            raise ConstructionError(f"hub sets need integers l >= m >= 1, got l={l!r}, m={m!r}")
        l, m = lm
    ns = tuple(exact_int(n) for n in sizes)
    if len(ns) != 3 or any(n is None or n < 1 for n in ns):
        raise ConstructionError(f"part sizes must be three positive integers, got {sizes!r}")
    hubs = [family.hubs(n, l, m) for n in ns]
    for n, hs in zip(ns, hubs):
        if hs and (hs[0] < 1 or hs[-1] > n):
            raise ConstructionError(
                f"construction {which} hubs {hs[0]}..{hs[-1]} fall outside a part of size {n}")
    return [set(hs) for hs in hubs]


def pattern_for(which: str, l: int | None = None, m: int | None = None,
                p: int | None = None) -> PatternSpec:
    """The pattern a construction is saturated for."""
    return _family(which).pattern(l, m, p)


def formula_for(which: str, n1: int, n2: int, n3: int, l: int | None = None,
                m: int | None = None, p: int | None = None,
                variant: int | None = None) -> BoundRecord:
    """The closed-form edge count matching a construction.

    The family's record gets the parameters its signature names (n, for a
    balanced family, from a host of three equal exact ints).  Raises a
    :class:`ConstructionError` with the record's message where the record
    refuses, and refuses a parameter given (not None) that the family does
    not read: l, m or p unless its record names it, variant unless the
    family is construction 2, and construction 2's variant unless it is 1,
    2 or 3, before any host check."""
    if which == "2" and variant is not None:
        _check_variant(variant)
    record = _family(which).record
    names = inspect.signature(record).parameters
    if "n" in names and len({exact_int(n) for n in (n1, n2, n3)}) != 1:
        raise ConstructionError(f"construction {which} needs a balanced host n1 = n2 = n3")
    given = {"n1": n1, "n2": n2, "n3": n3, "n": n1, "l": l, "m": m, "p": p}
    try:
        rec = record(**{k: given[k] for k in names})
    except FormulaError as exc:
        raise ConstructionError(str(exc)) from None
    unread = [k for k, x in (("l", l), ("m", m), ("p", p), ("variant", variant))
              if x is not None and k not in names and (k, which) != ("variant", "2")]
    if unread:
        raise ConstructionError(f"construction {which} does not read {', '.join(unread)}")
    return rec


def admit(which: str, n1: int, n2: int, n3: int, l: int | None = None,
          m: int | None = None, p: int | None = None, variant: int | None = None, *,
          force: bool = False) -> BoundRecord:
    """The admission rule of every builder and construction spec run:
    refuse what :func:`formula_for` refuses and, unless ``force``, a host
    where the record's hypothesis fails.  Returns the record, whose
    parameters are plain ints in the formula's signature order."""
    rec = formula_for(which, n1, n2, n3, l, m, p, variant)
    if not (rec.hypothesis_satisfied or force):
        raise ConstructionError(
            f"{rec.name} hypothesis fails: {rec.note} (pass force=True to build anyway)")
    return rec


def build(which: str, n1: int, n2: int, n3: int, l: int | None = None,
          m: int | None = None, p: int | None = None, variant: int = 1, *,
          force: bool = False) -> TripartiteGraph:
    """Dispatch a construction by name ('1'..'5' or 'c4'), refusing first what
    :func:`formula_for` refuses: an l, m or p the family does not read too."""
    formula_for(which, n1, n2, n3, l, m, p)
    return _family(which).builder((n1, n2, n3), l, m, p, variant, force)


def smallest_guaranteed_n(which: str, l: int | None = None, m: int | None = None,
                          p: int | None = None) -> int:
    """Smallest balanced host size for which saturation is guaranteed: the
    size threshold of the family record's hypothesis, from which on the
    builder admits K_{n,n,n} without ``force=True``.

    Construction 4 still refuses some hosts at this size: when l - m is odd
    and at least 3 and the residual size is odd, e.g. (l, m, n) = (4, 1, 9);
    see :func:`construction4`.
    """
    return _family(which).threshold(l, m)
