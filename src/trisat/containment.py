"""Deciding whether a tripartite graph contains a complete tripartite pattern.

The main entry points are :func:`contains` (first witness in a fixed
exploration order, or None), :func:`contains_after` (containment created by
one added edge, searching only embeddings that use both endpoints), and
:func:`contains_naive` (a brute-force enumeration kept independent of the
clever search, used as the test oracle).

For patterns with all three classes nonempty the search places each class
in a single part: two vertices of distinct classes must be adjacent, hence
lie in distinct parts, and a class split across two parts would force the
other two classes into the one remaining part where they cannot be mutually
adjacent.  The naive oracle does not assume this and enumerates arbitrary
vertex sets, so the agreement tests exercise the rigidity argument.

For bipartite patterns (p = 0) the two classes may split across parts; the
search enumerates the assignments of parts to the two sides (no part may
host vertices of both classes).

Either way a layout gives each class a tuple of parts, and the class's
candidates are one int mask over those parts' vertices laid end to end.
Classes are filled in a fixed order and members picked from set bits in
ascending order, each pick narrowing the masks of the classes still to
fill, so a layout yields its lexicographically first embedding.

:func:`contains` and :func:`contains_after` run through one decision
core, ``_decide``, which returns the chosen class masks of the first
embedding, or None; only they turn the masks into an :class:`Embedding`,
reading each vertex from the per-layout tables cached with the layouts.
Per call ``_decide`` reads each endpoint's row into each part once; a
plan cached per pattern, host and endpoint parts says how every layout's
class masks are laid together from these per-part masks.  A layout where
a class has fewer candidates than members still to pick is skipped before
any search, and the fill ``_fill`` takes the last class's lowest
candidates directly, since every pick before it kept enough of them.
The verifier asks one question per host nonedge of a pattern-free graph,
whether adding it completes a copy, and
``_uncompleted`` answers all of them in one sweep: it reads the nonedges
from g's rows as runs that share the first endpoint u and the part of v,
and per run and layout one search, ``_completed``, fills the classes
around u with the second endpoint left open.  The set W of v's that every
pick so far is adjacent to shrinks with each pick, and a complete fill
completes uv for every v still in W.  Its rows come from a table built
once per sweep, each vertex's rows onto every class of every layout.  This
search is separate from the per-call fill ``_fill``: the verifier
re-confirms each nonedge it leaves open through :func:`contains_after`,
and differential tests against :func:`contains_after` guard the nonedges
it takes as completed, which no run-time check sees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .graphs import PARTS, VertexRef, iter_bits, nonedge_runs
from .patterns import Embedding, PatternSpec


class ContainmentError(ValueError):
    """Invalid containment query."""


def contains(g, pat: PatternSpec) -> Optional[Embedding]:
    """First embedding of pat in g under the fixed exploration order, or None."""
    return _witness(_decide(g, pat))


def contains_after(g, pat: PatternSpec, u: VertexRef, v: VertexRef) -> Optional[Embedding]:
    """Embedding of pat in g + uv, restricted to embeddings using u and v.

    Sound only when g is already pattern-free (the caller's contract): an
    embedding avoiding the new edge would have existed in g.
    """
    if u.part == v.part:
        raise ContainmentError(f"{u} and {v} lie in the same part")
    for x in (u, v):
        if x.index > g.part_sizes[x.part - 1]:
            raise ContainmentError(f"{x} out of range for part sizes {g.part_sizes}")
    if (g.neighbors_mask(u.part, u.index, v.part) >> (v.index - 1)) & 1:
        raise ContainmentError(f"{u}{v} is already an edge")
    return _witness(_decide(g, pat, (u.part, v.part), (u.index, v.index)))


def contains_naive(g, pat: PatternSpec) -> Optional[Embedding]:
    """Brute-force oracle: enumerate vertex sets of the class sizes directly.

    Enumerates class sets over all vertices with no part bookkeeping (splits
    included for every class), pruning only through common neighbourhoods.
    Guarded to hosts with at most 15 vertices.
    """
    sizes = pat.nonempty_sizes
    verts = [VertexRef(i, a) for i in PARTS for a in range(1, g.part_sizes[i - 1] + 1)]
    if len(verts) > 15:
        raise ContainmentError("contains_naive guard: more than 15 vertices")
    nbrs = {}
    for v in verts:
        out = set()
        for j in PARTS:
            if j != v.part:
                for b in iter_bits(g.neighbors_mask(v.part, v.index, j)):
                    out.add(VertexRef(j, b))
        nbrs[v] = out

    for a_set in itertools.combinations(verts, sizes[0]):
        common = set(verts)
        for a in a_set:
            common &= nbrs[a]
        if len(common) < sizes[1]:
            continue
        for b_set in itertools.combinations(sorted(common), sizes[1]):
            if len(sizes) == 2:
                return Embedding((frozenset(a_set), frozenset(b_set)))
            common2 = set(common)
            for b in b_set:
                common2 &= nbrs[b]
            if len(common2) < sizes[2]:
                continue
            c_set = tuple(sorted(common2))[: sizes[2]]
            return Embedding((frozenset(a_set), frozenset(b_set), frozenset(c_set)))
    return None


def _assignments(sizes: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Class-to-part bijections in lexicographic order.

    Assignments that only swap equal-size classes describe the same
    embeddings, so among those only the sorted representative is kept.
    """
    out = []
    for perm in itertools.permutations(PARTS):
        if any(sizes[c1] == sizes[c2] and perm[c1] > perm[c2]
               for c1 in range(3) for c2 in range(c1 + 1, 3)):
            continue
        out.append(perm)
    return out


@lru_cache(maxsize=256)
def _layouts(pat: PatternSpec, ns: tuple[int, int, int]):
    """Class sizes, fill order, and in exploration order every layout that
    can hold the classes.  A layout gives each class its (part, bit offset)
    pairs, the mask of all its vertices and its vertices by bit position
    (0-based), and each part its (class, offset)."""
    if pat.p >= 1:
        sizes = pat.sizes
        # fill the small classes first; ties broken by class index
        order = tuple(sorted(range(3), key=lambda c: (sizes[c], c)))
        groups = [tuple((i,) for i in perm) for perm in _assignments(sizes)]
    else:
        # the Y class first; X is then read off its common neighbourhood
        sizes, order = (pat.ell, pat.m), (1, 0)
        groups = [tuple(tuple(i for i in PARTS if roles[i - 1] == c) for c in (0, 1))
                  for roles in itertools.product((0, 1), repeat=3)]
    layouts = []
    for group in groups:
        spans, full, where = [], [], [None] * 3
        for c, parts in enumerate(group):
            off = 0
            for i in parts:
                where[i - 1] = (c, off)
                off += ns[i - 1]
            spans.append(tuple((i, where[i - 1][1]) for i in parts))
            full.append((1 << off) - 1)
        if all(m.bit_count() >= size for m, size in zip(full, sizes)):
            refs = tuple(tuple(VertexRef(i, a) for i, _ in span for a in range(1, ns[i - 1] + 1))
                         for span in spans)
            layouts.append((tuple(spans), tuple(full), tuple(where), refs))
    return sizes, order, tuple(layouts)


def _row(nbr, i: int, a: int, span) -> int:
    """Neighbours of v_i^a among a class's vertices, as a mask over them."""
    row = 0
    for j, off in span:
        row |= nbr(i, a, j) << off
    return row


@lru_cache(maxsize=1024)
def _plan(pat: PatternSpec, ns: tuple[int, int, int], req_parts: tuple[int, ...]):
    """How :func:`_decide` builds each layout's class masks when the
    required vertices lie in ``req_parts``.

    Returns (order, part masks, layouts).  A part mask is one part's
    vertices narrowed to the neighbours of some required vertices, given
    as (part, its full mask, the (part, position in ``req_parts``) of each
    narrowing vertex); one call reads each once.  Per layout that puts the
    required vertices in distinct classes: the layout, per class its
    (part mask index, bit offset) pairs and the members it still needs, and
    per required vertex its (class, bit offset).  A required vertex narrows
    every class but its own.  For p >= 1 every class is one part, so each
    part has one mask and the layouts only assign them to classes; for
    p = 0 the part without an endpoint has one mask per endpoint class it
    can join."""
    sizes, order, layouts = _layouts(pat, ns)
    keys, plans = [], []
    for layout in layouts:
        spans, _, where, _ = layout
        home = tuple(where[i - 1] for i in req_parts)
        classes = [c for c, _ in home]
        if len(set(classes)) < len(classes):
            continue  # two required vertices in one class: such copies avoid their edge
        build = []
        for c, span in enumerate(spans):
            by = tuple((i, t) for t, (i, c2) in enumerate(zip(req_parts, classes)) if c2 != c)
            for j, _ in span:
                if (j, by) not in keys:
                    keys.append((j, by))
            build.append(tuple((keys.index((j, by)), off) for j, off in span))
        need = tuple(s - classes.count(c) for c, s in enumerate(sizes))
        plans.append((layout, tuple(build), need, home))
    return order, tuple((j, (1 << ns[j - 1]) - 1, by) for j, by in keys), tuple(plans)


def _decide(g, pat: PatternSpec, req_parts=(), req_indices=()):
    """(vertices by class, class masks) of the first embedding over all
    layouts that uses the required vertices v_i^a, i from ``req_parts`` and
    a from ``req_indices``, in g plus the edges joining them; None when
    there is none.

    Each required vertex narrows the other classes to its neighbours in g,
    so its row into each part is read once per call, and each layout's
    class masks are laid together from these per-part masks as
    :func:`_plan` says.  A layout where some class has fewer candidates
    than members still to pick is skipped before :func:`_fill`, which could
    not fill it either: picks only narrow the masks.  The masks hold no
    required vertex; the required vertices join the chosen members at the
    end, which puts back the one edge g lacks, between them.  Picked
    members are never required vertices, so every other row is read from g
    as is."""
    nbr = g.neighbors_mask
    order, parts, plans = _plan(pat, g.part_sizes, req_parts)
    masks = []
    for j, m, by in parts:
        for i, t in by:
            m &= nbr(i, req_indices[t], j)
        masks.append(m)
    for layout, build, need, home in plans:
        cand = []
        for spec, n in zip(build, need):
            m = 0
            for x, off in spec:
                m |= masks[x] << off
            if m.bit_count() < n:
                break
            cand.append(m)
        else:
            chosen = _fill(nbr, layout, order, cand, need)
            if chosen is not None:
                for (c, off), a in zip(home, req_indices):
                    chosen[c] |= 1 << (off + a - 1)
                return layout[-1], chosen
    return None


def _witness(found) -> Optional[Embedding]:
    """The embedding named by a result of :func:`_decide`, or None."""
    if found is None:
        return None
    refs, chosen = found
    classes = []
    for rs, m in zip(refs, chosen):
        members = []
        while m:
            low = m & -m
            members.append(rs[low.bit_length() - 1])
            m ^= low
        classes.append(frozenset(members))
    return Embedding(tuple(classes))


def _row_table(g, layouts):
    """Per layout, class and bit position: that vertex's rows onto every
    class, -1 onto its own (a vertex never narrows its own class)."""
    nbr = g.neighbors_mask
    return [tuple(tuple(tuple(-1 if c2 == c else _row(nbr, x.part, x.index, span)
                              for c2, span in enumerate(spans)) for x in rs)
                  for c, rs in enumerate(refs))
            for spans, _, _, refs in layouts]


def _uncompleted(g, pat: PatternSpec):
    """Yield (position, u, v) for each nonedge uv of the pattern-free g
    whose addition completes no copy, position counting in canonical order.

    The nonedges come from g's rows as runs: u = v_i^a, v = v_j^b for b over
    the run's mask.  Per run and layout one search (:func:`_completed`)
    finds every v of the run that some copy through u and v admits; a
    layout that puts u and v in one class is skipped, its copies avoid uv.
    Every row comes from a table built once per call.
    """
    sizes, order, layouts = _layouts(pat, g.part_sizes)
    tables = _row_table(g, layouts)
    pos = 0
    for i, a, j, mask in nonedge_runs(g):
        left = mask
        for (_, full, where, _), table in zip(layouts, tables):
            if not left:
                break
            (cu, off_u), (cv, off_v) = where[i - 1], where[j - 1]
            if cu == cv:
                continue
            bu = off_u + a - 1
            cand = [m & r for m, r in zip(full, table[cu][bu])]
            cand[cu] ^= 1 << bu
            left &= ~(_completed(table, sizes, order, cand, cu, cv, left << off_v) >> off_v)
        for b in iter_bits(left):
            yield pos + (mask & ((1 << (b - 1)) - 1)).bit_count(), VertexRef(i, a), VertexRef(j, b)
        pos += mask.bit_count()


def _completed(table, sizes, order, cand, cu, cv, goal: int) -> int:
    """The bits of ``goal`` (second endpoints v in class cv) whose edge to
    u, in class cu, completes a copy in this layout.

    One fill serves every v at once: W, the v's still possible, starts at
    ``goal`` and each pick outside cv narrows it to the pick's neighbours,
    so a complete fill is a copy through u and each v left in W.  ``cand``
    arrives narrowed to u's neighbours and without u; a v is in no mask,
    so u's and v's classes need one member fewer.  A branch whose W holds
    no v still open is cut, and the search stops once all are done.  Once
    W holds a single v its rows narrow the masks, as a fill for that one
    nonedge would be narrowed from the start.
    """
    need = [s - (c in (cu, cv)) for c, s in enumerate(sizes)]
    vrows = table[cv]
    done = 0

    def rec(k: int, cand: list[int], left: int, pool: int, w0: int) -> bool:
        nonlocal done
        if not left:
            if k + 1 == len(order):
                done |= w0
                return done == goal
            c = order[k + 1]
            return rec(k + 1, cand, need[c], cand[c], w0)
        c = order[k]
        while pool.bit_count() >= left:
            w = w0 & ~done
            if not w:
                return False
            low = pool & -pool
            pool ^= low
            rows = table[c][low.bit_length() - 1]
            if c != cv:
                w &= rows[cv]
                if not w:
                    continue
            rest = pool
            if w != w0 and not w & (w - 1):
                vrow = vrows[w.bit_length() - 1]
                rows = [r & q for r, q in zip(rows, vrow)]
                rest &= vrow[c]
            narrowed = list(cand)
            for c2 in order[k + 1:]:
                m2 = cand[c2] & rows[c2]
                if m2.bit_count() < need[c2]:
                    break
                narrowed[c2] = m2
            else:
                if rec(k, narrowed, left - 1, rest, w):
                    return True
        return False

    if not goal & (goal - 1):
        cand = [m & r for m, r in zip(cand, vrows[goal.bit_length() - 1])]
    c = order[0]
    rec(0, cand, need[c], cand[c], goal)
    return done


def _fill(nbr, layout, order, cand, need) -> Optional[list[int]]:
    """Class masks of the first embedding in exploration order, or None.

    Classes are filled in ``order`` and members in ascending bit order, so
    the choices come in lexicographic order.  ``cand`` holds each class's
    candidates, at least ``need`` of them.  A pick narrows the masks of the
    later classes and is dropped as soon as one of them falls below its
    need, so the last class always has enough candidates when its turn
    comes and takes its lowest ones without a search.  A picked vertex's
    rows are read from g one class at a time, as they are needed.
    """
    spans, _, _, refs = layout
    chosen = [0] * len(cand)
    last = len(order) - 1

    def rec(k: int, cand: list[int], left: int, pool: int) -> bool:
        if not left:
            k += 1
            c = order[k]
            if k == last:
                m = cand[c]
                for _ in range(need[c]):
                    m &= m - 1
                chosen[c] = cand[c] ^ m
                return True
            return rec(k, cand, need[c], cand[c])
        c = order[k]
        while pool.bit_count() >= left:
            low = pool & -pool
            pool ^= low
            x = refs[c][low.bit_length() - 1]
            i, a = x.part, x.index
            narrowed = list(cand)
            for c2 in order[k + 1:]:
                m2 = cand[c2] & _row(nbr, i, a, spans[c2])
                if m2.bit_count() < need[c2]:
                    break
                narrowed[c2] = m2
            else:
                chosen[c] |= low
                if rec(k, narrowed, left - 1, pool):
                    return True
                chosen[c] ^= low
        return False

    c = order[0]
    return chosen if rec(0, cand, need[c], cand[c]) else None
