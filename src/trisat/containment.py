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

Either way a layout gives each class one mask over g's vertex positions
(the numbering of :attr:`TripartiteGraph.rows`), the union of its parts,
and a class's candidates are that mask narrowed by ANDing g's rows.
Classes are filled in a fixed order and members picked from set bits in
ascending order, each pick narrowing the masks of the classes still to
fill by its row, so a layout yields its lexicographically first
embedding.

A cached plan per pattern and part sizes (``_layouts``) holds the
layouts, and per ordered part pair (i, j) an endpoint plan: the layouts
that put an endpoint u in part i and v in part j in different classes,
each with u's and v's classes, the members still to pick once both are
placed, and the fill order restricted to the classes that need some.  A
layout that puts u and v in one class is never tested: its copies avoid
uv.  A required endpoint narrows every class but its own by its row.  A
layout where a class has fewer candidates than members still to pick is
skipped before any search, and the fill ``_fill`` takes the last class's
lowest candidates directly, since every pick before it kept enough of
them; with one class to fill, as in every K(1,1,1) query, that is the
whole fill.  :func:`contains_after` places u and v with the graph's own
pair check, ``_place``.  :func:`contains` and :func:`contains_after`
return an :class:`Embedding` that holds the chosen class masks and the
plan's vertices by position; its vertex sets are built only when
``classes`` is first read, so a caller that tests the answer against
None, as the greedy sampler does, builds none.

The verifier asks one question per host nonedge of a pattern-free graph,
whether adding it completes a copy, and ``_uncompleted`` answers all of
them in one sweep: it reads the nonedges from g's rows as runs that share
the first endpoint u and the part of v, and per run and layout one
search, ``_completed``, fills the classes around u with the second
endpoint left open.  The set W of v's that every pick so far is
adjacent to shrinks with each pick, and a complete fill completes uv for
every v still in W.  This search is separate from the per-call fill
``_fill``: the verifier re-confirms each nonedge it leaves open through
:func:`contains_after`, and differential tests against
:func:`contains_after` guard the nonedges it takes as completed, which
no run-time check sees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Optional

from .graphs import PARTS, GraphError, VertexRef, iter_bits, nonedge_runs
from .patterns import Embedding, PatternSpec


class ContainmentError(ValueError):
    """Invalid containment query."""


def contains(g, pat: PatternSpec) -> Optional[Embedding]:
    """First embedding of pat in g under the fixed exploration order, or None."""
    plan, adj = _layouts(pat.sizes, g.part_sizes), g.rows
    # every layout of the plan has room for each class, so none is gated
    for full, _ in plan.layouts:
        chosen = _fill(adj, plan.order, full, plan.sizes)
        if chosen is not None:
            return Embedding.from_masks(chosen, plan.verts)
    return None


def contains_after(g, pat: PatternSpec, u: VertexRef, v: VertexRef) -> Optional[Embedding]:
    """Embedding of pat in g + uv, restricted to embeddings using u and v.

    Sound only when g is already pattern-free (the caller's contract): an
    embedding avoiding the new edge would have existed in g.

    u and v narrow each other's class to their neighbours in g and every
    other class to their common ones.  A layout where some class has fewer
    candidates than members still to pick is skipped before :func:`_fill`,
    which could not fill it either: picks only narrow the masks.  The masks
    hold neither endpoint, since g lacks uv; both join the chosen members at
    the end, which puts back uv.  Picked members are never endpoints, so
    every other row is read from g as is.
    """
    try:
        xu, xv = g._place(u.part, u.index, v.part, v.index)
    except GraphError as exc:
        raise ContainmentError(str(exc)) from None
    # the rows themselves: GraphBuilder.rows would copy a builder's list
    adj = g._adj
    ru, rv = adj[xu], adj[xv]
    if (ru >> xv) & 1:
        raise ContainmentError(f"{u}{v} is already an edge")
    both = ru & rv
    plan = _layouts(pat.sizes, g.part_sizes)
    for full, cu, cv, need, fill in plan.ends[u.part - 1][v.part - 1]:
        cand = [m & both for m in full]
        cand[cu], cand[cv] = full[cu] & rv, full[cv] & ru
        for c in fill:
            if cand[c].bit_count() < need[c]:
                break
        else:
            chosen = _fill(adj, fill, cand, need)
            if chosen is not None:
                chosen[cu] |= 1 << xu
                chosen[cv] |= 1 << xv
                return Embedding.from_masks(chosen, plan.verts)
    return None


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
    nbrs = {v: {w for w in verts if g.has_edge(v, w)} for v in verts}
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


class _Plan(NamedTuple):
    """What the search needs of one pattern on one host's part sizes.

    ``sizes`` and ``order`` are the class sizes and fill order; each of
    ``layouts`` gives each class the mask of its vertices' positions
    (``full``) and each part its class (``where``); ``verts`` holds the
    vertices by position.  ``ends[i - 1][j - 1]`` is the endpoint plan of
    a u in part i and a v in part j: per layout that puts them in distinct
    classes, in layout order, ``(full, cu, cv, need, fill)`` with u's and
    v's classes, each class's members still to pick once u and v are
    placed, and the fill order restricted to the classes that need some.
    """

    sizes: tuple[int, ...]
    order: tuple[int, ...]
    layouts: tuple
    verts: tuple[VertexRef, ...]
    ends: tuple


@lru_cache(maxsize=256)
def _layouts(pat_sizes: tuple[int, int, int], ns: tuple[int, int, int]) -> _Plan:
    """The plan of the pattern with class sizes ``pat_sizes`` on parts of
    sizes ``ns``: every layout that can hold the classes, in exploration
    order.  Keyed by tuples of ints, so a lookup hashes no PatternSpec."""
    if pat_sizes[2] >= 1:
        sizes = pat_sizes
        # fill the small classes first; ties broken by class index
        order = tuple(sorted(range(3), key=lambda c: (sizes[c], c)))
        # class-to-part bijections in lexicographic order; of those that only
        # swap equal-size classes, and so give the same embeddings, the sorted one
        homes = [tuple(perm.index(i) for i in PARTS) for perm in itertools.permutations(PARTS)
                 if not any(sizes[c1] == sizes[c2] and perm[c1] > perm[c2]
                            for c1, c2 in itertools.combinations(range(3), 2))]
    else:
        # the Y class first; X is then read off its common neighbourhood
        sizes, order = pat_sizes[:2], (1, 0)
        homes = list(itertools.product((0, 1), repeat=3))
    parts = [((1 << n) - 1) << off for n, off in zip(ns, (0, ns[0], ns[0] + ns[1]))]
    layouts = []
    for where in homes:
        full = tuple(sum(m for m, c2 in zip(parts, where) if c2 == c) for c in range(len(sizes)))
        if all(m.bit_count() >= size for m, size in zip(full, sizes)):
            layouts.append((full, where))
    verts = tuple(VertexRef(i, a) for i in PARTS for a in range(1, ns[i - 1] + 1))
    ends = []
    for i in PARTS:
        row = []
        for j in PARTS:
            entries = []
            for full, where in layouts:
                cu, cv = where[i - 1], where[j - 1]
                if cu != cv:  # copies with u and v in one class avoid uv
                    need = [s - (c in (cu, cv)) for c, s in enumerate(sizes)]
                    entries.append((full, cu, cv, tuple(need),
                                    tuple(c for c in order if need[c])))
            row.append(tuple(entries))
        ends.append(tuple(row))
    return _Plan(sizes, order, tuple(layouts), verts, tuple(ends))


def _uncompleted(g, pat: PatternSpec):
    """Yield (position, u, v) for each nonedge uv of the pattern-free g
    whose addition completes no copy, position counting in canonical order.

    The nonedges come from g's rows as runs: u = v_i^a, v = v_j^b for b over
    the run's mask.  Per run and layout one search (:func:`_completed`)
    finds every v of the run that some copy through u and v admits, over
    the layouts of the endpoint plan of parts i and j.
    """
    plan = _layouts(pat.sizes, g.part_sizes)
    adj, off = g.rows, g.offsets
    pos = 0
    for i, a, j, mask in nonedge_runs(g):
        x = off[i - 1] + a - 1
        left = mask
        for full, cu, cv, need, _ in plan.ends[i - 1][j - 1]:
            if not left:
                break
            cand = [m & adj[x] for m in full]
            cand[cu] = full[cu] ^ (1 << x)
            done = _completed(adj, plan.order, need, cand, cv, full[cv], left << off[j - 1])
            left &= ~(done >> off[j - 1])
        for b in iter_bits(left):
            yield pos + (mask & ((1 << (b - 1)) - 1)).bit_count(), VertexRef(i, a), VertexRef(j, b)
        pos += mask.bit_count()


def _completed(adj, order, need, cand, cv, own: int, goal: int) -> int:
    """The bits of ``goal`` (second endpoints v in class cv, whose mask is
    ``own``) whose edge to u, in class cu, completes a copy in this layout.

    One fill serves every v at once: W, the v's still possible, starts at
    ``goal`` and each pick outside cv narrows it to the pick's neighbours,
    so a complete fill is a copy through u and each v left in W.  ``cand``
    arrives narrowed to u's neighbours and without u; a v is in no mask,
    so ``need``, each class's members still to pick, counts u's and v's
    classes one short.  A branch whose W holds no v still open is cut, and
    the search stops once all are done.  Once W holds a single v its row
    narrows the masks, as a fill for that one nonedge would be narrowed
    from the start; ORed with ``own``, so v leaves its own class alone.
    """
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
            row = adj[low.bit_length() - 1]
            if c != cv:
                w &= row
                if not w:
                    continue
            rest = pool
            if w != w0 and not w & (w - 1):
                vrow = adj[w.bit_length() - 1] | own
                row &= vrow
                rest &= vrow
            narrowed = list(cand)
            for c2 in order[k + 1:]:
                m2 = cand[c2] & row
                if m2.bit_count() < need[c2]:
                    break
                narrowed[c2] = m2
            else:
                if rec(k, narrowed, left - 1, rest, w):
                    return True
        return False

    if not goal & (goal - 1):
        vrow = adj[goal.bit_length() - 1] | own
        cand = [m & vrow for m in cand]
    c = order[0]
    rec(0, cand, need[c], cand[c], goal)
    return done


def _fill(adj, order, cand, need) -> Optional[list[int]]:
    """Class masks of the first embedding in exploration order, or None.

    Classes are filled in ``order`` and members in ascending bit order, so
    the choices come in lexicographic order.  ``cand`` holds each class's
    candidates, at least ``need`` of them.  A pick narrows the masks of the
    later classes by its row and is dropped as soon as one of them falls
    below its need, so the last class always has enough candidates when its
    turn comes and takes its lowest ones without a search; a lone class, as
    in every K(1,1,1) query of :func:`contains_after`, takes them at once.
    """
    chosen = [0] * len(cand)
    last = len(order) - 1
    if last < 1:
        for c in order:
            chosen[c] = _lowest(cand[c], need[c])
        return chosen

    def rec(k: int, cand: list[int], left: int, pool: int) -> bool:
        if not left:
            k += 1
            c = order[k]
            if k == last:
                chosen[c] = _lowest(cand[c], need[c])
                return True
            return rec(k, cand, need[c], cand[c])
        c = order[k]
        while pool.bit_count() >= left:
            low = pool & -pool
            pool ^= low
            row = adj[low.bit_length() - 1]
            narrowed = list(cand)
            for c2 in order[k + 1:]:
                m2 = cand[c2] & row
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


def _lowest(mask: int, k: int) -> int:
    """The k lowest set bits of mask."""
    rest = mask
    for _ in range(k):
        rest &= rest - 1
    return mask ^ rest
