"""Exact and randomized computation of saturation numbers on small hosts.

A subgraph of the complete host is pattern-saturated iff it is a *maximal*
pattern-free subgraph, so the minimum over saturated subgraphs can be found
by branching over host edges, numbered by their place in the int list
``host_edge_ints``.  :func:`sat_exact` runs a depth-first branch-and-bound
over the canonical edge order (include branch first) with three sound
prunings: an included edge may never complete a copy of the pattern, the
included count must stay below the incumbent, and every excluded edge
must remain completable by the edges not yet excluded.
Complete assignments that survive are exactly the saturated subgraphs.
The search is one recursive function whose state travels in its
arguments, so neither branch of a node has anything to undo.  Its core
is two bitsets over the pattern's embeddings in the host, ``clean`` (no
edge excluded) and ``once`` (exactly one edge excluded), so each pruning
test is a few big-integer ANDs: an include is refused when a clean
embedding ends at that edge, and an excluded edge stays completable
while some embedding through it is in ``once``.  Lex-leader predicates
(Crawford, Ginsberg, Luks & Roy, KR 1996) cut the relabelings of each
candidate: a subgraph is kept only if no swap of two adjacent vertices of
one part makes its include vector, read in canonical edge order,
lexicographically larger.  The include-first search reaches the lex-max
member of every orbit first and that member satisfies every predicate, so
values, witnesses and optimum classes are those of the search without the
predicates; only ``nodes_explored`` shrinks.

:func:`sat_exhaustive` tests all 2^|E(host)| subgraphs at once as
bit-sliced truth tables (bit s of a 2^|E|-bit integer is the subgraph with
edge mask s) and is the independent oracle for ``sat_exact``.
:func:`enumerate_optima` collects every optimum up to part-respecting
isomorphism.  :func:`sat_greedy` draws seeded random edge permutations and
keeps each edge iff the graph stays pattern-free; the scan ends in a
maximal pattern-free, hence saturated, subgraph.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .containment import _layouts, contains_after
from .graphs import (_STACK_MARGIN, GraphBuilder, TripartiteGraph, exact_int, host_edge_count,
                     host_edge_ints, host_edges, iso_equivalent, iso_invariant, iter_bits)
from .patterns import PatternSpec
from .rng import XorShift64Star
from .serialization import to_json_obj
from .verifier import is_saturated


class SearchError(ValueError):
    """Invalid search query or violated search guard."""


class _BudgetExhausted(Exception):
    pass


@dataclass
class SearchResult:
    """Outcome of one saturation-number computation."""

    value: int | None
    witnesses: list[TripartiteGraph]
    nodes_explored: int
    method: str  # "exact" | "exhaustive" | "greedy"
    status: str = "complete"  # or "budget_exhausted"
    seed: int | None = None
    trials: int | None = None
    trial_values: list[int] | None = None

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "seed": self.seed,
            "trials": self.trials,
            "trial_values": self.trial_values,
            "witnesses": [to_json_obj(g) for g in self.witnesses],
        }


def _check_count(name: str, x, least: int) -> int:
    n = exact_int(x)
    if n is None or n < least:
        raise SearchError(f"{name} must be an integer >= {least}, got {x!r}")
    return n


def resolve_workers() -> int:
    """Always 1: exact search runs in one process.  ``bench/run.py`` is the
    only caller, recording it as ``search_workers``; the next benchmark
    revision (ROADMAP item 1) deletes both."""
    return 1


def _check_host_sizes(host_sizes) -> tuple[int, int, int]:
    sizes = tuple(exact_int(n) for n in host_sizes)
    if len(sizes) != 3 or None in sizes or not (sizes[0] >= sizes[1] >= sizes[2] >= 1):
        raise SearchError(f"host sizes must be integers n1 >= n2 >= n3 >= 1, got {host_sizes}")
    return sizes


def _mask_to_graph(sizes: tuple[int, int, int], edges: list, mask: int) -> TripartiteGraph:
    b = GraphBuilder(sizes)
    for k in iter_bits(mask):
        b._join(*edges[k - 1])
    return b.build()


def pattern_edge_masks(sizes: tuple[int, int, int], pat: PatternSpec) -> list[int]:
    """Edge bitmasks (over the canonical host edge list) of every embedding
    of the pattern in the complete host, deduplicated and sorted.  The
    class-to-part layouts are the ones the containment search explores."""
    idx = {e: k for k, e in enumerate(host_edge_ints(sizes))}
    plan = _layouts(pat.sizes, tuple(sizes))
    at = [(v.part, v.index) for v in plan.verts]
    masks: set[int] = set()
    for full, _ in plan.layouts:
        classes = [[at[x - 1] for x in iter_bits(m)] for m in full]
        for sel in itertools.product(*(itertools.combinations(vs, k)
                                       for vs, k in zip(classes, plan.sizes))):
            mask = 0
            for s1, s2 in itertools.combinations(sel, 2):
                for u, v in itertools.product(s1, s2):
                    mask |= 1 << idx[u + v if u < v else v + u]
            masks.add(mask)
    return sorted(masks)


def swap_pairs(sizes: tuple[int, int, int]) -> list[tuple[tuple[int, int], ...]]:
    """For each canonical host edge q, the pairs ``(generator bit, p)`` such
    that the swap of two adjacent vertices v_i^{a-1}, v_i^a named by the bit
    exchanges the edges p < q.

    One bit per swap; q lists at most two pairs, one per endpoint with index
    above 1.  A swap's pairs come in the same order by p as by q, so the
    pair that decides the lex comparison is the first one decided.
    """
    edges = host_edge_ints(sizes)
    idx = {e: k for k, e in enumerate(edges)}
    bit = {}
    for i, n in zip((1, 2, 3), sizes):
        for a in range(2, n + 1):
            bit[i, a] = 1 << len(bit)
    pairs = []
    for i, a, j, b in edges:
        # i < j, so lowering either index keeps the canonical orientation
        entries = []
        if a > 1:
            entries.append((bit[i, a], idx[i, a - 1, j, b]))
        if b > 1:
            entries.append((bit[j, b], idx[i, a, j, b - 1]))
        pairs.append(tuple(entries))
    return pairs


# -- branch and bound -----------------------------------------------------------

def _branch(n_edges: int, embeds: list[int], swaps: list[tuple[tuple[int, int], ...]],
            enumerate_all: bool, budget: int | None) -> tuple[int, list[int], int, bool]:
    """DFS over host edges; returns ``(best, witnesses, nodes, exhausted)``.

    A node's state is the arguments of ``dfs(e, clean, once, tight, incl,
    total)``: e is the next edge to decide, ``incl`` the included edges as
    a mask and ``total`` their count, and ``clean`` and ``once`` are
    bitsets over embedding indices, the embeddings with no excluded edge
    and those with exactly one.  Each branch passes its own values down,
    so neither has anything to undo.  Fixed per edge e: ``has[e]``,
    the embeddings through e, and ``ends[e]``, those whose highest
    canonical edge is e.  Edges are decided in canonical order, so when e
    is next the other edges of every embedding in ``ends[e]`` are decided,
    and including e completes a copy iff ``clean & ends[e]`` is nonzero;
    such an include is refused.  An excluded edge f keeps a potential
    completion while ``once & has[f]`` is nonzero (an embedding through f
    whose other edges are included or still undecided); the branch dies
    when that set empties, which can only happen to the f whose embeddings
    the exclude of e moves out of ``once``, so ``excl_has`` (``has[f]`` of
    each excluded f, a stack shared by all nodes) is scanned only then.  At
    a full assignment every excluded edge is therefore completable and the
    included set is pattern-free: exactly the saturated subgraphs.

    Lex-leader predicates cut the relabelings: read as the include vector x
    in canonical order, a subgraph is kept only if no swap of two adjacent
    vertices of one part makes x lexicographically larger.  ``swaps[q]``
    lists the ``(generator bit, p)`` pairs that a swap exchanges with p < q,
    and ``tight`` holds the generators whose pairs decided so far are all
    equal.  Including q is refused when a tight generator has p excluded;
    excluding q with p included settles that generator, which leaves
    ``tight``.  The include-first DFS reaches the lex-max member of every
    orbit first, and that member satisfies every predicate, so the reported
    witnesses and classes do not change; only ``nodes`` does.
    """
    has = [0] * n_edges
    ends = [0] * n_edges
    for k, m in enumerate(embeds):
        for e in iter_bits(m):
            has[e - 1] |= 1 << k
        ends[m.bit_length() - 1] |= 1 << k
    tight = 0
    for pairs in swaps:
        for bit, _ in pairs:
            tight |= bit
    excl_has: list[int] = []
    best = n_edges + 1
    witnesses: list[int] = []
    nodes = 0

    def dfs(e: int, clean: int, once: int, tight: int, incl: int, total: int) -> None:
        nonlocal best, witnesses, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetExhausted
        if enumerate_all:
            if total > best:
                return
        elif total >= best:
            return
        if e == n_edges:
            if total < best:
                best = total
                witnesses = [incl]
            else:  # total == best, which only enumerate_all lets through
                witnesses.append(incl)
            return
        if not clean & ends[e]:
            for bit, p in swaps[e]:
                if tight & bit and not incl >> p & 1:
                    break
            else:
                dfs(e + 1, clean, once, tight, incl | 1 << e, total + 1)
        has_e = has[e]
        fresh = clean & has_e
        if not fresh:
            return
        lost = once & has_e
        once ^= lost | fresh
        if lost:
            for hf in excl_has:
                if hf & lost and not hf & once:
                    return
        for bit, p in swaps[e]:
            if incl >> p & 1:
                tight &= ~bit
        excl_has.append(has_e)
        dfs(e + 1, clean ^ fresh, once, tight, incl, total)
        excl_has.pop()

    try:
        dfs(0, (1 << len(embeds)) - 1, 0, tight, 0, 0)
    except _BudgetExhausted:
        return best, witnesses, nodes, True
    return best, witnesses, nodes, False


def _run_exact(sizes: tuple[int, int, int], pat: PatternSpec, *,
               enumerate_all: bool, node_budget: int | None,
               max_host_edges: int | None) -> SearchResult:
    if node_budget is not None:
        _check_count("node_budget", node_budget, 1)
    n_edges = host_edge_count(sizes)
    if max_host_edges is not None and n_edges > _check_count("max_host_edges", max_host_edges, 0):
        raise SearchError(
            f"host has {n_edges} edges, above the guard {max_host_edges}; "
            f"raise max_host_edges to search anyway")
    # the depth-first search recurses once per host edge
    if n_edges + _STACK_MARGIN > sys.getrecursionlimit():
        raise SearchError(
            f"host has {n_edges} edges, too deep for the recursion limit "
            f"{sys.getrecursionlimit()}")
    best, masks, nodes, exhausted = _branch(n_edges, pattern_edge_masks(sizes, pat),
                                            swap_pairs(sizes), enumerate_all, node_budget)
    # one witness per part-respecting isomorphism class; only graphs with
    # equal invariants can be isomorphic
    edges = host_edge_ints(sizes)
    witnesses: list[TripartiteGraph] = []
    keys: list[tuple] = []
    for g in (_mask_to_graph(sizes, edges, m) for m in masks):
        key = iso_invariant(g)
        if not any(k == key and iso_equivalent(g, h) for k, h in zip(keys, witnesses)):
            witnesses.append(g)
            keys.append(key)
    return SearchResult(value=best if masks else None, witnesses=witnesses,
                        nodes_explored=nodes, method="exact",
                        status="budget_exhausted" if exhausted else "complete")


def sat_exact(host_sizes, pat: PatternSpec, node_budget: int | None = None, *,
              max_host_edges: int | None = 40) -> SearchResult:
    """Exact saturation number by branch-and-bound; one optimal witness.

    When ``node_budget`` is exhausted the result carries status
    ``budget_exhausted`` and the best incumbent found, never presented as
    the exact value.
    """
    sizes = _check_host_sizes(host_sizes)
    return _run_exact(sizes, pat, enumerate_all=False, node_budget=node_budget,
                      max_host_edges=max_host_edges)


def enumerate_optima(host_sizes, pat: PatternSpec, node_budget: int | None = None, *,
                     max_host_edges: int | None = 40) -> SearchResult:
    """All minimum saturated subgraphs, deduplicated by part-respecting isomorphism."""
    sizes = _check_host_sizes(host_sizes)
    return _run_exact(sizes, pat, enumerate_all=True, node_budget=node_budget,
                      max_host_edges=max_host_edges)


def sat_exhaustive(host_sizes, pat: PatternSpec) -> SearchResult:
    """Scan all subgraphs of the host; oracle for :func:`sat_exact`.

    A subgraph is saturated iff no embedding mask is contained in it and,
    for every absent host edge e, some embedding through e needs only e.
    The scan is bit-sliced: bit s of a 2^|E|-bit truth table stands for
    the subgraph with edge mask s, so each test is one big-integer AND or
    OR over all subgraphs at once.  Guarded to hosts with at most 16 edges.
    """
    sizes = _check_host_sizes(host_sizes)
    n_edges = host_edge_count(sizes)
    if n_edges > 16:
        raise SearchError(f"sat_exhaustive guard: host has {n_edges} > 16 edges")
    embeds = pattern_edge_masks(sizes, pat)
    total = 1 << n_edges
    full = (1 << total) - 1
    # cols[e]: the subgraphs that contain edge e; by_size[k]: those with k
    # edges.  Both double in width one edge at a time.
    cols: list[int] = []
    by_size = [1]
    for e in range(n_edges):
        width = 1 << e
        cols = [c | c << width for c in cols] + [((1 << width) - 1) << width]
        by_size = [a | b << width for a, b in zip(by_size + [0], [0] + by_size)]

    def holding(mask: int) -> int:
        """The subgraphs that contain every edge of mask."""
        table = full
        for k in iter_bits(mask):
            table &= cols[k - 1]
        return table

    sat = full
    for em in embeds:
        sat &= ~holding(em)
    for e in range(n_edges):
        completed = cols[e]
        for em in embeds:
            if (em >> e) & 1:
                completed |= holding(em & ~(1 << e))
        sat &= completed
    value, table = next((k, t & sat) for k, t in enumerate(by_size) if t & sat)
    edges = host_edge_ints(sizes)
    witnesses = [_mask_to_graph(sizes, edges, s - 1) for s in iter_bits(table)]
    return SearchResult(value=value, witnesses=witnesses, nodes_explored=total,
                        method="exhaustive")


def sat_greedy(host_sizes, pat: PatternSpec, trials: int, seed: int) -> SearchResult:
    """Randomized maximal pattern-free subgraphs; an upper-bound sampler.

    Each trial shuffles the host edges with the documented generator seeded
    by (seed, trial index) and keeps an edge iff the graph stays
    pattern-free, so every trial output is saturated.  Returns the minimum
    over trials; ties go to the earliest trial.  The returned witness is
    re-verified before being reported.  The seed must lie in 0..2^64 - 1,
    which the generator reads modulo 2^64.
    """
    sizes = _check_host_sizes(host_sizes)
    trials = _check_count("trials", trials, 1)
    if exact_int(seed) is None:
        raise SearchError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise SearchError(f"seed must lie in 0..2^64 - 1, got {seed}")
    edges = host_edges(sizes)
    best_val: int | None = None
    best_graph: TripartiteGraph | None = None
    trial_values: list[int] = []
    scanned = 0
    for k in range(trials):
        rng = XorShift64Star.for_trial(seed, k)
        order = list(edges)
        rng.shuffle(order)
        b = GraphBuilder(sizes)
        for u, v in order:
            scanned += 1
            if contains_after(b, pat, u, v) is None:
                b.add_edge(u, v)
        g = b.build()
        trial_values.append(g.num_edges)
        if best_val is None or g.num_edges < best_val:
            best_val = g.num_edges
            best_graph = g
    report = is_saturated(best_graph, sizes, pat, early_exit=True)
    if not report.is_saturated:
        raise SearchError("internal error: greedy output failed saturation verification")
    return SearchResult(value=best_val, witnesses=[best_graph], nodes_explored=scanned,
                        method="greedy", seed=seed, trials=trials,
                        trial_values=trial_values)
