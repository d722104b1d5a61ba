"""Part-respecting isomorphism: reflexivity, relabel-invariance, constructions."""

import hashlib
import itertools
import random

import pytest

from trisat import (GraphBuilder, GraphError, TripartiteGraph, VertexRef, construction1,
                    construction2, degree_profile, host_nonedges, iso_equivalent)
from trisat.graphs import iso_invariant
from conftest import random_graph, random_sizes


def relabel(g: TripartiteGraph, part_perm: dict[int, int],
            vertex_perms: dict[int, list[int]]) -> TripartiteGraph:
    """Apply a part permutation and within-part relabelings."""
    new_sizes = [0, 0, 0]
    for i in (1, 2, 3):
        new_sizes[part_perm[i] - 1] = g.part_sizes[i - 1]
    b = GraphBuilder(tuple(new_sizes))
    for u, v in g.edges():
        b.add_edge(VertexRef(part_perm[u.part], vertex_perms[u.part][u.index - 1]),
                   VertexRef(part_perm[v.part], vertex_perms[v.part][v.index - 1]))
    return b.build()


def random_relabel(rnd: random.Random, g: TripartiteGraph) -> TripartiteGraph:
    """g under a random permutation of its equal-size parts and random
    within-part relabelings."""
    sizes = g.part_sizes
    perms = [p for p in itertools.permutations((1, 2, 3))
             if all(sizes[i] == sizes[p[i] - 1] for i in range(3))]
    chosen = rnd.choice(perms)
    vertex_perms = {}
    for i in (1, 2, 3):
        vp = list(range(1, sizes[i - 1] + 1))
        rnd.shuffle(vp)
        vertex_perms[i] = vp
    return relabel(g, {i + 1: chosen[i] for i in range(3)}, vertex_perms)


def test_iso_reflexive_and_symmetric_randomized():
    rnd = random.Random(3)
    for _ in range(15):
        g = random_graph(rnd, random_sizes(rnd))
        h = random_graph(rnd, g.part_sizes)
        assert iso_equivalent(g, g)
        assert iso_equivalent(g, h) == iso_equivalent(h, g)


def test_iso_invariant_under_relabeling():
    rnd = random.Random(4)
    for _ in range(15):
        g = random_graph(rnd, random_sizes(rnd))
        assert iso_equivalent(g, random_relabel(rnd, g))


def test_iso_size_mismatch_false():
    g = GraphBuilder((2, 2, 1)).build()
    h = GraphBuilder((2, 2, 2)).build()
    assert not iso_equivalent(g, h)


def test_iso_too_deep_for_the_recursion_limit_raises_graph_error():
    # the backtracking recurses once per vertex: 1,200 vertices exceed the
    # default limit, 300 do not
    small = construction1(1, 1, 100, 100, 100)
    assert iso_equivalent(small, small)
    big = construction1(1, 1, 400, 400, 400)
    with pytest.raises(GraphError, match="1200 vertices, too deep for the recursion limit"):
        iso_equivalent(big, big)


def test_variant_constructions_isomorphic_on_balanced_host():
    # with l = m the body is invariant under cyclic part rotation, which
    # carries the variant-1 removal triple onto the variant-2 one
    g1 = construction2(1, 2, 2, 6, 6, 6)
    g2 = construction2(2, 2, 2, 6, 6, 6)
    rot = {1: 2, 2: 3, 3: 1}
    ident = {i: list(range(1, 7)) for i in (1, 2, 3)}
    assert relabel(g1, rot, ident) == g2  # explicit relabeling oracle
    assert iso_equivalent(g1, g2)
    assert iso_equivalent(g1, construction2(3, 2, 2, 6, 6, 6))


def brute_force_iso(g: TripartiteGraph, h: TripartiteGraph) -> bool:
    """Oracle: try every part permutation and every vertex relabeling."""
    if sorted(g.part_sizes) != sorted(h.part_sizes):
        return False
    g_edges = set(g.edges())
    for perm in itertools.permutations((1, 2, 3)):
        part_perm = {i: perm[i - 1] for i in (1, 2, 3)}
        if any(g.part_sizes[i - 1] != h.part_sizes[part_perm[i] - 1] for i in (1, 2, 3)):
            continue
        sizes = [g.part_sizes[i - 1] for i in (1, 2, 3)]
        for p1 in itertools.permutations(range(1, sizes[0] + 1)):
            for p2 in itertools.permutations(range(1, sizes[1] + 1)):
                for p3 in itertools.permutations(range(1, sizes[2] + 1)):
                    vperm = {1: p1, 2: p2, 3: p3}
                    image = set()
                    for u, v in g_edges:
                        a = VertexRef(part_perm[u.part], vperm[u.part][u.index - 1])
                        b = VertexRef(part_perm[v.part], vperm[v.part][v.index - 1])
                        image.add((a, b) if (a.part, a.index) < (b.part, b.index) else (b, a))
                    if image == set(h.edges()):
                        return True
    return False


def test_iso_against_brute_force_oracle():
    rnd = random.Random(6)
    hits = 0
    for k in range(40):
        sizes = tuple(sorted((rnd.randint(1, 3) for _ in range(3)), reverse=True))
        g = random_graph(rnd, sizes, density=0.5)
        if k % 2 == 0:
            h = random_graph(rnd, sizes, density=0.5)  # usually non-isomorphic
        else:
            # a genuine relabeling, occasionally perturbed by one edge flip
            vperms = {}
            for i in (1, 2, 3):
                vp = list(range(1, sizes[i - 1] + 1))
                rnd.shuffle(vp)
                vperms[i] = vp
            h = relabel(g, {1: 1, 2: 2, 3: 3}, vperms)
            if rnd.random() < 0.4 and h.num_edges:
                u, v = h.edges()[rnd.randrange(h.num_edges)]
                h = h.without_edge(u, v)
        want = brute_force_iso(g, h)
        assert iso_equivalent(g, h) == want
        hits += want
    assert hits >= 5  # the sample exercises the isomorphic branch
    # relabelings that also permute equal-size parts, on hosts with two and
    # with three parts of one size
    changed = 0
    for k in range(24):
        n = rnd.randint(1, 3)
        sizes = (n, n, n) if k % 3 == 0 else tuple(sorted((n, n, rnd.randint(1, 3)),
                                                          reverse=True))
        g = random_graph(rnd, sizes, density=0.5)
        h = random_relabel(rnd, g)
        changed += h != g
        if k % 2 and h.num_edges:
            u, v = h.edges()[rnd.randrange(h.num_edges)]
            h = h.without_edge(u, v)
        assert iso_equivalent(g, h) == brute_force_iso(g, h)
    assert changed >= 12  # most relabelings move some edge


def test_two_triangles_vs_six_cycle():
    # every vertex has one neighbour in each other part in both graphs, so
    # the split-degree signatures agree; only one of them has a triangle
    triangles = GraphBuilder((2, 2, 2))
    cycle = GraphBuilder((2, 2, 2))
    for a in (1, 2):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            triangles.add_edge(VertexRef(i, a), VertexRef(j, a))
    ring = [VertexRef(1, 1), VertexRef(2, 1), VertexRef(3, 1),
            VertexRef(1, 2), VertexRef(2, 2), VertexRef(3, 2)]
    for u, v in zip(ring, ring[1:] + ring[:1]):
        cycle.add_edge(u, v)
    g, h = triangles.build(), cycle.build()
    assert iso_invariant(g) == iso_invariant(h)
    assert not iso_equivalent(g, h)
    assert not iso_equivalent(h, g)


def iso_digest(pairs: int = 1200) -> str:
    """sha256 over seeded pairs (g, h) on parts of size up to 5, a third of
    them balanced.  h is a random graph, a random relabeling of g that may
    permute equal-size parts, or such a relabeling with one edge moved to a
    nonedge.  Each pair writes the iso_equivalent answer, whether the two
    iso_invariant values are equal, and g's degree profile."""
    rnd = random.Random(18)
    digest = hashlib.sha256()
    for k in range(pairs):
        n = rnd.randint(1, 5)
        sizes = (n, n, n) if k // 3 % 3 == 0 else random_sizes(rnd, 5)
        g = random_graph(rnd, sizes, density=rnd.choice((0.3, 0.5, 0.7)))
        if k % 3 == 1:
            h = random_graph(rnd, sizes, density=0.5)
        else:
            h = random_relabel(rnd, g)
            if k % 3 == 2 and 0 < h.num_edges < sum(x * y for x, y in
                                                    itertools.combinations(sizes, 2)):
                u, v = h.edges()[rnd.randrange(h.num_edges)]
                x, y = rnd.choice(host_nonedges(h))
                h = h.without_edge(u, v).with_edge(x, y)
        prof = degree_profile(g)
        digest.update(repr((iso_equivalent(g, h), iso_invariant(g) == iso_invariant(h),
                            prof.delta, sorted(prof.split.items()))).encode())
    return digest.hexdigest()


def test_iso_answers_pinned_by_digest():
    assert iso_digest() == (
        "1e2b750ec0a83eb7c1421e0be3fd339bfd2bf54ed925e309fd29668cc046e5e7")


def test_triangle_vs_path_removals_not_isomorphic():
    # removal shapes differ: a triangle of nonedges vs a path of nonedges.
    # Independent certificate: the number of pairwise-nonadjacent cross
    # triples is an isomorphism invariant and differs (65 vs 64 here).
    g1 = construction1(1, 1, 5, 5, 5)
    g2 = construction2(1, 1, 1, 5, 5, 5, force=True)

    def independent_triples(g: TripartiteGraph) -> int:
        count = 0
        for a in range(1, 6):
            for b in range(1, 6):
                if g.has_edge(VertexRef(1, a), VertexRef(2, b)):
                    continue
                for c in range(1, 6):
                    if (not g.has_edge(VertexRef(1, a), VertexRef(3, c))
                            and not g.has_edge(VertexRef(2, b), VertexRef(3, c))):
                        count += 1
        return count

    assert independent_triples(g1) == 65
    assert independent_triples(g2) == 64
    assert not iso_equivalent(g1, g2)


def test_two_switch_refuted_by_triangle_counts():
    # a 2-switch keeps every split degree, so equal signatures alone leave
    # the backtrack to exhaust the pair; the per-vertex triangle counts of
    # the two graphs already differ, so the pools refute it at once
    g = construction1(1, 1, 6, 6, 6)
    a1, a6, b1, b6 = VertexRef(1, 1), VertexRef(1, 6), VertexRef(2, 1), VertexRef(2, 6)
    h = g.without_edge(a1, b6).without_edge(a6, b1).with_edge(a1, b1).with_edge(a6, b6)
    assert iso_invariant(g) == iso_invariant(h)
    assert not iso_equivalent(g, h)
    assert not iso_equivalent(h, g)
