"""Graph core: hosts, degrees, nonedges, edge editing, value semantics."""

import random

import numpy as np
import pytest

from trisat import (GraphBuilder, GraphError, VertexRef, construction1,
                    construction_c4, degree_profile, host_nonedges, new_host)
from trisat.graphs import host_edges
from conftest import PAIRS, edge_tuples, random_graph, random_sizes


def test_new_host_edge_counts():
    assert new_host(2, 2, 2).num_edges == 12
    assert new_host(3, 2, 2).num_edges == 16


def test_new_host_rejects_bad_ordering_and_zero():
    with pytest.raises(GraphError):
        new_host(2, 3, 2)
    with pytest.raises(GraphError):
        new_host(2, 2, 0)


@pytest.mark.parametrize("sizes", [(2.0, 2, 2), (3.7, 3, 3), ("3", 3, 3), (True, 1, 1),
                                   (2, 2, None), (2, 2)])
def test_part_sizes_reject_non_integers(sizes):
    with pytest.raises(GraphError):
        GraphBuilder(sizes)
    with pytest.raises(GraphError):
        host_edges(sizes)
    if len(sizes) == 3:
        with pytest.raises(GraphError):
            new_host(*sizes)
    # numpy integers are integers
    assert GraphBuilder((np.int64(3), np.int32(2), 2)).part_sizes == (3, 2, 2)


def test_degree_profile_complete_and_edgeless():
    assert degree_profile(new_host(2, 2, 2)).delta == (4, 4, 4)
    empty = GraphBuilder((2, 2, 2)).build()
    assert degree_profile(empty).delta == (0, 0, 0)


def test_degree_profile_against_naive_recount():
    # three-star C4 construction on (3,2,2), recounted vertex by vertex
    g = construction_c4(3, 2, 2)
    prof = degree_profile(g)
    edges = g.edges()
    for v in g.vertices():
        naive = sum(1 for (x, y) in edges if v in (x, y))
        assert prof.degree(v) == naive
        by_part = {j: sum(1 for (x, y) in edges
                          if (x == v and y.part == j) or (y == v and x.part == j))
                   for j in (1, 2, 3) if j != v.part}
        assert prof.split[v] == by_part
    assert prof.delta == (min(prof.degree(VertexRef(1, a)) for a in (1, 2, 3)),
                          min(prof.degree(VertexRef(2, a)) for a in (1, 2)),
                          min(prof.degree(VertexRef(3, a)) for a in (1, 2)))


def test_degree_split_sums_to_degree_randomized():
    rnd = random.Random(11)
    for _ in range(25):
        g = random_graph(rnd, random_sizes(rnd))
        prof = degree_profile(g)
        for v in g.vertices():
            assert sum(prof.split[v].values()) == prof.degree(v) == g.degree(v)
        # per part, the degree sum equals the edges it meets in both pair sets
        for i in (1, 2, 3):
            total = sum(prof.degree(v) for v in g.vertices() if v.part == i)
            meets = sum(1 for (u, v) in g.edges() if i in (u.part, v.part))
            assert total == meets


def test_nonedges_trivia():
    assert host_nonedges(new_host(2, 2, 2)) == []
    empty = GraphBuilder((1, 1, 1)).build()
    assert host_nonedges(empty) == [
        (VertexRef(1, 1), VertexRef(2, 1)),
        (VertexRef(1, 1), VertexRef(3, 1)),
        (VertexRef(2, 1), VertexRef(3, 1)),
    ]


def test_nonedges_set_difference_oracle():
    g = construction1(1, 1, 5, 5, 5)
    host = new_host(5, 5, 5)
    got = {(u, v) for u, v in host_nonedges(g)}
    want = set(map(tuple, (e for e in host.edges()))) - set(map(tuple, g.edges()))
    assert got == want
    assert len(got) + g.num_edges == host.num_edges


def test_nonedges_partition_randomized():
    rnd = random.Random(5)
    for _ in range(25):
        sizes = random_sizes(rnd)
        host = new_host(*sizes)
        g = random_graph(rnd, sizes, density=rnd.uniform(0.2, 0.9))
        missing = host_nonedges(g)
        assert len(missing) + g.num_edges == host.num_edges
        assert set(missing) | set(g.edges()) == set(host.edges())
        assert set(missing).isdisjoint(g.edges())
        assert missing == sorted(missing, key=lambda e: ((e[0].part, e[1].part), e[0], e[1]))


def test_add_remove_edge_inverse_and_immutability():
    g = GraphBuilder((2, 2, 2)).build()
    u, v = VertexRef(1, 1), VertexRef(2, 2)
    g2 = g.with_edge(u, v)
    assert g.num_edges == 0 and g2.num_edges == 1
    g3 = g2.without_edge(u, v)
    assert g3 == g
    assert edge_tuples(g3) == edge_tuples(g)


def test_add_remove_edge_errors():
    g = new_host(2, 2, 2)
    with pytest.raises(GraphError):
        g.with_edge(VertexRef(1, 1), VertexRef(1, 2))  # same part
    with pytest.raises(GraphError):
        g.with_edge(VertexRef(1, 1), VertexRef(2, 1))  # duplicate
    empty = GraphBuilder((2, 2, 2)).build()
    with pytest.raises(GraphError):
        empty.without_edge(VertexRef(1, 1), VertexRef(2, 1))  # absent
    with pytest.raises(GraphError):
        g.with_edge(VertexRef(1, 3), VertexRef(2, 1))  # out of range


def test_canonical_edge_order():
    g = new_host(2, 2, 1)
    rows = edge_tuples(g)
    assert rows == sorted(rows, key=lambda r: ((r[0], r[2]), r[1], r[3]))
    # pair (1,2) before (1,3) before (2,3)
    pair_seq = [(r[0], r[2]) for r in rows]
    assert pair_seq == sorted(pair_seq, key=PAIRS.index)
    # the host edge list walks the same order
    for s in [(2, 2, 1), (3, 2, 2), (4, 3, 1)]:
        assert host_edges(s) == new_host(*s).edges()


def test_builder_publish_is_snapshot():
    b = GraphBuilder((2, 2, 2))
    b.add_edge(VertexRef(1, 1), VertexRef(2, 1))
    g = b.build()
    b.add_edge(VertexRef(1, 1), VertexRef(3, 1))
    assert g.num_edges == 1
    assert b.build().num_edges == 2


def test_vertexref_validation():
    # out of range, and anything but an integer: bools, floats, strings, None
    for part, index in [(4, 1), (1, 0), (True, 1), (1, True), (1.0, 1), (1, 1.0),
                        (1, 1.5), ("1", 1), (1, None)]:
        with pytest.raises(GraphError):
            VertexRef(part, index)


def test_numpy_integer_refs_build_the_plain_int_graph():
    # a numpy integer shift (1 << np.int64(119)) wraps, so refs must hold plain ints
    sizes, rng = (40, 40, 40), random.Random(3)
    edges = rng.sample(host_edges(sizes), 400) + [(VertexRef(1, 40), VertexRef(3, 40))]
    plain, as_np = GraphBuilder(sizes), GraphBuilder(sizes)
    for u, v in edges:
        plain.add_edge(u, v)
        as_np.add_edge(VertexRef(np.int64(u.part), np.int64(u.index)),
                       VertexRef(np.int32(v.part), np.int64(v.index)))
    assert as_np.build() == plain.build()
    assert as_np.edges() == plain.edges() and len(as_np.edges()) == 401
    ref = VertexRef(np.int64(3), np.int64(40))
    assert (type(ref.part), type(ref.index)) == (int, int) and ref == VertexRef(3, 40)


def test_edge_count_consistency_randomized():
    rnd = random.Random(41)
    for _ in range(20):
        g = random_graph(rnd, random_sizes(rnd), density=rnd.random())
        assert g.num_edges == len(g.edges())
        per_pair = {}
        for u, v in g.edges():
            per_pair[(u.part, v.part)] = per_pair.get((u.part, v.part), 0) + 1
        assert sum(per_pair.values()) == g.num_edges


def test_edge_order_does_not_change_the_value():
    rnd = random.Random(43)
    for _ in range(30):
        g = random_graph(rnd, random_sizes(rnd, 6), density=rnd.random())
        edges = g.edges()
        graphs = []
        for _ in range(2):
            rnd.shuffle(edges)
            b = GraphBuilder(g.part_sizes)
            for u, v in edges:
                b.add_edge(*((u, v) if rnd.random() < 0.5 else (v, u)))
            graphs.append(b.build())
        assert graphs[0] == graphs[1] == g
        assert hash(graphs[0]) == hash(graphs[1]) == hash(g)
        for u, v in host_nonedges(g)[:5]:
            assert g.with_edge(u, v) != g
            assert g.with_edge(u, v).without_edge(v, u) == g
        for u, v in edges[:5]:
            assert g.without_edge(u, v).with_edge(u, v) == g


def test_rows_and_neighbor_masks_agree_with_edges():
    rnd = random.Random(44)
    for _ in range(30):
        g = random_graph(rnd, random_sizes(rnd, 6), density=rnd.random())
        edges = set(g.edges())
        verts = g.vertices()
        for x, u in enumerate(verts):
            assert g.offsets[u.part - 1] + u.index - 1 == x
            for y, v in enumerate(verts):
                adjacent = (u, v) in edges or (v, u) in edges
                assert g.has_edge(u, v) == adjacent
                assert bool((g.rows[x] >> y) & 1) == adjacent
                if u.part != v.part:
                    assert bool((g.neighbors_mask(u.part, u.index, v.part)
                                 >> (v.index - 1)) & 1) == adjacent
            assert g.degree(u) == sum(u in e for e in edges)
        for i in (1, 2, 3):
            for a in range(1, g.part_sizes[i - 1] + 1):
                for j in (1, 2, 3):
                    if j != i:
                        assert g.neighbors_mask(i, a, j) >> g.part_sizes[j - 1] == 0


def test_induced_equals_rebuild_from_kept_edges():
    rnd = random.Random(45)
    for _ in range(40):
        g = random_graph(rnd, random_sizes(rnd, 6), density=rnd.random())
        # keep masks may carry bits beyond their part's size; those name no vertex
        keep = [rnd.getrandbits(n + 3) for n in g.part_sizes]

        def kept(v):
            return (keep[v.part - 1] >> (v.index - 1)) & 1

        h = g.induced(keep)
        expected = GraphBuilder(g.part_sizes)
        for u, v in g.edges():
            if kept(u) and kept(v):
                expected.add_edge(u, v)
        assert h == expected.build() and hash(h) == hash(expected.build())
        assert h.num_edges == len(h.edges())
