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
    with pytest.raises(GraphError):
        VertexRef(4, 1)
    with pytest.raises(GraphError):
        VertexRef(1, 0)


def test_edge_count_consistency_randomized():
    rnd = random.Random(41)
    for _ in range(20):
        g = random_graph(rnd, random_sizes(rnd), density=rnd.random())
        assert g.num_edges == len(g.edges())
        per_pair = {}
        for u, v in g.edges():
            per_pair[(u.part, v.part)] = per_pair.get((u.part, v.part), 0) + 1
        assert sum(per_pair.values()) == g.num_edges
