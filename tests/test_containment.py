"""Containment: golden witnesses, oracle agreement, short-circuit contract."""

import hashlib
import random

import numpy as np
import pytest

from trisat import (ContainmentError, Embedding, GraphBuilder, PatternError, PatternSpec,
                    TripartiteGraph, VertexRef, construction1, construction3,
                    construction4, construction_c4, contains, contains_after,
                    contains_naive, host_nonedges, new_host, validate_embedding)
from trisat.containment import _uncompleted
from trisat.graphs import host_edges, iter_bits, nonedge_runs
from conftest import PAIRS, random_graph, random_pattern, random_sizes


def build_free_graph(rnd: random.Random, sizes, pat) -> TripartiteGraph:
    """Random pattern-free graph, freeness maintained through the naive oracle."""
    host = new_host(*sizes)
    b = GraphBuilder(sizes)
    edges = host.edges()
    rnd.shuffle(edges)
    for u, v in edges:
        b.add_edge(u, v)
        if contains_naive(b.build(), pat) is not None:
            b.remove_edge(u, v)
        elif rnd.random() < 0.3:
            b.remove_edge(u, v)  # thin out to keep some nonedges incompletable
    return b.build()


def maximal_free_graph(rnd: random.Random, sizes, pat, drop: int = 0) -> TripartiteGraph:
    """Random maximal pattern-free graph, grown as the greedy sampler grows
    one (an edge is kept iff it completes no copy), minus ``drop`` of its
    edges picked at random."""
    edges = host_edges(sizes)
    rnd.shuffle(edges)
    b = GraphBuilder(sizes)
    for u, v in edges:
        if contains_after(b, pat, u, v) is None:
            b.add_edge(u, v)
    for u, v in rnd.sample(b.edges(), min(drop, b.num_edges)):
        b.remove_edge(u, v)
    return b.build()


def assert_sweep_matches_contains_after(g, pat) -> None:
    """The sweep's uncompleted nonedges, positions included, are exactly
    those where contains_after finds no copy: a nonedge wrongly taken as
    completed would hide a violation from the verifier."""
    nonedges = host_nonedges(g)
    expected = [(k, u, v) for k, (u, v) in enumerate(nonedges)
                if contains_after(g, pat, u, v) is None]
    assert list(_uncompleted(g, pat)) == expected


def mixed_runs(g, pat) -> int:
    """Runs of g's nonedges that hold completed and open nonedges both."""
    open_ = {(u, v) for _, u, v in _uncompleted(g, pat)}
    return sum(0 < sum((VertexRef(i, a), VertexRef(j, b)) in open_ for b in iter_bits(mask))
               < mask.bit_count() for i, a, j, mask in nonedge_runs(g))


def test_complete_host_triangle_golden_witness():
    emb = contains(new_host(1, 1, 1), PatternSpec(1, 1, 1))
    assert emb is not None
    assert emb.classes == (frozenset({VertexRef(1, 1)}),
                           frozenset({VertexRef(2, 1)}),
                           frozenset({VertexRef(3, 1)}))


def test_construction_is_pattern_free():
    g = construction1(1, 1, 5, 5, 5)
    assert contains(g, PatternSpec(1, 1, 1)) is None


def test_four_cycle_split_class_witness():
    # the 4-cycle v1^1 - v2^1 - v3^1 - v2^2 - v1^1 on part sizes (1, 2, 1)
    b = GraphBuilder((1, 2, 1))
    b.add_edge(VertexRef(1, 1), VertexRef(2, 1))
    b.add_edge(VertexRef(2, 1), VertexRef(3, 1))
    b.add_edge(VertexRef(3, 1), VertexRef(2, 2))
    b.add_edge(VertexRef(2, 2), VertexRef(1, 1))
    g = b.build()
    emb = contains(g, PatternSpec(2, 2, 0))
    assert emb is not None
    assert emb.classes == (frozenset({VertexRef(1, 1), VertexRef(3, 1)}),
                           frozenset({VertexRef(2, 1), VertexRef(2, 2)}))
    validate_embedding(g, PatternSpec(2, 2, 0), emb)


def test_single_edge_pattern():
    g = GraphBuilder((2, 2, 2))
    g.add_edge(VertexRef(1, 2), VertexRef(3, 1))
    emb = contains(g.build(), PatternSpec(1, 1, 0))
    assert emb is not None


def test_bipartite_class_wider_than_any_part():
    # K(4,2) fits in the (2,2,2) host only with one class spread over two
    # parts; both search and oracle must find it in the complete host
    host = new_host(2, 2, 2)
    pat = PatternSpec(4, 2, 0)
    emb = contains(host, pat)
    assert emb is not None
    validate_embedding(host, pat, emb)
    assert len({v.part for v in emb.classes[0]}) == 2
    assert contains_naive(host, pat) is not None
    # removing one cross edge inside the only viable role split kills it
    # only if no alternative split remains; the (2,2,2) host has three
    damaged = host.without_edge(VertexRef(1, 1), VertexRef(3, 1))
    assert (contains(damaged, pat) is None) == (contains_naive(damaged, pat) is None)


def test_contains_after_on_construction_nonedge():
    g = construction1(1, 1, 5, 5, 5)
    u, v = VertexRef(1, 5), VertexRef(2, 5)  # one of the removed hub edges
    emb = contains_after(g, PatternSpec(1, 1, 1), u, v)
    assert emb is not None
    used = emb.all_vertices()
    assert u in used and v in used
    validate_embedding(g.with_edge(u, v), PatternSpec(1, 1, 1), emb)
    # v3^5 lost its edges to both endpoints, so the third vertex has index <= 4
    third = next(x for x in used if x.part == 3)
    assert third.index <= 4


def test_contains_after_tripartite_golden_witness():
    g = construction3(2, 2, 1, 6, 6, 6)
    u, v = VertexRef(1, 2), VertexRef(2, 2)
    emb = contains_after(g, PatternSpec(2, 2, 1), u, v)
    assert emb is not None
    assert emb.classes == (frozenset({VertexRef(1, 1), VertexRef(1, 2)}),
                           frozenset({VertexRef(2, 1), VertexRef(2, 2)}),
                           frozenset({VertexRef(3, 1)}))


def test_contains_after_bipartite_golden_witness():
    g = construction_c4(4, 4, 4)
    u, v = VertexRef(2, 4), VertexRef(3, 4)
    emb = contains_after(g, PatternSpec(2, 2, 0), u, v)
    assert emb is not None
    assert emb.classes == (frozenset({VertexRef(1, 1), VertexRef(3, 4)}),
                           frozenset({VertexRef(2, 1), VertexRef(2, 4)}))


def test_embedding_validator_rejects_tampering():
    from trisat import Embedding, EmbeddingError
    host = new_host(2, 2, 2)
    pat = PatternSpec(1, 1, 1)
    good = contains(host, pat)
    validate_embedding(host, pat, good)
    # wrong class count
    with pytest.raises(EmbeddingError):
        validate_embedding(host, pat, Embedding(good.classes[:2]))
    # duplicated vertex across classes
    dup = Embedding((good.classes[0], good.classes[0], good.classes[2]))
    with pytest.raises(EmbeddingError):
        validate_embedding(host, pat, dup)
    # missing edge
    damaged = host.without_edge(VertexRef(1, 1), VertexRef(2, 1))
    with pytest.raises(EmbeddingError):
        validate_embedding(damaged, pat, good)
    # two classes landing in one common part can never be mutually adjacent
    span = Embedding((frozenset({VertexRef(1, 1)}), frozenset({VertexRef(1, 2)}),
                      frozenset({VertexRef(3, 1)})))
    with pytest.raises(EmbeddingError):
        validate_embedding(host, pat, span)


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 1), (2, 1, 1), (2, 2, 0)])
def test_witnesses_have_embedding_value_semantics(sizes):
    # contains and contains_after build a witness's classes on first read;
    # it compares, hashes and prints as Embedding(classes) does, read first
    # through hash and repr and then through classes
    pat = PatternSpec(*sizes)
    rnd = random.Random(sum(sizes))
    ns = (4, 3, 3)
    g = maximal_free_graph(rnd, ns, pat)
    found = [(new_host(*ns), contains(new_host(*ns), pat))]
    found += [(g.with_edge(u, v), contains_after(g, pat, u, v))
              for u, v in host_nonedges(g)[:8]]
    spans = 0
    for h, w in found:
        assert w is not None and contains(h, pat) is not None
        hashed, shown = hash(w), repr(w)
        eager = Embedding(w.classes)
        assert w == eager and eager == w and len({w, eager}) == 1
        assert (hashed, shown) == (hash(eager), repr(eager))
        assert shown.startswith("Embedding(classes=(frozenset({")
        assert w != Embedding(w.classes[::-1]) and w != w.classes
        assert w.all_vertices() == frozenset().union(*w.classes)
        validate_embedding(h, pat, w)
        spans += any(len({x.part for x in cl}) == 2 for cl in w.classes)
    if pat.p == 0:
        assert spans  # some C4 witness has a class over two parts


def test_contains_after_missing_third_edge():
    g = GraphBuilder((1, 1, 1)).build()
    assert contains_after(g, PatternSpec(1, 1, 1), VertexRef(1, 1), VertexRef(2, 1)) is None


def test_contains_after_errors():
    g = new_host(2, 2, 2)
    with pytest.raises(ContainmentError):
        contains_after(g, PatternSpec(1, 1, 1), VertexRef(1, 1), VertexRef(2, 1))  # edge exists
    empty = GraphBuilder((2, 2, 2)).build()
    with pytest.raises(ContainmentError):
        contains_after(empty, PatternSpec(1, 1, 1), VertexRef(1, 1), VertexRef(1, 2))  # same part


_REFUSALS = [((1, 1), (1, 2), "v1^1 and v1^2 lie in the same part"),
             ((1, 5), (1, 9), "v1^5 and v1^9 lie in the same part"),
             ((1, 3), (2, 1), "v1^3 out of range for part sizes (2, 2, 2)"),
             ((1, 1), (2, 3), "v2^3 out of range for part sizes (2, 2, 2)"),
             ((3, 5), (1, 9), "v3^5 out of range for part sizes (2, 2, 2)"),
             ((1, 1), (2, 1), "v1^1v2^1 is already an edge")]


@pytest.mark.parametrize("u, v, message", _REFUSALS)
def test_contains_after_refusals_on_both_graph_kinds(u, v, message):
    # same part, then u's range, then v's range, then an edge already there
    b = GraphBuilder((2, 2, 2))
    b.add_edge(VertexRef(1, 1), VertexRef(2, 1))
    for g in (new_host(2, 2, 2), b):
        with pytest.raises(ContainmentError) as info:
            contains_after(g, PatternSpec(1, 1, 1), VertexRef(*u), VertexRef(*v))
        assert str(info.value) == message


def test_contains_after_equals_naive_recheck():
    # 200 random pattern-free instances; existence must match the naive
    # oracle evaluated on the graph with the edge actually added
    rnd = random.Random(91)
    done = 0
    while done < 200:
        sizes = random_sizes(rnd, max_size=3)
        pat = random_pattern(rnd, max_class=2)
        g = build_free_graph(rnd, sizes, pat)
        holes = [(u, v) for i, j in PAIRS
                 for a in range(1, sizes[i - 1] + 1)
                 for c in range(1, sizes[j - 1] + 1)
                 if not g.has_edge(u := VertexRef(i, a), v := VertexRef(j, c))]
        if not holes:
            continue
        u, v = rnd.choice(holes)
        fast = contains_after(g, pat, u, v)
        slow = contains_naive(g.with_edge(u, v), pat)
        assert (fast is None) == (slow is None)
        if fast is not None:
            used = fast.all_vertices()
            assert u in used and v in used
            validate_embedding(g.with_edge(u, v), pat, fast)
        done += 1


def test_contains_agrees_with_naive_randomized():
    rnd = random.Random(29)
    for _ in range(250):
        g = random_graph(rnd, random_sizes(rnd), density=rnd.uniform(0.2, 0.9))
        pat = random_pattern(rnd)
        fast = contains(g, pat)
        slow = contains_naive(g, pat)
        assert (fast is None) == (slow is None)
        assert contains(g, pat) == fast  # fixed exploration order
        if fast is not None:
            validate_embedding(g, pat, fast)
        if slow is not None:
            validate_embedding(g, pat, slow)


def test_monotonicity_under_edge_addition():
    rnd = random.Random(31)
    for _ in range(40):
        g = random_graph(rnd, random_sizes(rnd), density=0.6)
        pat = random_pattern(rnd)
        if contains(g, pat) is None:
            continue
        holes = [(u, v) for i, j in PAIRS
                 for a in range(1, g.part_sizes[i - 1] + 1)
                 for c in range(1, g.part_sizes[j - 1] + 1)
                 if not g.has_edge(u := VertexRef(i, a), v := VertexRef(j, c))]
        for u, v in holes[:3]:
            assert contains(g.with_edge(u, v), pat) is not None


def test_triangle_free_residual_graph_has_no_triangle():
    # keep only the residual-residual edges of the balanced construction;
    # its residual triple is triangle-free by construction
    g = construction4(3, 1, 12)
    res = set(range(3, 13))  # indices above the hub (1) and triangle (2) vertices
    b = GraphBuilder(g.part_sizes)
    for u, v in g.edges():
        if u.index in res and v.index in res:
            b.add_edge(u, v)
    assert contains(b.build(), PatternSpec(1, 1, 1)) is None


def test_pattern_validation():
    with pytest.raises(PatternError):
        PatternSpec(2, 0, 0)  # edgeless
    with pytest.raises(PatternError):
        PatternSpec(1, 2, 0)  # not sorted
    with pytest.raises(PatternError):
        PatternSpec(2, 2, -1)
    assert PatternSpec(2, 2, 0).is_bipartite
    assert PatternSpec(2, 2, 0).nonempty_sizes == (2, 2)


@pytest.mark.parametrize("sizes", [(1.5, 1, 1), (2, 1.0, 0), ("2", 1, 1), (True, 1, 0),
                                   (1, True, 0), (2, 2, None)])
def test_pattern_sizes_reject_non_integers(sizes):
    with pytest.raises(PatternError):
        PatternSpec(*sizes)
    assert PatternSpec(np.int64(2), np.int64(1), 0).sizes == (2, 1, 0)


def test_naive_guard():
    with pytest.raises(ContainmentError):
        contains_naive(new_host(6, 6, 6), PatternSpec(1, 1, 1))


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3, 1), (4, 2, 1), (3, 3, 3), (3, 1, 0),
                                   (3, 3, 0)])
def test_nonedge_sweep_matches_contains_after(sizes):
    # maximal pattern-free graphs, where every nonedge completes a copy, and
    # the same minus a few edges, where a run of nonedges can mix completed
    # and open ones; parts from the pattern's smallest class (at least 1)
    # up to 7, in any order
    pat = PatternSpec(*sizes)
    rnd = random.Random(sum(s << (4 * k) for k, s in enumerate(sizes)))
    mixed = 0
    for t in range(40):
        ns = tuple(rnd.randint(max(1, pat.p), 7) for _ in range(3))
        g = maximal_free_graph(rnd, ns, pat, drop=(0, 1, 3)[t % 3])
        assert contains(g, pat) is None
        assert_sweep_matches_contains_after(g, pat)
        mixed += mixed_runs(g, pat)
    assert mixed >= 10


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3, 1), (4, 2, 1), (3, 3, 3)])
def test_nonedge_sweep_on_runs_of_one_nonedge(sizes):
    # the host minus a random partial matching in each part pair: every run
    # of nonedges holds at most one, so each search starts from a single
    # second endpoint; graphs that contain the pattern are skipped, and some
    # of the others must have both completed and open nonedges
    pat = PatternSpec(*sizes)
    rnd = random.Random(sum(s << (4 * k) for k, s in enumerate(sizes)))
    free = mixed = 0
    for _ in range(80):
        ns = tuple(rnd.randint(2, 6) for _ in range(3))
        missing = set()
        for i, j in PAIRS:
            partners = rnd.sample(range(1, ns[j - 1] + 1), min(ns[i - 1], ns[j - 1]))
            missing |= {(VertexRef(i, a), VertexRef(j, b))
                        for a, b in enumerate(partners, start=1) if rnd.random() < 0.7}
        g = TripartiteGraph.from_edges(ns, [e for e in host_edges(ns) if e not in missing])
        if contains(g, pat) is not None:
            continue
        assert all(mask.bit_count() <= 1 for *_, mask in nonedge_runs(g))
        assert_sweep_matches_contains_after(g, pat)
        free += 1
        mixed += 0 < sum(1 for _ in _uncompleted(g, pat)) < len(missing)
    assert free >= 10 and mixed >= 5


def contains_after_digest(sequences: int = 120) -> str:
    """sha256 over every contains_after answer along seeded random builder
    sequences: each sequence shuffles a random host's edges and adds an edge
    iff contains_after finds no copy, as the greedy sampler does.  An answer
    is written as its classes, in class order, each as its sorted
    (part, index) pairs, or as None.  Patterns include p = 0, where a class
    may span two parts."""
    rnd = random.Random(16)
    h = hashlib.sha256()
    for _ in range(sequences):
        sizes = tuple(rnd.randint(1, 5) for _ in range(3))
        pat = random_pattern(rnd, max_class=3)
        edges = host_edges(sizes)
        rnd.shuffle(edges)
        b = GraphBuilder(sizes)
        for u, v in edges:
            emb = contains_after(b, pat, u, v)
            if emb is None:
                b.add_edge(u, v)
                h.update(b"None;")
            else:
                h.update(repr([sorted((x.part, x.index) for x in cl)
                               for cl in emb.classes]).encode() + b";")
    return h.hexdigest()


def test_contains_after_answers_pinned_by_digest():
    # pins which copy is found, not only whether one is: greedy's outputs and
    # the verifier's reports depend on the first embedding in exploration order
    assert contains_after_digest() == (
        "868e54e4414725ec45bc24827c812c997f6218e730e50001c97806e70a95323f")
