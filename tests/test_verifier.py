"""Verifier: report invariants, certificate soundness, degree diagnostics."""

import hashlib
import json
import random

import pytest

from trisat import (GraphBuilder, PatternSpec, TripartiteGraph, VertexRef, VerifierError,
                    construction1, construction3, construction5,
                    construction_c4, constructions, contains, contains_naive,
                    degree_threshold_check, host_nonedges, is_saturated,
                    new_host, residual_structure_check)
from conftest import random_graph, random_sizes


def test_saturated_report_fields():
    g = construction1(1, 1, 5, 5, 5)
    rep = is_saturated(g, (5, 5, 5), PatternSpec(1, 1, 1))
    assert rep.is_saturated and rep.is_pattern_free
    assert rep.forbidden_witness is None
    assert rep.violating_nonedges == []
    assert rep.checked_nonedges == new_host(5, 5, 5).num_edges - g.num_edges
    assert rep.degree_profile == (2, 2, 2)


def test_complete_host_not_pattern_free():
    host = new_host(2, 2, 2)
    rep = is_saturated(host, (2, 2, 2), PatternSpec(1, 1, 1))
    assert not rep.is_pattern_free and rep.forbidden_witness is not None
    assert not rep.is_saturated
    assert rep.checked_nonedges == 0  # no nonedges to scan


def test_damaged_star_verdict_matches_naive_oracle():
    g = construction_c4(2, 2, 2).without_edge(VertexRef(1, 1), VertexRef(2, 2))
    pat = PatternSpec(2, 2, 0)
    rep = is_saturated(g, (2, 2, 2), pat)
    assert not rep.is_saturated
    # full naive recomputation of the same verdict
    free = contains_naive(g, pat) is None
    assert rep.is_pattern_free == free
    naive_violations = [e for e in host_nonedges(g)
                        if contains_naive(g.with_edge(*e), pat) is None]
    assert rep.violating_nonedges == naive_violations
    assert (VertexRef(1, 1), VertexRef(2, 2)) in rep.violating_nonedges


def _free_graph(rnd: random.Random, sizes, pat: PatternSpec):
    """Random pattern-free graph: edges in random order, kept while the
    graph stays free, then thinned so that some nonedges stay incompletable."""
    b = GraphBuilder(sizes)
    edges = new_host(*sizes).edges()
    rnd.shuffle(edges)
    for u, v in edges:
        b.add_edge(u, v)
        if contains(b.build(), pat) is not None or rnd.random() < 0.3:
            b.remove_edge(u, v)
    return b.build()


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 0),
                                   (1, 1, 0), (2, 2, 2), (3, 1, 0)])
def test_nonedge_sweep_matches_naive_oracle(sizes):
    # every report against contains_naive on g and on each g + e, on graphs
    # of at most 15 vertices, half of them pattern-free by construction;
    # a single edge completes K(1,1,0) anywhere, so only it has no violations,
    # and most nonedges complete a star K(3,1,0), so fewer graphs have one
    pat = PatternSpec(*sizes)
    rnd = random.Random(sum(s << (4 * k) for k, s in enumerate(sizes)))
    violated = 0
    for t in range(40):
        ns = random_sizes(rnd, 5)
        g = (_free_graph(rnd, ns, pat) if t % 2 else
             random_graph(rnd, ns, density=rnd.choice((0.2, 0.4, 0.6))))
        nonedges = host_nonedges(g)
        naive = [e for e in nonedges if contains_naive(g.with_edge(*e), pat) is None]
        rep = is_saturated(g, ns, pat)
        assert rep.is_pattern_free == (contains_naive(g, pat) is None)
        assert rep.violating_nonedges == naive
        assert rep.checked_nonedges == len(nonedges)
        early = is_saturated(g, ns, pat, early_exit=True)
        assert early.violating_nonedges == naive[:1]
        assert early.checked_nonedges == (nonedges.index(naive[0]) + 1 if naive
                                          else len(nonedges))
        violated += bool(naive)
    assert violated >= {PatternSpec(1, 1, 0): 0, PatternSpec(3, 1, 0): 5}.get(pat, 10)


def test_certificate_soundness_direct_recheck():
    g = construction3(2, 2, 1, 5, 5, 5)
    pat = PatternSpec(2, 2, 1)
    rep = is_saturated(g, (5, 5, 5), pat)
    assert rep.is_saturated
    assert contains(g, pat) is None
    for u, v in host_nonedges(g):
        assert contains(g.with_edge(u, v), pat) is not None


def test_edge_deletion_sensitivity():
    g = construction1(1, 1, 4, 4, 4)
    pat = PatternSpec(1, 1, 1)
    assert is_saturated(g, (4, 4, 4), pat).is_saturated
    for u, v in g.edges()[:6]:
        rep = is_saturated(g.without_edge(u, v), (4, 4, 4), pat, early_exit=True)
        assert not rep.is_saturated


def test_monotone_refutation():
    g = construction1(1, 1, 4, 4, 4)
    pat = PatternSpec(1, 1, 1)
    for u, v in host_nonedges(g)[:6]:
        h = g.with_edge(u, v)
        rep = is_saturated(h, (4, 4, 4), pat, early_exit=True)
        assert not rep.is_pattern_free
        # every nonedge of a graph that contains the pattern completes it
        full = is_saturated(h, (4, 4, 4), pat, early_exit=False)
        assert not full.is_pattern_free
        assert full.violating_nonedges == []
        assert full.checked_nonedges == len(host_nonedges(h))


def test_size_mismatch_error():
    with pytest.raises(VerifierError):
        is_saturated(new_host(2, 2, 2), (3, 2, 2), PatternSpec(1, 1, 1))


def test_violating_nonedges_refail_on_recheck():
    rnd = random.Random(8)
    pat = PatternSpec(1, 1, 1)
    for _ in range(20):
        g = random_graph(rnd, random_sizes(rnd, 3), density=0.4)
        rep = is_saturated(g, g.part_sizes, pat)
        for u, v in rep.violating_nonedges:
            assert contains(g.with_edge(u, v), pat) is None
        if rep.is_pattern_free and not rep.violating_nonedges:
            assert rep.is_saturated


def test_degree_thresholds_on_constructions():
    # hub construction for K(2,2,2): every residual vertex has degree 4 = 2m
    g = construction1(2, 2, 8, 8, 8)
    checks = degree_threshold_check(g, PatternSpec(2, 2, 2), saturated=True)
    assert checks and all(c.satisfied and c.applicable for c in checks)
    assert all(c.delta == c.bound == 4 for c in checks)

    g3 = construction3(2, 2, 1, 5, 5, 5)
    checks3 = degree_threshold_check(g3, PatternSpec(2, 2, 1), saturated=True)
    assert checks3 and all(c.satisfied for c in checks3)
    assert all(c.bound == 2 and c.delta == 2 for c in checks3)


def test_degree_thresholds_lll2_shape():
    # pattern (3,3,1) has the K(l,l,l-2) shape: both named checks fire
    g = construction5(3, 3, 1, 6)
    checks = degree_threshold_check(g, PatternSpec(3, 3, 1), saturated=True)
    names = {c.name for c in checks}
    assert any("2m" in n for n in names) and any("2l_minus_2" in n for n in names)
    assert all(c.satisfied for c in checks)
    assert {c.bound for c in checks} == {2, 4}


def test_degree_threshold_not_applicable_for_unsaturated():
    empty = GraphBuilder((3, 3, 3)).build()
    checks = degree_threshold_check(empty, PatternSpec(2, 2, 2), saturated=False)
    assert checks
    assert all(not c.applicable for c in checks)
    assert all(not c.satisfied and c.offending is not None for c in checks)


def test_degree_threshold_shape_gate():
    g = construction1(1, 1, 5, 5, 5)
    # pattern (2,1,1) is not of shape K(l,l,m): no checks produced
    assert degree_threshold_check(g, PatternSpec(2, 1, 1), saturated=True) == []


def test_residual_structure_check_complete_host():
    host = new_host(3, 3, 3)
    res = residual_structure_check(host, [set(), set(), set()])
    assert not res.triangle_free and res.triangle is not None
    u, v, w = res.triangle
    assert host.has_edge(u, v) and host.has_edge(u, w) and host.has_edge(v, w)


def test_residual_structure_check_bad_range():
    with pytest.raises(VerifierError):
        residual_structure_check(new_host(2, 2, 2), [{5}, set(), set()])


@pytest.mark.parametrize("hub", ["a", 2.0, True, None])
def test_residual_structure_check_rejects_non_integer_hubs(hub):
    # True would otherwise be read as index 1
    with pytest.raises(VerifierError, match="hub index"):
        residual_structure_check(new_host(2, 2, 2), [{hub}, set(), set()])


def test_residual_structure_check_matches_brute_force():
    # an independent triple loop over the residual vertices: the first
    # triangle in (a, b, c) order and every masked degree
    rnd = random.Random(21)
    for _ in range(150):
        g = random_graph(rnd, random_sizes(rnd, 5), density=rnd.choice((0.3, 0.6, 0.9)))
        hubs = [{a for a in range(1, n + 1) if rnd.random() < 0.3} for n in g.part_sizes]
        res = [[VertexRef(i, a) for a in range(1, g.part_sizes[i - 1] + 1)
                if a not in hubs[i - 1]] for i in (1, 2, 3)]
        first = next(((x, y, z) for x in res[0] for y in res[1] for z in res[2]
                      if g.has_edge(x, y) and g.has_edge(x, z) and g.has_edge(y, z)), None)
        degrees = {v: {j: sum(g.has_edge(v, w) for w in res[j - 1])
                       for j in (1, 2, 3) if j != v.part}
                   for part in res for v in part}
        rep = residual_structure_check(g, hubs)
        assert rep.triangle == first
        assert rep.triangle_free == (first is None)
        assert rep.degrees == degrees


# (family, n, parameters) of the verify benchmark's four families at small n
_PINNED_FAMILIES = (("1", 10, {"l": 1, "m": 1}), ("c4", 6, {}),
                    ("3", 8, {"l": 2, "m": 2, "p": 1}), ("5", 6, {"l": 4, "m": 2, "p": 1}))


def _pinned_report_inputs():
    """(graph, pattern) pairs: each family as built, minus every 7th edge
    and plus every 7th nonedge one at a time, minus every 5th edge at once,
    and every build below its family's threshold that force=True admits
    on K_{n,n,n} with n <= 6 and l <= 4."""
    out = []
    for which, n, params in _PINNED_FAMILIES:
        g = constructions.build(which, n, n, n, **params)
        pat = constructions.pattern_for(which, **params)
        out.append((g, pat))
        out += [(g.without_edge(*e), pat) for e in g.edges()[::7]]
        out += [(g.with_edge(*e), pat) for e in host_nonedges(g)[::7]]
        kept = [e for k, e in enumerate(g.edges()) if k % 5]
        out.append((TripartiteGraph.from_edges(g.part_sizes, kept), pat))
    for which in ("1", "3", "4", "5"):
        for n in range(1, 7):
            for l in range(1, 5):
                for m in range(1, l + 1):
                    for p in ((None,) if which in "14" else range(1, m)):
                        params = {"l": l, "m": m} if p is None else {"l": l, "m": m, "p": p}
                        try:
                            constructions.build(which, n, n, n, **params)
                            continue  # in regime
                        except ValueError:
                            pass
                        try:
                            g = constructions.build(which, n, n, n, **params, force=True)
                        except ValueError:
                            continue
                        out.append((g, constructions.pattern_for(which, **params)))
    return out


def test_reports_pinned_on_constructions_and_their_neighbours():
    # every report in full (verdict, witness, violations in canonical order,
    # counts), pinned by digest over the canonical JSON of all 174 reports
    inputs = _pinned_report_inputs()
    objs = [is_saturated(g, g.part_sizes, pat).to_json_obj() for g, pat in inputs]
    assert len(objs) == 174
    assert sum(len(obj["violating_nonedges"]) for obj in objs) == 919
    blob = json.dumps(objs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "8402d4a68ce10dfb8a2580fc062af245e617a98d078377745c5852f798452ef7")
