"""Constructions: edge counts vs formulas, saturation, residual structure."""

import hashlib

import numpy as np
import pytest

from trisat import (ConstructionError, PatternSpec, construction1,
                    construction2, construction3, construction4,
                    construction5, construction_c4, f_con1_upper,
                    f_con3_upper, f_con4_upper, f_con5_upper, hub_sets,
                    host_nonedges, is_saturated, iso_equivalent, new_host,
                    residual_structure_check, residual_triple_edges, serialize)
from trisat.constructions import admit, build, formula_for, smallest_guaranteed_n


def test_construction1_edge_counts_match_formula():
    for (l, m, n1, n2, n3, want) in [(1, 1, 4, 4, 4, 18), (2, 1, 7, 6, 6, 47),
                                     (1, 1, 5, 5, 5, 24)]:
        g = construction1(l, m, n1, n2, n3)
        assert g.num_edges == want == f_con1_upper(n1, n2, n3, l, m).value


def test_construction1_saturated():
    g = construction1(1, 1, 5, 5, 5)
    assert is_saturated(g, (5, 5, 5), PatternSpec(1, 1, 1)).is_saturated


def test_construction1_nonedge_count_inside_host():
    g = construction1(2, 1, 7, 6, 6)
    assert len(host_nonedges(g)) == new_host(7, 6, 6).num_edges - g.num_edges


def test_construction1_rejects_small_host_without_force():
    with pytest.raises(ConstructionError):
        construction1(3, 1, 5, 5, 5)  # needs n3 >= max(l+2, 3l-2m-1) = 6
    g = construction1(3, 1, 5, 5, 5, force=True)
    assert g.num_edges > 0


def test_construction2_matches_construction1_edge_count():
    g1 = construction1(2, 2, 6, 6, 6)
    g2 = construction2(1, 2, 2, 6, 6, 6)
    assert g1.num_edges == g2.num_edges
    assert g1 != g2  # different removal triples


def test_construction2_saturated_and_variants_equivalent():
    for variant in (1, 2, 3):
        g = construction2(variant, 2, 2, 6, 6, 6)
        assert is_saturated(g, (6, 6, 6), PatternSpec(2, 2, 2)).is_saturated
    assert iso_equivalent(construction2(1, 2, 2, 6, 6, 6), construction2(2, 2, 2, 6, 6, 6))


def test_construction2_rejects_m1():
    with pytest.raises(ConstructionError):
        construction2(1, 2, 1, 6, 6, 6)
    # forced: builds, but the verifier refutes saturation (a hub pair stays
    # completely joined, so the pattern is present)
    g = construction2(1, 1, 1, 5, 5, 5, force=True)
    rep = is_saturated(g, (5, 5, 5), PatternSpec(1, 1, 1))
    assert not rep.is_pattern_free and not rep.is_saturated


@pytest.mark.parametrize("variant", [7, 0, -1, True, 2.0, "1"])
def test_construction2_variant_refused_before_host_checks(variant):
    # the host (1, 1, 1) fails construction 2's record; the variant is refused first
    for call in (lambda: formula_for("2", 1, 1, 1, l=3, m=2, variant=variant),
                 lambda: admit("2", 1, 1, 1, l=3, m=2, variant=variant),
                 lambda: construction2(variant, 3, 2, 1, 1, 1)):
        with pytest.raises(ConstructionError, match=r"^variant must be 1, 2 or 3"):
            call()
    assert formula_for("2", 7, 6, 5, l=3, m=2, variant=3).hypothesis_satisfied


def test_construction3_edge_counts_and_saturation():
    g = construction3(2, 2, 1, 5, 5, 5)
    assert g.num_edges == 27 == f_con3_upper(5, 5, 5, 2, 2, 1).value
    assert is_saturated(g, (5, 5, 5), PatternSpec(2, 2, 1)).is_saturated
    g2 = construction3(3, 2, 1, 6, 6, 6)
    assert g2.num_edges == 48 == f_con3_upper(6, 6, 6, 3, 2, 1).value


def test_constructions_1_and_2_unbalanced_hosts():
    # the residual windows reduce modulo a different residual size per part
    for variant, l, m, host in [(None, 2, 1, (7, 6, 6)), (None, 3, 2, (8, 7, 6)),
                                (None, 3, 1, (9, 8, 7)), (1, 3, 2, (8, 7, 6)),
                                (1, 3, 3, (7, 6, 5))]:
        if variant is None:
            g = construction1(l, m, *host)
        else:
            g = construction2(variant, l, m, *host)
        assert g.num_edges == f_con1_upper(*host, l, m).value
        assert is_saturated(g, host, PatternSpec(l, m, m)).is_saturated


def test_construction3_unbalanced_host():
    g = construction3(3, 2, 1, 7, 5, 4)
    assert g.num_edges == f_con3_upper(7, 5, 4, 3, 2, 1).value
    assert is_saturated(g, (7, 5, 4), PatternSpec(3, 2, 1)).is_saturated


def test_construction3_rejects_p_not_below_m():
    with pytest.raises(ConstructionError):
        construction3(2, 2, 2, 5, 5, 5)


def test_construction3_residual_degree_caps():
    l, m, p = 4, 2, 1
    g = construction3(l, m, p, 7, 6, 4)
    res = residual_structure_check(g, hub_sets("3", l, m, (7, 6, 4)))
    w = l - m
    for v, counts in res.degrees.items():
        for j, d in counts.items():
            if v.part > j:
                # v sits in the smaller part of the pair (j, v.part):
                # exactly w residual neighbours by construction
                assert d == w
            else:
                assert d <= w


def test_construction4_small_t_matches_construction1_shape():
    g4 = construction4(1, 1, 5)
    g1 = construction1(1, 1, 5, 5, 5)
    assert g4.num_edges == g1.num_edges
    assert iso_equivalent(g4, g1)  # hubs sit at opposite index ranges


def test_construction4_edge_count_and_saturation():
    g = construction4(3, 1, 12)
    assert g.num_edges == 129 == f_con4_upper(12, 3, 1).value
    assert is_saturated(g, (12, 12, 12), PatternSpec(3, 1, 1)).is_saturated


def test_construction4_residual_triangle_free_and_regular():
    g = construction4(3, 1, 12)
    res = residual_structure_check(g, hub_sets("4", 3, 1, (12, 12, 12)))
    assert res.triangle_free
    assert all(d == 2 for counts in res.degrees.values() for d in counts.values())


def test_construction4_boundary_uses_halved_realization():
    # at the smallest guaranteed n the cyclic windows would close a
    # triangle; the halves realization keeps the residual triangle-free
    for (l, m) in [(3, 1), (4, 2)]:
        n = smallest_guaranteed_n("4", l, m)
        g = construction4(l, m, n)
        res = residual_structure_check(g, hub_sets("4", l, m, (n, n, n)))
        assert res.triangle_free
        assert is_saturated(g, (n, n, n), PatternSpec(l, m, m)).is_saturated


def test_construction4_refuses_unrealizable_residual():
    # odd residual size 7 with degree 3 admits neither realization
    with pytest.raises(ConstructionError):
        construction4(4, 1, 9)


def test_construction4_forced_build_judged_by_verifier():
    # forcing the refused regime falls back to plain windows; the residual
    # then contains a triangle, yet the verifier certifies this particular
    # build anyway (triangle-freeness is sufficient, not necessary, here)
    g = construction4(4, 1, 9, force=True)
    res = residual_structure_check(g, hub_sets("4", 4, 1, (9, 9, 9)))
    assert not res.triangle_free
    assert g.num_edges == f_con4_upper(9, 4, 1).value == 114
    assert is_saturated(g, (9, 9, 9), PatternSpec(4, 1, 1)).is_saturated


def test_residual_triple_edges_regimes():
    assert residual_triple_edges(5, 0) == []
    window = residual_triple_edges(5, 2)   # 5 >= 3*2 - 1
    halves = residual_triple_edges(4, 2)   # 4 < 5, but even with half >= 2
    assert len(window) == 3 * 2 * 5 and len(halves) == 3 * 2 * 4
    with pytest.raises(ConstructionError):
        residual_triple_edges(7, 3)


def test_construction5_small_t_equals_construction3():
    assert construction5(2, 2, 1, 5) == construction3(2, 2, 1, 5, 5, 5)


def test_construction5_edge_count_and_saturation():
    g = construction5(4, 2, 1, 8)
    assert g.num_edges == 84 == f_con5_upper(8, 4, 2, 1).value
    assert is_saturated(g, (8, 8, 8), PatternSpec(4, 2, 1)).is_saturated


def test_construction5_residual_regular_per_pair():
    g = construction5(4, 2, 1, 8)
    res = residual_structure_check(g, hub_sets("5", 4, 2, (8, 8, 8)))
    assert all(d == 2 for counts in res.degrees.values() for d in counts.values())
    # triangle-freeness is not part of this construction's contract


@pytest.mark.parametrize("which, l, m, sizes", [
    ("3", 2.0, 2.5, (5, 5, 5)),  # not integers
    ("1", None, 1, (5, 5, 5)),
    ("4", True, 1, (5, 5, 5)),  # a bool is not an integer
    ("1", 1, 3, (5, 5, 5)),  # l < m
    ("2", 1, 0, (5, 5, 5)),  # m < 1
    ("1", 1, 1, (5, 5, 0)),  # sizes not positive
    ("c4", None, None, (5, 5)),
    ("5", 3, 2, (5, 5, 2.0)),
    ("1", 5, 5, (3, 3, 3)),  # hub indices -1..3
    ("3", 5, 5, (3, 3, 3)),  # hub indices 1..4
    ("4", 6, 2, (3, 3, 3)),  # hubs plus triangles 1..4
])
def test_hub_sets_refuse_invalid_parameters(which, l, m, sizes):
    with pytest.raises(ConstructionError):
        hub_sets(which, l, m, sizes)


def test_hub_sets_accept_integers_and_ignore_c4_parameters():
    assert hub_sets("1", np.int64(2), 1, (5, 4, np.int64(3))) == [{5}, {4}, {3}]
    assert hub_sets("c4", None, None, (2, 2, 1)) == [{1}, {1}, {1}]


def test_construction_c4_star_shape():
    g = construction_c4(2, 2, 2)
    assert g.num_edges == 6
    assert is_saturated(g, (2, 2, 2), PatternSpec(2, 2, 0)).is_saturated
    assert construction_c4(3, 2, 2).num_edges == 7
    # spanning: every vertex is covered by one of the three stars
    assert all(g.degree(v) >= 1 for v in g.vertices())


def test_constructions_deterministic():
    specs = [("1", dict(l=2, m=1, n1=5, n2=5, n3=4)),
             ("4", dict(l=3, m=1, n1=7, n2=7, n3=7)),
             ("5", dict(l=4, m=2, p=1, n1=8, n2=8, n3=8))]
    for which, kw in specs:
        a = build(which, kw["n1"], kw["n2"], kw["n3"], l=kw.get("l"),
                  m=kw.get("m"), p=kw.get("p"))
        b = build(which, kw["n1"], kw["n2"], kw["n3"], l=kw.get("l"),
                  m=kw.get("m"), p=kw.get("p"))
        assert a == b and a.edges() == b.edges()


# (which, host, l, m, p, variant, force): every family with force off and on
# (below its threshold where the shape checks allow), construction 2's three
# variants, and construction 4 in both residual regimes, halves at
# (l, m, n) = (3, 1, 6) and windows at (3, 1, 7)
_PINNED_BUILDS = [
    ("1", (8, 7, 6), 2, 1, None, 1, False), ("1", (4, 4, 4), 3, 1, None, 1, True),
    ("2", (7, 6, 5), 3, 2, None, 1, False), ("2", (7, 6, 5), 3, 2, None, 2, False),
    ("2", (7, 6, 5), 3, 2, None, 3, False), ("2", (5, 4, 4), 2, 1, None, 2, True),
    ("3", (7, 6, 5), 3, 2, 1, 1, False), ("3", (4, 3, 2), 3, 2, 1, 1, True),
    ("4", (6, 6, 6), 3, 1, None, 1, False), ("4", (7, 7, 7), 3, 1, None, 1, False),
    ("4", (5, 5, 5), 3, 1, None, 1, True), ("4", (9, 9, 9), 4, 1, None, 1, True),
    ("5", (8, 8, 8), 4, 2, 1, 1, False), ("5", (6, 6, 6), 5, 2, 1, 1, True),
    ("c4", (5, 4, 3), None, None, None, 1, False), ("c4", (1, 1, 1), None, None, None, 1, True),
]


def test_construction_edge_sets_pinned():
    # the serialized edge sets themselves, where the other tests read only
    # counts, saturation and repeat determinism
    digest = hashlib.sha256()
    for which, host, l, m, p, variant, force in _PINNED_BUILDS:
        digest.update(serialize(build(which, *host, l=l, m=m, p=p, variant=variant, force=force)))
    assert digest.hexdigest() == "4651d2bf7fd95f6ef54ef2f47957749e43f518f670231341c36365dd38b3a5c2"


@pytest.mark.parametrize("which, kw, unread", [
    ("1", dict(l=1, m=1, p=3), "p"), ("c4", dict(l=7), "l"), ("c4", dict(l=2, m=2, p=0), "l, m, p"),
    ("4", dict(l=3, m=1, p=1), "p"),
])
def test_build_refuses_parameters_its_family_does_not_read(which, kw, unread):
    # build and formula_for refuse alike, force or not
    message = f"construction {which} does not read {unread}"
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        formula_for(which, 6, 6, 6, **kw)
    for force in (False, True):
        with pytest.raises(ConstructionError, match=f"^{message}$"):
            build(which, 6, 6, 6, **kw, force=force)


def _regime_grid():
    for l in range(1, 6):
        for m in range(1, l + 1):
            yield from [("1", l, m, None), ("4", l, m, None)]
            if m >= 2:
                yield ("2", l, m, None)
            for p in range(1, m):
                yield from [("3", l, m, p), ("5", l, m, p)]
    yield ("c4", None, None, None)


def test_smallest_guaranteed_n_values():
    assert smallest_guaranteed_n("1", 1, 1) == 3
    assert smallest_guaranteed_n("1", 3, 2) == 5
    assert smallest_guaranteed_n("3", 2, 2, 1) == 2
    assert smallest_guaranteed_n("4", 3, 1) == 6
    assert smallest_guaranteed_n("5", 4, 2, 1) == 4
    assert smallest_guaranteed_n("c4") == 2
    # the refusal threshold, the smallest guaranteed n and the formula's
    # hypothesis flag all change at the same host size, for every family
    for which, l, m, p in _regime_grid():
        n = smallest_guaranteed_n(which, l, m, p)
        assert formula_for(which, n, n, n, l=l, m=m, p=p).hypothesis_satisfied
        try:
            build(which, n, n, n, l=l, m=m, p=p)
        except ConstructionError as exc:
            # construction 4 can still lack a triangle-free residual here
            assert which == "4" and "no triangle-free residual" in str(exc)
        if n == 1:
            continue
        below = (n - 1,) * 3
        assert not formula_for(which, *below, l=l, m=m, p=p).hypothesis_satisfied
        with pytest.raises(ConstructionError, match="force=True"):
            build(which, *below, l=l, m=m, p=p)
        if which == "5":
            # one below the threshold the parts cannot hold the hubs, the
            # triangles and an (l-m)-regular residual circulant, so the
            # shape checks refuse it even when forced
            with pytest.raises(ConstructionError, match="cannot"):
                build(which, *below, l=l, m=m, p=p, force=True)
        else:
            assert build(which, *below, l=l, m=m, p=p, force=True).num_edges > 0


def test_formula_for_and_build_refuse_alike():
    # one admission rule: where the family's record refuses the parameters,
    # formula_for and build raise the same class with the same message
    refused = 0
    for which, l, m, p in _regime_grid():
        n = smallest_guaranteed_n(which, l, m, p)
        cases = [((n, n + 1, n), l, m, p)]
        if which != "c4":
            cases += [((n, n, n), l, l + 1, p), ((n, n, n), float(l), m, p), ((n, n, n), l, True, p),
                      ((n, n, n), m - 1, m, p), ((n + 1, n, n), l, m, p)]
        if p is not None:
            cases.append(((n, n, n), l, m, m))
        for host, cl, cm, cp in cases:
            kw = dict(l=cl, m=cm, p=cp) if which != "c4" else {}
            try:
                formula_for(which, *host, **kw)
            except ValueError as exc:
                expected = exc
            else:
                continue
            refused += 1
            assert type(expected) is ConstructionError, (which, host, kw)
            with pytest.raises(ConstructionError) as info:
                build(which, *host, **kw, force=True)
            assert str(info.value) == str(expected), (which, host, kw)
    assert refused > 100


def test_builders_refuse_non_integer_parameters():
    # the family's record refuses the parameter, so no builder reaches a
    # TypeError or builds from a bool, a float or a missing value
    with pytest.raises(ConstructionError, match="parameter l must be an integer"):
        construction1(True, True, 5, 5, 5)
    for which, host, l, m, p, variant, force in _PINNED_BUILDS:
        if force:
            continue
        args = dict(zip(("n1", "n2", "n3"), host), l=l, m=m, p=p, variant=variant)
        slots = [k for k, v in args.items() if v is not None
                 and (k != "variant" or which == "2")]
        for slot in slots:
            for bad in (True, float(args[slot]), None):
                with pytest.raises(ConstructionError):
                    build(which, **dict(args, **{slot: bad}))


def test_numpy_integer_parameters_build_same_bytes():
    for which, host, l, m, p, variant, force in _PINNED_BUILDS:
        as_np = [None if x is None else np.int64(x) for x in (*host, l, m, p, variant)]
        n1, n2, n3, nl, nm, np_, nv = as_np
        assert (serialize(build(which, n1, n2, n3, l=nl, m=nm, p=np_, variant=nv, force=force))
                == serialize(build(which, *host, l=l, m=m, p=p, variant=variant, force=force)))


def test_builders_refuse_where_record_hypothesis_fails():
    # on unbalanced hosts around each threshold the builder admits exactly
    # the hosts where the family's record holds its hypothesis
    for which, l, m, p in _regime_grid():
        n = smallest_guaranteed_n(which, l, m, p)
        for n3 in range(max(1, n - 1), n + 2):
            host = (n3 + 2, n3 + 1, n3)
            try:
                rec = formula_for(which, *host, l=l, m=m, p=p)
            except ConstructionError:
                # constructions 4 and 5 need a balanced host
                assert which in ("4", "5")
                with pytest.raises(ConstructionError, match="balanced"):
                    build(which, *host, l=l, m=m, p=p)
                continue
            if rec.hypothesis_satisfied:
                assert build(which, *host, l=l, m=m, p=p).num_edges == rec.value
            else:
                with pytest.raises(ConstructionError, match=f"{rec.name} .*force=True"):
                    build(which, *host, l=l, m=m, p=p)
