"""Search: exact vs exhaustive oracle, witnesses, greedy soundness, budgets."""

import json
import random

import numpy as np
import pytest

from trisat import (PatternSpec, SearchError, construction1, construction_c4, enumerate_optima,
                    f_con1_upper, is_saturated, iso_equivalent, new_host,
                    sat_exact, sat_exhaustive, sat_greedy)
from trisat.graphs import host_edges
from trisat.search import pattern_edge_masks, _mask_to_graph
from trisat.containment import contains


def test_c4_proposition_values():
    pat = PatternSpec(2, 2, 0)
    r = sat_exact((2, 2, 2), pat, workers=1)
    assert r.value == 6
    assert iso_equivalent(r.witnesses[0], construction_c4(2, 2, 2))
    assert sat_exact((3, 2, 2), pat, workers=1).value == 7


def test_c4_proposition_beyond_the_small_grid():
    # n1 + n2 + n3 keeps matching on bigger hosts (the 40-edge (4,4,3)
    # instance also gives 11, at ~17M nodes; too slow for the suite)
    pat = PatternSpec(2, 2, 0)
    assert sat_exact((4, 3, 2), pat, workers=1, max_host_edges=None).value == 9
    assert sat_exact((3, 3, 3), pat, workers=1, max_host_edges=None).value == 9


def test_exhaustive_tiny_triangle():
    # any two of the three host edges form a maximal triangle-free subgraph
    r = sat_exhaustive((1, 1, 1), PatternSpec(1, 1, 1))
    assert r.value == 2
    assert len(r.witnesses) == 3
    for w in r.witnesses:
        assert is_saturated(w, (1, 1, 1), PatternSpec(1, 1, 1)).is_saturated


def test_exact_matches_exhaustive_sample():
    for host, ps in [((2, 2, 1), (1, 1, 1)), ((2, 2, 2), (1, 1, 1)),
                     ((2, 2, 2), (2, 2, 0)), ((2, 1, 1), (2, 2, 1))]:
        pat = PatternSpec(*ps)
        assert sat_exact(host, pat, workers=1).value == sat_exhaustive(host, pat).value


def test_exact_witness_is_certified():
    for host, ps in [((2, 2, 2), (2, 2, 0)), ((3, 2, 2), (2, 1, 1))]:
        pat = PatternSpec(*ps)
        r = sat_exact(host, pat, workers=1)
        assert r.value == r.witnesses[0].num_edges
        assert is_saturated(r.witnesses[0], host, pat).is_saturated


def test_minimality_certificate():
    # no subgraph with value-1 edges is saturated (direct rescan)
    host_sizes, pat = (2, 2, 1), PatternSpec(1, 1, 1)
    r = sat_exhaustive(host_sizes, pat)
    edges = host_edges(host_sizes)
    for mask in range(1 << len(edges)):
        if bin(mask).count("1") == r.value - 1:
            g = _mask_to_graph(host_sizes, edges, mask)
            assert not is_saturated(g, host_sizes, pat).is_saturated


def test_pattern_edge_masks_agree_with_containment():
    # a graph contains the pattern iff its edge set covers some embedding mask
    rnd = random.Random(13)
    for host_sizes, ps in [((2, 2, 2), (1, 1, 1)), ((3, 2, 2), (2, 2, 0)),
                           ((2, 2, 2), (2, 2, 1))]:
        pat = PatternSpec(*ps)
        edges = host_edges(host_sizes)
        embeds = pattern_edge_masks(host_sizes, pat)
        for _ in range(60):
            mask = rnd.getrandbits(len(edges))
            g = _mask_to_graph(host_sizes, edges, mask)
            covered = any(mask & em == em for em in embeds)
            assert covered == (contains(g, pat) is not None)


def test_enumerate_optima_dedup_and_star():
    r = enumerate_optima((2, 2, 2), PatternSpec(2, 2, 0), workers=1)
    assert r.value == 6
    assert any(iso_equivalent(w, construction_c4(2, 2, 2)) for w in r.witnesses)
    # pairwise non-isomorphic after dedup
    for i in range(len(r.witnesses)):
        for j in range(i + 1, len(r.witnesses)):
            assert not iso_equivalent(r.witnesses[i], r.witnesses[j])
    for w in r.witnesses:
        assert is_saturated(w, (2, 2, 2), PatternSpec(2, 2, 0)).is_saturated


def test_enumerate_deterministic_across_worker_counts():
    pat = PatternSpec(2, 2, 0)
    results = [enumerate_optima((2, 2, 2), pat, workers=k) for k in (1, 3)]
    baseline = [sorted((u.part, u.index, v.part, v.index) for u, v in w.edges())
                for w in results[0].witnesses]
    for r in results[1:]:
        assert r.value == results[0].value
        assert baseline == [sorted((u.part, u.index, v.part, v.index)
                                   for u, v in w.edges()) for w in r.witnesses]


def test_exact_deterministic_across_worker_counts():
    pat = PatternSpec(1, 1, 1)
    r1 = sat_exact((2, 2, 2), pat, workers=1)
    r2 = sat_exact((2, 2, 2), pat, workers=4)
    assert r1.value == r2.value
    assert r1.witnesses[0] == r2.witnesses[0]


@pytest.mark.parametrize("fn, host, ps, nodes_seq, nodes_split", [
    (sat_exact, (2, 2, 2), (1, 1, 1), 518, 549),
    (sat_exact, (2, 2, 2), (2, 2, 0), 541, 649),
    (sat_exact, (3, 2, 2), (1, 1, 1), 4052, 4349),
    (sat_exact, (3, 2, 2), (2, 2, 0), 3198, 3908),
    (enumerate_optima, (2, 2, 2), (1, 1, 1), 581, 592),
    (enumerate_optima, (2, 2, 2), (2, 2, 0), 755, 783),
    (enumerate_optima, (3, 2, 2), (1, 1, 1), 4924, 5062),
    (enumerate_optima, (3, 2, 2), (2, 2, 0), 4808, 5207),
])
def test_node_counts_pinned(fn, host, ps, nodes_seq, nodes_split):
    # node counts do not depend on the machine, only on the search and on
    # the split: one subtree at workers=1, four fixed subtrees at workers=2
    for workers, nodes in ((1, nodes_seq), (2, nodes_split)):
        r = fn(host, PatternSpec(*ps), workers=workers)
        assert (r.nodes_explored, r.status) == (nodes, "complete")


def test_node_budget_searches_one_tree():
    # a budget is spent by one search even when workers are available
    r = sat_exact((3, 2, 2), PatternSpec(1, 1, 1), node_budget=50, workers=2)
    assert (r.nodes_explored, r.status, r.value) == (51, "budget_exhausted", 12)


def test_budget_exhaustion_is_inconclusive():
    r = sat_exact((2, 2, 2), PatternSpec(1, 1, 1), node_budget=10)
    assert r.status == "budget_exhausted"
    assert r.nodes_explored <= 11


def test_guards():
    with pytest.raises(SearchError):
        sat_exhaustive((3, 3, 2), PatternSpec(1, 1, 1))  # 21 host edges
    with pytest.raises(SearchError):
        sat_exact((5, 5, 5), PatternSpec(1, 1, 1))  # above default 40-edge guard
    with pytest.raises(SearchError):
        sat_greedy((2, 2, 2), PatternSpec(1, 1, 1), trials=0, seed=1)
    with pytest.raises(SearchError):
        sat_exact((2, 3, 2), PatternSpec(1, 1, 1))  # host ordering


@pytest.mark.parametrize("sizes", [(3.7, 3, 3), ("3", 3, 3), (True, 1, 1), (2, 2, 1.0),
                                   (2, 2)])
@pytest.mark.parametrize("fn", [sat_exact, enumerate_optima, sat_exhaustive,
                                lambda s, pat: sat_greedy(s, pat, 2, 1)])
def test_host_sizes_reject_non_integers(fn, sizes):
    with pytest.raises(SearchError):
        fn(sizes, PatternSpec(1, 1, 1))


@pytest.mark.parametrize("kwargs", [
    {"node_budget": "5"}, {"node_budget": 2.0}, {"node_budget": True}, {"node_budget": 0},
    {"node_budget": -1}, {"workers": "2"}, {"workers": True}, {"workers": 0},
    {"workers": -2}, {"max_host_edges": "40"}, {"max_host_edges": 40.0}])
@pytest.mark.parametrize("fn", [sat_exact, enumerate_optima])
def test_search_counts_reject_non_integers(fn, kwargs):
    with pytest.raises(SearchError):
        fn((2, 1, 1), PatternSpec(1, 1, 1), **kwargs)


@pytest.mark.parametrize("trials, seed", [(2.5, 1), (2.0, 1), ("2", 1), (True, 1),
                                          (2, 1.0), (2, "1"), (2, False), (2, None)])
def test_greedy_trials_and_seed_reject_non_integers(trials, seed):
    with pytest.raises(SearchError):
        sat_greedy((2, 2, 2), PatternSpec(1, 1, 1), trials, seed)


def test_numpy_integer_arguments_are_integers():
    pat = PatternSpec(1, 1, 1)
    assert (sat_exact((np.int64(2), 2, 2), pat, workers=1).to_json_obj()
            == sat_exact((2, 2, 2), pat, workers=1).to_json_obj())
    assert (sat_greedy((2, 2, 2), pat, np.int64(3), np.uint32(5)).trial_values
            == sat_greedy((2, 2, 2), pat, 3, 5).trial_values)
    assert (sat_exact((2, 2, 2), pat, np.int64(50), workers=np.int64(1),
                      max_host_edges=np.int64(12)).to_json_obj()
            == sat_exact((2, 2, 2), pat, 50, workers=1, max_host_edges=12).to_json_obj())
    # numpy class sizes are stored as ints, so the report serializes
    report = is_saturated(construction1(1, 1, 4, 4, 4), (4, 4, 4),
                          PatternSpec(np.int64(1), 1, 1)).to_json_obj()
    assert json.loads(json.dumps(report)) == report and report["pattern"] == [1, 1, 1]


def test_too_deep_search_raises_search_error():
    # 1,200 host edges: the edge-by-edge recursion would pass Python's limit
    with pytest.raises(SearchError, match="recursion limit"):
        sat_exact((20, 20, 20), PatternSpec(1, 1, 1), max_host_edges=None, node_budget=5000)


def test_guard_override():
    r = sat_exact((3, 3, 2), PatternSpec(2, 2, 1), workers=1, max_host_edges=21)
    assert r.value is not None


def test_greedy_deterministic_and_sound():
    pat = PatternSpec(1, 1, 1)
    r1 = sat_greedy((5, 5, 5), pat, trials=100, seed=9)
    r2 = sat_greedy((5, 5, 5), pat, trials=100, seed=9)
    assert r1.value == r2.value and r1.trial_values == r2.trial_values
    assert r1.value >= 1
    assert is_saturated(r1.witnesses[0], (5, 5, 5), pat).is_saturated
    # relation to the construction value is recorded, not asserted equal
    assert isinstance(f_con1_upper(5, 5, 5, 1, 1).value, int)


def test_greedy_matches_exact_on_star_host():
    r = sat_greedy((2, 2, 2), PatternSpec(2, 2, 0), trials=50, seed=0)
    assert r.value == 6


def test_exact_at_most_construction_where_host_fits():
    # upper-bound half of the sandwich; at these tiny hosts the
    # constructions happen to be exactly optimal
    from trisat import construction1, construction3
    star = construction_c4(2, 2, 2)
    assert sat_exact((2, 2, 2), PatternSpec(2, 2, 0), workers=1).value == star.num_edges
    hub = construction1(1, 1, 3, 3, 3)
    assert sat_exact((3, 3, 3), PatternSpec(1, 1, 1), workers=1,
                     max_host_edges=None).value == hub.num_edges == 12
    small = construction3(2, 2, 1, 2, 2, 2)
    assert sat_exact((2, 2, 2), PatternSpec(2, 2, 1), workers=1).value == small.num_edges == 9


def test_greedy_at_least_exact():
    rnd = random.Random(3)
    for host, ps in [((2, 2, 2), (1, 1, 1)), ((2, 2, 2), (2, 2, 0)),
                     ((2, 2, 1), (2, 2, 1))]:
        pat = PatternSpec(*ps)
        exact = sat_exact(host, pat, workers=1).value
        for seed in (rnd.randint(0, 10**6) for _ in range(5)):
            assert sat_greedy(host, pat, trials=3, seed=seed).value >= exact


def test_pattern_that_cannot_fit_forces_complete_host():
    # K(2,2,1) cannot embed in the (1,1,1) host, so the only maximal
    # pattern-free subgraph is the host itself
    r = sat_exact((1, 1, 1), PatternSpec(2, 2, 1), workers=1)
    assert r.value == 3
    assert r.witnesses[0] == new_host(1, 1, 1)


def test_enumerate_triangle_witnesses_all_certified():
    r = enumerate_optima((2, 2, 2), PatternSpec(1, 1, 1), workers=1)
    assert r.value == 6 and len(r.witnesses) >= 1
    for w in r.witnesses:
        assert is_saturated(w, (2, 2, 2), PatternSpec(1, 1, 1)).is_saturated


def test_trisat_threads_env(monkeypatch):
    from trisat.search import resolve_workers
    monkeypatch.setenv("TRISAT_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(1) == 1  # explicit argument wins
    for bad in ("zebra", "0", "-1", "1_0"):
        monkeypatch.setenv("TRISAT_THREADS", bad)
        with pytest.raises(SearchError):
            resolve_workers()


def test_triangle_value_on_balanced_host_matches_reference_formula():
    # the multipartite triangle formula evaluated at n=3 agrees with the
    # exact search even though its stated hypothesis needs n >= 100
    from trisat import f_fjpw
    r = sat_exact((3, 3, 3), PatternSpec(1, 1, 1), workers=1)
    assert r.value == 12 == f_fjpw(3, 3).value


def test_uniqueness_probe_triangle_on_3x3x3():
    # desk-scale probe of the optimum landscape far below the proven size
    # threshold: the hub construction appears among the optima and the
    # closed-form value still matches, but it is not the unique class here
    from trisat import construction1, f_sat_lll
    r = enumerate_optima((3, 3, 3), PatternSpec(1, 1, 1), workers=1)
    assert r.value == 12 == f_sat_lll(3, 3, 3, 1).value
    hub = construction1(1, 1, 3, 3, 3)
    assert any(iso_equivalent(w, hub) for w in r.witnesses)
    assert len(r.witnesses) == 2  # observed optimum classes at this size
    for w in r.witnesses:
        assert is_saturated(w, (3, 3, 3), PatternSpec(1, 1, 1)).is_saturated


# every host with at most 16 edges, the sat_exhaustive guard
_SMALL_HOSTS = [(n, 1, 1) for n in range(1, 8)] + [
    (2, 2, 1), (3, 2, 1), (4, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 1)]


def test_exact_matches_exhaustive_on_every_small_host():
    # values, the sat_exact witness and the optima's isomorphism classes
    # against the scan of all subgraphs, at both worker counts
    for host in _SMALL_HOSTS:
        for ps in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 0), (1, 1, 0)]:
            pat = PatternSpec(*ps)
            oracle = sat_exhaustive(host, pat)
            winners = set(oracle.witnesses)
            classes: list = []
            for w in oracle.witnesses:
                if not any(iso_equivalent(w, c) for c in classes):
                    classes.append(w)
            for workers in (1, 2):
                case = (host, ps, workers)
                r = sat_exact(host, pat, workers=workers)
                assert (r.value, r.status) == (oracle.value, "complete"), case
                assert r.witnesses[0] in winners, case
                opt = enumerate_optima(host, pat, workers=workers)
                assert (opt.value, opt.status) == (oracle.value, "complete"), case
                assert all(w in winners for w in opt.witnesses), case
                # each optimum names a distinct class, and every class is named
                named = sorted(next((k for k, c in enumerate(classes) if iso_equivalent(w, c)),
                                    -1) for w in opt.witnesses)
                assert named == list(range(len(classes))), case
