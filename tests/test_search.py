"""Search: exact vs exhaustive oracle, witnesses, greedy soundness, budgets."""

import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from trisat import (PatternSpec, SearchError, construction1, construction_c4, enumerate_optima,
                    f_con1_upper, f_con3_upper, f_con4_upper, f_con5_upper, f_sat_lll, f_sat_lll1, is_saturated, iso_equivalent, new_host,
                    sat_exact, sat_exhaustive, sat_greedy)
from trisat import search
from trisat.graphs import host_edge_ints, host_edges, iter_bits
from trisat.search import pattern_edge_masks, swap_pairs, _mask_to_graph
from trisat.containment import contains


def test_c4_proposition_values():
    pat = PatternSpec(2, 2, 0)
    r = sat_exact((2, 2, 2), pat)
    assert r.value == 6
    assert iso_equivalent(r.witnesses[0], construction_c4(2, 2, 2))
    assert sat_exact((3, 2, 2), pat).value == 7


def test_c4_proposition_beyond_the_small_grid():
    # n1 + n2 + n3 keeps matching on bigger hosts, up to the 40-edge guard
    pat = PatternSpec(2, 2, 0)
    assert sat_exact((4, 3, 2), pat, max_host_edges=None).value == 9
    assert sat_exact((3, 3, 3), pat, max_host_edges=None).value == 9
    assert sat_exact((4, 4, 3), pat).value == 11


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
        assert sat_exact(host, pat).value == sat_exhaustive(host, pat).value


def test_exact_witness_is_certified():
    for host, ps in [((2, 2, 2), (2, 2, 0)), ((3, 2, 2), (2, 1, 1))]:
        pat = PatternSpec(*ps)
        r = sat_exact(host, pat)
        assert r.value == r.witnesses[0].num_edges
        assert is_saturated(r.witnesses[0], host, pat).is_saturated


def test_minimality_certificate():
    # no subgraph with value-1 edges is saturated (direct rescan)
    host_sizes, pat = (2, 2, 1), PatternSpec(1, 1, 1)
    r = sat_exhaustive(host_sizes, pat)
    edges = host_edge_ints(host_sizes)
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
        edges = host_edge_ints(host_sizes)
        embeds = pattern_edge_masks(host_sizes, pat)
        for _ in range(60):
            mask = rnd.getrandbits(len(edges))
            g = _mask_to_graph(host_sizes, edges, mask)
            covered = any(mask & em == em for em in embeds)
            assert covered == (contains(g, pat) is not None)


def test_enumerate_optima_dedup_and_star():
    r = enumerate_optima((2, 2, 2), PatternSpec(2, 2, 0))
    assert r.value == 6
    assert any(iso_equivalent(w, construction_c4(2, 2, 2)) for w in r.witnesses)
    # pairwise non-isomorphic after dedup
    for i in range(len(r.witnesses)):
        for j in range(i + 1, len(r.witnesses)):
            assert not iso_equivalent(r.witnesses[i], r.witnesses[j])
    for w in r.witnesses:
        assert is_saturated(w, (2, 2, 2), PatternSpec(2, 2, 0)).is_saturated


def test_enumerate_deterministic_across_worker_counts():
    # exact search has one worker count, 1; two calls give the same bytes:
    # value, status, node count and witnesses in the same order
    assert search.resolve_workers() == 1
    pat = PatternSpec(2, 2, 0)
    results = [enumerate_optima((2, 2, 2), pat) for _ in range(2)]
    baseline = [sorted((u.part, u.index, v.part, v.index) for u, v in w.edges())
                for w in results[0].witnesses]
    for r in results[1:]:
        assert r.value == results[0].value
        assert baseline == [sorted((u.part, u.index, v.part, v.index)
                                   for u, v in w.edges()) for w in r.witnesses]
        assert r.to_json_obj() == results[0].to_json_obj()


def test_exact_deterministic_across_worker_counts():
    # exact search has one worker count, 1; two calls give the same bytes
    assert search.resolve_workers() == 1
    pat = PatternSpec(1, 1, 1)
    r1 = sat_exact((2, 2, 2), pat)
    r2 = sat_exact((2, 2, 2), pat)
    assert r1.value == r2.value
    assert r1.witnesses[0] == r2.witnesses[0]
    assert r1.to_json_obj() == r2.to_json_obj()


_PINNED_NODES = [
    (sat_exact, (2, 2, 2), (1, 1, 1), 169),
    (sat_exact, (2, 2, 2), (2, 2, 0), 136),
    (sat_exact, (3, 2, 2), (1, 1, 1), 579),
    (sat_exact, (3, 2, 2), (2, 2, 0), 356),
    (enumerate_optima, (2, 2, 2), (1, 1, 1), 173),
    (enumerate_optima, (2, 2, 2), (2, 2, 0), 169),
    (enumerate_optima, (3, 2, 2), (1, 1, 1), 629),
    (enumerate_optima, (3, 2, 2), (2, 2, 0), 453),
]


# the ids leave the counts out, so a change to the search re-pins the
# literals without renaming the cases
@pytest.mark.parametrize("fn, host, ps, nodes", _PINNED_NODES,
                         ids=[f"{fn.__name__}-{''.join(map(str, host))}-{''.join(map(str, ps))}"
                              for fn, host, ps, *_ in _PINNED_NODES])
def test_node_counts_pinned(fn, host, ps, nodes):
    # node counts do not depend on the machine, only on the search
    r = fn(host, PatternSpec(*ps))
    assert (r.nodes_explored, r.status) == (nodes, "complete")


def test_node_budget_searches_one_tree():
    # the budget caps the nodes of the one search tree
    r = sat_exact((3, 2, 2), PatternSpec(1, 1, 1), node_budget=50)
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


def test_edge_guards_run_before_any_host_walk(monkeypatch):
    # the guards read the host's edge count, so refusing a large host lists none of its edges
    def no_walk(sizes):
        raise AssertionError(f"host {sizes} walked before its guard")

    monkeypatch.setattr(search, "host_edge_ints", no_walk)
    pat = PatternSpec(1, 1, 1)
    for fn in (sat_exact, enumerate_optima):
        with pytest.raises(SearchError, match=r"^host has 270000 edges, above the guard 40; "):
            fn((300, 300, 300), pat)
    with pytest.raises(SearchError, match=r"^sat_exhaustive guard: host has 75 > 16 edges$"):
        sat_exhaustive((5, 5, 5), pat)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_greedy_refuses_seeds_outside_the_generator_range(seed):
    # the generator reads a seed modulo 2^64, so -1 would alias 2^64 - 1 and 2^64 alias 0
    with pytest.raises(SearchError, match=r"^seed must lie in 0\.\.2\^64 - 1, got "):
        sat_greedy((2, 2, 2), PatternSpec(1, 1, 1), 2, seed)


def test_greedy_accepts_both_ends_of_the_seed_range():
    for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1)):
        r = sat_greedy((2, 2, 2), PatternSpec(1, 1, 1), 2, seed)
        assert r.seed == int(seed) and r.value >= 6


@pytest.mark.parametrize("sizes", [(3.7, 3, 3), ("3", 3, 3), (True, 1, 1), (2, 2, 1.0),
                                   (2, 2)])
@pytest.mark.parametrize("fn", [sat_exact, enumerate_optima, sat_exhaustive,
                                lambda s, pat: sat_greedy(s, pat, 2, 1)])
def test_host_sizes_reject_non_integers(fn, sizes):
    with pytest.raises(SearchError):
        fn(sizes, PatternSpec(1, 1, 1))


@pytest.mark.parametrize("kwargs", [
    {"node_budget": "5"}, {"node_budget": 2.0}, {"node_budget": True}, {"node_budget": 0},
    {"node_budget": -1}, {"max_host_edges": "40"}, {"max_host_edges": 40.0},
    {"max_host_edges": True}, {"max_host_edges": -1}, {"max_host_edges": 12.5},
    {"max_host_edges": np.float64(40)}])
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
    assert (sat_exact((np.int64(2), 2, 2), pat).to_json_obj()
            == sat_exact((2, 2, 2), pat).to_json_obj())
    assert (sat_greedy((2, 2, 2), pat, np.int64(3), np.uint32(5)).trial_values
            == sat_greedy((2, 2, 2), pat, 3, 5).trial_values)
    assert (sat_exact((2, 2, 2), pat, np.int64(50), max_host_edges=np.int64(12)).to_json_obj()
            == sat_exact((2, 2, 2), pat, 50, max_host_edges=12).to_json_obj())
    # numpy class sizes are stored as ints, so the report serializes
    report = is_saturated(construction1(1, 1, 4, 4, 4), (4, 4, 4),
                          PatternSpec(np.int64(1), 1, 1)).to_json_obj()
    assert json.loads(json.dumps(report)) == report and report["pattern"] == [1, 1, 1]


def test_too_deep_search_raises_search_error():
    # 1,200 host edges: the edge-by-edge recursion would pass Python's limit
    with pytest.raises(SearchError, match="recursion limit"):
        sat_exact((20, 20, 20), PatternSpec(1, 1, 1), max_host_edges=None, node_budget=5000)


def test_guard_override():
    r = sat_exact((3, 3, 2), PatternSpec(2, 2, 1), max_host_edges=21)
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
    assert sat_exact((2, 2, 2), PatternSpec(2, 2, 0)).value == star.num_edges
    hub = construction1(1, 1, 3, 3, 3)
    assert sat_exact((3, 3, 3), PatternSpec(1, 1, 1),
                     max_host_edges=None).value == hub.num_edges == 12
    small = construction3(2, 2, 1, 2, 2, 2)
    assert sat_exact((2, 2, 2), PatternSpec(2, 2, 1)).value == small.num_edges == 9


def test_greedy_at_least_exact():
    rnd = random.Random(3)
    for host, ps in [((2, 2, 2), (1, 1, 1)), ((2, 2, 2), (2, 2, 0)),
                     ((2, 2, 1), (2, 2, 1))]:
        pat = PatternSpec(*ps)
        exact = sat_exact(host, pat).value
        for seed in (rnd.randint(0, 10**6) for _ in range(5)):
            assert sat_greedy(host, pat, trials=3, seed=seed).value >= exact


def test_pattern_that_cannot_fit_forces_complete_host():
    # K(2,2,1) cannot embed in the (1,1,1) host, so the only maximal
    # pattern-free subgraph is the host itself
    r = sat_exact((1, 1, 1), PatternSpec(2, 2, 1))
    assert r.value == 3
    assert r.witnesses[0] == new_host(1, 1, 1)


def test_enumerate_triangle_witnesses_all_certified():
    r = enumerate_optima((2, 2, 2), PatternSpec(1, 1, 1))
    assert r.value == 6 and len(r.witnesses) >= 1
    for w in r.witnesses:
        assert is_saturated(w, (2, 2, 2), PatternSpec(1, 1, 1)).is_saturated


def test_import_does_not_load_the_process_pool():
    # exact search runs in one process, so nothing imports the pool; the
    # package has no runtime dependency, so nothing imports numpy either
    src = os.path.dirname(os.path.dirname(search.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, trisat; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures.process', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_triangle_value_on_balanced_host_matches_reference_formula():
    # the multipartite triangle formula evaluated at n=3 agrees with the
    # exact search even though its stated hypothesis needs n >= 100
    from trisat import f_fjpw
    r = sat_exact((3, 3, 3), PatternSpec(1, 1, 1))
    assert r.value == 12 == f_fjpw(3, 3).value


def test_uniqueness_probe_triangle_on_3x3x3():
    # desk-scale probe of the optimum landscape far below the proven size
    # threshold: the hub construction appears among the optima and the
    # closed-form value still matches, but it is not the unique class here
    from trisat import construction1, f_sat_lll
    r = enumerate_optima((3, 3, 3), PatternSpec(1, 1, 1))
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
    # against the scan of all subgraphs
    for host in _SMALL_HOSTS:
        for ps in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 0), (1, 1, 0)]:
            pat = PatternSpec(*ps)
            oracle = sat_exhaustive(host, pat)
            winners = set(oracle.witnesses)
            classes: list = []
            for w in oracle.witnesses:
                if not any(iso_equivalent(w, c) for c in classes):
                    classes.append(w)
            case = (host, ps)
            r = sat_exact(host, pat)
            assert (r.value, r.status) == (oracle.value, "complete"), case
            assert r.witnesses[0] in winners, case
            opt = enumerate_optima(host, pat)
            assert (opt.value, opt.status) == (oracle.value, "complete"), case
            assert all(w in winners for w in opt.witnesses), case
            # each optimum names a distinct class, and every class is named
            named = sorted(next((k for k, c in enumerate(classes) if iso_equivalent(w, c)),
                                -1) for w in opt.witnesses)
            assert named == list(range(len(classes))), case


_ORACLE_PATTERNS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 0), (1, 1, 0), (3, 1, 1), (2, 2, 2),
                    (3, 2, 1), (3, 1, 0), (3, 2, 0), (2, 1, 0)]


def test_exhaustive_outputs_pinned_on_every_small_host():
    # values, node counts and every witness in scan order, pinned by digest
    # over the canonical JSON of all 143 results
    objs = [sat_exhaustive(host, PatternSpec(*ps)).to_json_obj()
            for host in _SMALL_HOSTS for ps in _ORACLE_PATTERNS]
    blob = json.dumps(objs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "ab28819a2e72efd521e8c8a420c3c4425141c1b2aed019254e1c1e75375c2555")


def test_upper_claims_hold_on_every_small_host():
    # a sat_lll / sat_lll1 record marked "upper" claims sat <= value; only
    # hosts where the attaining construction is saturated may carry it
    checked = []
    for host in _SMALL_HOSTS:
        for l in (1, 2, 3):
            records = [(f_sat_lll(*host, l), (l, l, l))]
            if l >= 2:
                records.append((f_sat_lll1(*host, l), (l, l, l - 1)))
            for rec, ps in records:
                if rec.kind == "upper":
                    assert sat_exact(host, PatternSpec(*ps)).value <= rec.value, (host, ps)
                    checked.append((host, ps))
    assert checked == [((2, 2, 2), (2, 2, 1)), ((3, 2, 2), (2, 2, 1))]



def test_construction_upper_claims_hold_on_every_small_host():
    # a construction's edge count is an upper bound on sat only where the
    # construction is saturated; below its threshold (f_con1_upper(1,1,1,1,1)
    # is 0, against sat 2) the record must not claim "upper"; (3, 3, 3) is
    # the smallest host where constructions 1 and 4 are in regime
    checked = []
    for host in _SMALL_HOSTS + [(3, 3, 3)]:
        balanced = host[0] == host[1] == host[2]
        for l in (1, 2, 3):
            for m in range(1, l + 1):
                records = [(f_con1_upper(*host, l, m), (l, m, m))]
                if balanced:
                    records.append((f_con4_upper(host[0], l, m), (l, m, m)))
                for p in range(1, m):
                    records.append((f_con3_upper(*host, l, m, p), (l, m, p)))
                    if balanced:
                        records.append((f_con5_upper(host[0], l, m, p), (l, m, p)))
                for rec, ps in records:
                    if rec.kind == "upper":
                        assert sat_exact(host, PatternSpec(*ps)).value <= rec.value, (rec, host)
                        checked.append((rec.name, host, ps))
    assert checked == [
        ("con5_upper", (1, 1, 1), (2, 2, 1)), ("con3_upper", (2, 2, 2), (2, 2, 1)),
        ("con5_upper", (2, 2, 2), (2, 2, 1)), ("con5_upper", (2, 2, 2), (3, 2, 1)),
        ("con5_upper", (2, 2, 2), (3, 3, 1)), ("con5_upper", (2, 2, 2), (3, 3, 2)),
        ("con3_upper", (3, 2, 2), (2, 2, 1)), ("con1_upper", (3, 3, 3), (1, 1, 1)),
        ("con4_upper", (3, 3, 3), (1, 1, 1)), ("con3_upper", (3, 3, 3), (2, 2, 1)),
        ("con5_upper", (3, 3, 3), (2, 2, 1)), ("con3_upper", (3, 3, 3), (3, 2, 1)),
        ("con5_upper", (3, 3, 3), (3, 2, 1)), ("con3_upper", (3, 3, 3), (3, 3, 1)),
        ("con5_upper", (3, 3, 3), (3, 3, 1)), ("con3_upper", (3, 3, 3), (3, 3, 2)),
        ("con5_upper", (3, 3, 3), (3, 3, 2))]

def _edge_codes(g) -> str:
    # "1123" is the edge v_1^1 ~ v_2^3; all indices here are single digits
    return " ".join(f"{u.part}{u.index}{v.part}{v.index}" for u, v in g.edges())


def test_witnesses_are_the_lex_max_optima():
    # symmetry breaking keeps the lex-max member of every orbit, which the
    # include-first search reaches first, so the witnesses are those of the
    # search without the predicates (these literals); a sound lex-min
    # variant passes every value test and fails this one
    r = sat_exact((3, 3, 3), PatternSpec(2, 2, 1))
    assert _edge_codes(r.witnesses[0]) == (
        "1121 1122 1123 1221 1321 1131 1132 1133 1231 1331 2131 2132 2133 2231 2331")
    classes = [
        "1121 1122 1223 1323 1423 1131 1232 1332 1432 2132 2232 2331",
        "1121 1122 1223 1323 1131 1232 1332 1431 1432 2132 2232 2331",
        "1121 1122 1223 1131 1232 1331 1332 1431 1432 2132 2232 2331",
        "1121 1221 1321 1422 1131 1231 1331 1432 2132 2231 2331 2332",
        "1121 1221 1322 1422 1131 1231 1332 1432 2132 2231 2331 2332",
        "1121 1221 1322 1131 1231 1332 1431 1432 2132 2231 2331 2332",
        "1121 1222 1131 1232 1331 1332 1431 1432 2132 2231 2331 2332",
    ]
    opt = enumerate_optima((4, 3, 2), PatternSpec(1, 1, 1))
    assert [_edge_codes(w) for w in opt.witnesses] == classes


def _ilp_sat(sizes, pat) -> int:
    """sat(host, pat) from a 0/1 program, independent of the branch engine:
    x_e per host edge, y_(E,f) per embedding E and edge f of E.  No embedding
    is fully included, and every edge f is included or completed by some
    embedding E through f whose other edges are included (y_(E,f) <= x_e)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    n = len(host_edges(sizes))
    embeds = [list(iter_bits(m)) for m in pattern_edge_masks(sizes, pat)]
    ys = [(k, f) for k, emb in enumerate(embeds) for f in emb]
    rows, lo, hi = [], [], []

    def row(coef, a, b):
        r = np.zeros(n + len(ys))
        for j, c in coef:
            r[j] = c
        rows.append(r)
        lo.append(a)
        hi.append(b)

    for emb in embeds:
        row([(e - 1, 1) for e in emb], -np.inf, len(emb) - 1)
    for f in range(1, n + 1):
        row([(f - 1, 1)] + [(n + j, 1) for j, (_, g) in enumerate(ys) if g == f], 1, np.inf)
    for j, (k, f) in enumerate(ys):
        for e in embeds[k]:
            if e != f:
                row([(n + j, 1), (e - 1, -1)], -np.inf, 0)
    cost = np.r_[np.ones(n), np.zeros(len(ys))]
    res = milp(cost, constraints=LinearConstraint(np.array(rows), lo, hi),
               integrality=np.ones(len(cost)), bounds=Bounds(0, 1))
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("host, value", [((3, 3, 3), 12), ((4, 3, 2), 12), ((4, 4, 3), 16)])
def test_triangle_values_match_ilp_oracle(host, value):
    # above the 16 edges of sat_exhaustive, an integer program is the oracle
    pytest.importorskip("scipy")
    pat = PatternSpec(1, 1, 1)
    assert _ilp_sat(host, pat) == value == sat_exact(host, pat).value


@pytest.mark.parametrize("ps, value", [((1, 1, 1), 16), ((2, 2, 1), 19)])
def test_exact_values_on_the_40_edge_host(ps, value):
    # the largest host under the default guard.  The integer program
    # confirms K(1,1,1) above; it did not settle K(2,2,1) within 120 s, so
    # that value rests on the branch engine alone
    pat = PatternSpec(*ps)
    r = sat_exact((4, 4, 3), pat)
    assert (r.value, r.status) == (value, "complete")
    # the node counts of the ROADMAP baseline
    assert r.nodes_explored == {(1, 1, 1): 698259, (2, 2, 1): 598740}[ps]
    assert r.witnesses[0].num_edges == value
    assert is_saturated(r.witnesses[0], (4, 4, 3), pat).is_saturated


def test_greedy_asks_contains_after_once_per_edge(monkeypatch):
    # every scanned edge is one call through trisat.search's binding, and an
    # edge is kept exactly when the answer is None
    answers = []

    def counting(*args):
        answers.append(real(*args))
        return answers[-1]

    real = search.contains_after
    monkeypatch.setattr(search, "contains_after", counting)
    r = sat_greedy((5, 4, 4), PatternSpec(2, 2, 1), 3, 1)
    assert len(answers) == r.nodes_explored == 3 * len(host_edges((5, 4, 4)))
    assert sum(a is None for a in answers) == sum(r.trial_values)


def greedy_digest() -> str:
    """sha256 over the canonical JSON of sat_greedy results on a host x
    pattern grid with several seeds: values, trial values and witnesses."""
    objs = [sat_greedy(host, PatternSpec(*ps), trials=3, seed=seed).to_json_obj()
            for host in ((3, 3, 3), (4, 3, 2), (5, 4, 4), (6, 5, 2))
            for ps in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 0), (3, 2, 0), (2, 1, 0))
            for seed in (0, 1, 2)]
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


def test_greedy_outputs_pinned_by_digest():
    # every scanned edge is decided by contains_after, so this also pins the
    # containment kernel's answers on the builder greedy mutates
    assert greedy_digest() == (
        "6ea17ed65b1182002b017a6ad80a3d59386782419286997243e311ebb03eef27")


# every host n1 >= n2 >= n3 >= 1 with at most 27 edges; it has at least
# 2 n1 + 1 of them, so n1 <= 13
_HOSTS_TO_27 = [(a, b, c) for a in range(1, 14) for b in range(1, a + 1) for c in range(1, b + 1)
                if a * b + a * c + b * c <= 27]


def exact_digest() -> str:
    """sha256 over the canonical JSON of sat_exact and enumerate_optima
    results: on every host with at most 27 edges, and on the 40-edge host
    under node budgets, which pins the incumbents a cut search reports."""
    pats = [PatternSpec(*ps) for ps in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 0))]
    objs = [fn(host, pat).to_json_obj()
            for host in _HOSTS_TO_27 for pat in pats for fn in (sat_exact, enumerate_optima)]
    objs += [fn((4, 4, 3), pat, node_budget=budget).to_json_obj()
             for pat in pats for budget in (1, 10, 100, 1000, 10000)
             for fn in (sat_exact, enumerate_optima)]
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


def test_exact_outputs_pinned_by_digest():
    # values, statuses, node counts and every witness, complete or cut
    assert len(_HOSTS_TO_27) == 32
    assert exact_digest() == (
        "fcc66ffc4b1358bfd07b243b0a668d79ece7af7fbcef26be719c38d96a0b9a33")


def masks_and_swaps_digest() -> str:
    """sha256 over the JSON of swap_pairs and pattern_edge_masks: per host, its
    swap pairs and each pattern's embedding masks, on every host with at most
    27 edges and on (4, 4, 3) and (4, 4, 4)."""
    pats = [PatternSpec(*ps) for ps in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 0),
                                        (3, 2, 0))]
    objs = [[host, swap_pairs(host), [pattern_edge_masks(host, pat) for pat in pats]]
            for host in _HOSTS_TO_27 + [(4, 4, 3), (4, 4, 4)]]
    return hashlib.sha256(json.dumps(objs).encode()).hexdigest()


def test_masks_and_swaps_pinned_by_digest():
    # the branch engine's inputs, numbered over the canonical host edge list
    assert masks_and_swaps_digest() == (
        "74c038eb097b3f710d24f22cc547b3801b2d45da18c3a73567e9c5031e20f21a")
