"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is exact integer equality; the
stated wall-clock budgets are asserted.
"""

import random
import time

from trisat import (PatternSpec, construction1, construction_c4,
                    contains, contains_naive, f_con1_upper, f_con3_upper,
                    f_con5_upper, f_fjpw, f_lll2_lower, f_sat_lll, f_sat_lll1,
                    is_saturated, iso_equivalent, sat_exact, sat_exhaustive,
                    sat_greedy, validate_embedding)
from trisat.constructions import build, formula_for, pattern_for, smallest_guaranteed_n
from trisat.search import enumerate_optima
from conftest import random_graph, random_pattern, random_sizes


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_c4_proposition_exact():
    pat = PatternSpec(2, 2, 0)
    t0 = time.monotonic()
    v1 = sat_exact((2, 2, 2), pat).value
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    v2 = sat_exact((3, 2, 2), pat).value
    t2 = time.monotonic() - t0
    _report(1, f"sat(2,2,2)={v1} in {t1:.2f}s, sat(3,2,2)={v2} in {t2:.2f}s",
            v1 == 6 and v2 == 7 and t1 < 10 and t2 < 10)


def test_criterion_2_construction_theorem_agreement_grid():
    # the path-removal variant is defined only for m >= 2 (with m = 1 it is
    # provably not pattern-free), so its grid tuples start at (2,2)
    grid = []
    for lm in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        grid.append(("1", lm[0], lm[1], None))
    for lm in [(2, 2), (3, 2), (3, 3)]:
        grid.append(("2", lm[0], lm[1], None))
    for lmp in [(2, 2, 1), (3, 2, 1), (3, 3, 2), (4, 2, 1)]:
        grid.append(("3", *lmp))
        grid.append(("5", *lmp))
    for lm in [(1, 1), (3, 1), (4, 2)]:
        grid.append(("4", lm[0], lm[1], None))

    t0 = time.monotonic()
    failures = []
    points = 0
    for which, l, m, p in grid:
        n_min = smallest_guaranteed_n(which, l, m, p)
        for n in (n_min, n_min + 3):
            points += 1
            g = build(which, n, n, n, l=l, m=m, p=p)
            rec = formula_for(which, n, n, n, l=l, m=m, p=p)
            pat = pattern_for(which, l=l, m=m, p=p)
            rep = is_saturated(g, (n, n, n), pat)
            if not (rep.is_saturated and g.num_edges == rec.value
                    and rec.hypothesis_satisfied):
                failures.append((which, l, m, p, n))
    dt = time.monotonic() - t0
    _report(2, f"{points} grid points verified in {dt:.1f}s, failures={failures}",
            not failures and dt < 300)


def test_criterion_3_exact_vs_exhaustive_oracle():
    hosts = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)]
    pats = [(1, 1, 1), (2, 1, 1), (2, 2, 0), (2, 2, 1)]
    t0 = time.monotonic()
    mismatches = []
    for host in hosts:
        for ps in pats:
            pat = PatternSpec(*ps)
            ex = sat_exact(host, pat).value
            bf = sat_exhaustive(host, pat).value
            if ex != bf:
                mismatches.append((host, ps, ex, bf))
    dt = time.monotonic() - t0
    _report(3, f"{len(hosts) * len(pats)} instances in {dt:.1f}s, mismatches={mismatches}",
            not mismatches and dt < 120)


def test_criterion_4_large_host_identities():
    rnd = random.Random(2024)
    # (a) integer identities on a 100-point random grid
    ok_a = True
    for _ in range(100):
        n3 = rnd.randint(1, 10**6)
        n2 = n3 + rnd.randint(0, 1000)
        n1 = n2 + rnd.randint(0, 1000)
        l = rnd.randint(1, 40)
        if f_sat_lll(n1, n1, n1, l).value != f_con1_upper(n1, n1, n1, l, l).value:
            ok_a = False
        if l >= 2 and (f_sat_lll1(n1, n2, n3, l).value
                       != f_con3_upper(n1, n2, n3, l, l, l - 1).value):
            ok_a = False
    # (b) the balanced triangle construction at n = 100, certified saturated
    t0 = time.monotonic()
    g = construction1(1, 1, 100, 100, 100)
    rep = is_saturated(g, (100, 100, 100), PatternSpec(1, 1, 1))
    dt = time.monotonic() - t0
    want = f_sat_lll(100, 100, 100, 1).value
    ok_b = rep.is_saturated and g.num_edges == 594 == want == 2 * 300 - 6 and dt < 60
    # (c) triangle cross-check against the multipartite reference formula
    ok_c = all(f_sat_lll(n, n, n, 1).value == f_fjpw(3, n).value
               for n in range(100, 201))
    _report(4, f"identities={ok_a}, n=100 certified ({g.num_edges} edges, {dt:.1f}s)={ok_b}, "
               f"triangle cross-check={ok_c}", ok_a and ok_b and ok_c)


def test_criterion_5_lower_upper_sandwich():
    ok = True
    detail = []
    for l in (3, 4, 5):
        gaps = []
        for n in (50, 500):
            lower = f_lll2_lower(n, l).value
            upper = f_con5_upper(n, l, l, l - 2).value
            if lower > upper:
                ok = False
            gaps.append(upper - lower)
        if gaps[0] != gaps[1]:
            ok = False
        detail.append((l, gaps[0]))
    _report(5, f"gap by l: {detail}", ok)


def test_criterion_6_containment_oracle_equivalence():
    rnd = random.Random(777)
    t0 = time.monotonic()
    disagreements = 0
    for _ in range(500):
        g = random_graph(rnd, random_sizes(rnd, max_size=4),
                         density=rnd.uniform(0.15, 0.95))
        pat = random_pattern(rnd, max_class=3)
        fast = contains(g, pat)
        slow = contains_naive(g, pat)
        if (fast is None) != (slow is None):
            disagreements += 1
        if fast is not None:
            validate_embedding(g, pat, fast)
        if slow is not None:
            validate_embedding(g, pat, slow)
    dt = time.monotonic() - t0
    _report(6, f"500 instances in {dt:.1f}s, disagreements={disagreements}",
            disagreements == 0 and dt < 60)


def test_criterion_7_greedy_soundness():
    hosts = [(2, 2, 2), (3, 2, 2), (4, 3, 3), (5, 5, 4), (6, 6, 6), (8, 8, 8)]
    pats = [(1, 1, 1), (2, 2, 1)]
    exact_cache = {}
    for host in hosts:
        n1, n2, n3 = host
        if n1 * n2 + n1 * n3 + n2 * n3 <= 16:
            for ps in pats:
                exact_cache[(host, ps)] = sat_exact(host, PatternSpec(*ps)).value
    t0 = time.monotonic()
    runs = 0
    unsound = 0
    below_exact = 0
    seed = 0
    while runs < 1000:
        for host in hosts:
            for ps in pats:
                if runs >= 1000:
                    break
                pat = PatternSpec(*ps)
                res = sat_greedy(host, pat, trials=1, seed=seed)
                seed += 1
                runs += 1
                rep = is_saturated(res.witnesses[0], host, pat, early_exit=True)
                if not rep.is_saturated:
                    unsound += 1
                key = (host, ps)
                if key in exact_cache and res.value < exact_cache[key]:
                    below_exact += 1
    dt = time.monotonic() - t0
    _report(7, f"{runs} greedy runs in {dt:.1f}s, unsound={unsound}, below-exact={below_exact}",
            unsound == 0 and below_exact == 0)


def test_criterion_8_uniqueness_probe():
    pat = PatternSpec(2, 2, 0)
    star = construction_c4(2, 2, 2)
    # one process searches one tree, so two runs must agree byte for byte
    results = [enumerate_optima((2, 2, 2), pat) for _ in range(2)]
    has_star = any(iso_equivalent(w, star) for w in results[0].witnesses)
    same = (results[0].value == results[1].value
            and [sorted((u.part, u.index, v.part, v.index) for u, v in w.edges())
                 for w in results[0].witnesses]
            == [sorted((u.part, u.index, v.part, v.index) for u, v in w.edges())
                for w in results[1].witnesses])
    _report(8, f"value={results[0].value}, star witness={has_star}, "
               f"repeat-invariant={same}", has_star and same)
