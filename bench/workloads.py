"""The benchmark's three workloads: inputs made from a seed, timed operations, output checks.

Each operation is what one ``trisat`` CLI invocation computes, minus file
I/O: read the input, call the public API, build the JSON object the CLI
would print.  Calls go through module attributes (``search.sat_exact``,
not ``trisat.sat_exact``) so the traced run's wrappers see them.

* ``verify`` -- ``is_saturated`` on graphs deserialized from bytes.  Every
  construction is used as built (saturated), minus a seeded edge
  (pattern-free, not saturated) and plus a seeded host nonedge (not
  pattern-free, so every nonedge is re-checked on ``g.with_edge(...)``);
  minus and plus inputs are made twice in each part pair.  Containment and
  the verifier loop do the work; ``search`` does none.
* ``exact`` -- ``sat_exact`` / ``enumerate_optima`` at the default worker
  count on hosts of 27 edges: sub-second instances, where pool start-up
  dominates, beside multi-second ones.  ``containment`` is never called.
  The seed only orders the instances, which are fixed by their known values.
* ``greedy`` -- ``sat_greedy`` with the workload seed.  Every containment
  read on a mutable ``GraphBuilder`` that finds no copy is followed by a
  write, and only about half the reads find one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from trisat import constructions, graphs, search, serialization, verifier
from trisat.patterns import PatternSpec, validate_embedding


class CheckError(AssertionError):
    """An operation returned a wrong output."""


@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _expect(cond: bool, label: str, what: str) -> None:
    if not cond:
        raise CheckError(f"{label}: {what}")


# -- verify -------------------------------------------------------------------

# (construction, n, parameters, pattern); every host is K_{n,n,n}
VERIFY_SPECS = (
    ("1", 24, {"l": 1, "m": 1}, (1, 1, 1)),
    ("c4", 12, {}, (2, 2, 0)),
    ("3", 18, {"l": 2, "m": 2, "p": 1}, (2, 2, 1)),
    ("5", 14, {"l": 4, "m": 2, "p": 1}, (4, 2, 1)),
)
VERIFY_TINY = (
    ("1", 8, {"l": 1, "m": 1}, (1, 1, 1)),
    ("c4", 5, {}, (2, 2, 0)),
    ("3", 6, {"l": 2, "m": 2, "p": 1}, (2, 2, 1)),
    ("5", 5, {"l": 4, "m": 2, "p": 1}, (4, 2, 1)),
)
PICKS_PER_PAIR = 2


def _verify_run(data: bytes, host: tuple[int, int, int], pat: PatternSpec):
    report = verifier.is_saturated(serialization.deserialize(data), host, pat)
    return report, report.to_json_obj()


def _verify_check(label: str, variant: str, g, pat: PatternSpec, removed) -> Callable:
    host_edges = 3 * g.part_sizes[0] ** 2

    def check(out) -> None:
        report, _ = out
        _expect(report.checked_nonedges == host_edges - g.num_edges, label,
                f"checked {report.checked_nonedges} nonedges, host has "
                f"{host_edges - g.num_edges}")
        if variant == "built":
            _expect(report.is_saturated, label, "construction not verified saturated")
        elif variant == "minus":
            _expect(report.is_pattern_free and not report.is_saturated, label,
                    "edge-deleted construction must be pattern-free and unsaturated")
            _expect(removed in report.violating_nonedges, label,
                    f"removed edge {removed} missing from the violating nonedges")
        else:
            _expect(not report.is_pattern_free and report.forbidden_witness is not None,
                    label, "edge-added construction must contain the pattern")
            try:
                validate_embedding(g, pat, report.forbidden_witness)
            except ValueError as exc:
                raise CheckError(f"{label}: forbidden witness invalid: {exc}") from None
    return check


def _by_pair(pairs: list, rnd: random.Random, k: int) -> list:
    """k seeded picks in each part pair (1,2), (1,3), (2,3).

    The cost of checking a graph that differs from a construction in one
    edge depends on the part pair of that edge, because the search tries
    class-to-part assignments in a fixed order, and on the edge's position
    inside the pair.  So the picks are spread evenly over each pair's
    canonical list from a seeded offset: every seed gets early and late
    edges of every pair, and a batch does nearly the same work for all seeds.
    """
    out = []
    for pp in graphs.PAIR_ORDER:
        group = [e for e in pairs if (e[0].part, e[1].part) == pp]
        step = len(group) / k
        offset = rnd.random() * step
        out += [group[int(offset + j * step)] for j in range(k)]
    return out


def verify_ops(seed: int, tiny: bool) -> list[Op]:
    rnd = random.Random(seed)
    ops = []
    for which, n, params, sizes in VERIFY_TINY if tiny else VERIFY_SPECS:
        host, pat = (n, n, n), PatternSpec(*sizes)
        g = constructions.build(which, n, n, n, **params)
        inputs = [("built", g, None)]
        inputs += [("minus", g.without_edge(*e), e)
                   for e in _by_pair(g.edges(), rnd, PICKS_PER_PAIR)]
        inputs += [("plus", g.with_edge(*e), e)
                   for e in _by_pair(graphs.host_nonedges(g), rnd, PICKS_PER_PAIR)]
        for k, (variant, h, e) in enumerate(inputs):
            label = f"con{which}-n{n}-{pat}-{variant}" + ("" if e is None else f"-{k}")
            data = serialization.serialize(h)
            ops.append(Op(label,
                          lambda data=data, host=host, pat=pat: _verify_run(data, host, pat),
                          _verify_check(label, variant, h, pat, e)))
    return ops


# -- exact --------------------------------------------------------------------

# (host, pattern, value, isomorphism classes or None for sat_exact)
EXACT_SPECS = (
    ((3, 3, 3), (1, 1, 1), 12, None),
    ((3, 3, 3), (2, 2, 1), 15, None),
    ((3, 3, 3), (2, 2, 0), 9, None),
    ((4, 3, 2), (2, 1, 1), 14, None),
    ((4, 3, 2), (1, 1, 1), 12, 7),
)
EXACT_TINY = (
    ((3, 2, 2), (1, 1, 1), 8, None),
    ((2, 2, 2), (2, 2, 0), 6, None),
    ((3, 2, 2), (2, 2, 0), 7, None),
    ((2, 2, 2), (2, 1, 1), 8, None),
    ((3, 2, 2), (1, 1, 1), 8, 2),
)


def _exact_run(host, pat: PatternSpec, enumerate_all: bool):
    fn = search.enumerate_optima if enumerate_all else search.sat_exact
    result = fn(host, pat)
    return result, result.to_json_obj()


def _witnesses_saturated(label: str, result, host, pat: PatternSpec) -> None:
    for g in result.witnesses:
        _expect(g.num_edges == result.value, label,
                f"witness has {g.num_edges} edges, value is {result.value}")
        _expect(verifier.is_saturated(g, host, pat).is_saturated, label,
                "witness does not verify as saturated")


def _exact_check(label: str, host, pat: PatternSpec, value: int, classes) -> Callable:
    def check(out) -> None:
        result, _ = out
        _expect(result.status == "complete", label, f"status {result.status}")
        _expect(result.value == value, label, f"value {result.value}, expected {value}")
        want = 1 if classes is None else classes
        _expect(len(result.witnesses) == want, label,
                f"{len(result.witnesses)} witnesses, expected {want}")
        _witnesses_saturated(label, result, host, pat)
    return check


def exact_ops(seed: int, tiny: bool) -> list[Op]:
    ops = []
    for host, sizes, value, classes in EXACT_TINY if tiny else EXACT_SPECS:
        pat = PatternSpec(*sizes)
        kind = "sat" if classes is None else "enumerate"
        label = f"{kind}-{'x'.join(map(str, host))}-{pat}"
        ops.append(Op(label,
                      lambda host=host, pat=pat, e=classes is not None: _exact_run(host, pat, e),
                      _exact_check(label, host, pat, value, classes)))
    random.Random(seed).shuffle(ops)
    return ops


# -- greedy -------------------------------------------------------------------

# (host, pattern); each batch makes GREEDY_CALLS calls per host, of
# GREEDY_TRIALS trials each, so latency quantiles rest on many samples
GREEDY_SPECS = (
    ((8, 8, 8), (2, 2, 1)),
    ((12, 12, 12), (1, 1, 1)),
    ((6, 6, 6), (2, 2, 0)),
)
GREEDY_TINY = (
    ((4, 4, 4), (2, 2, 1)),
    ((5, 5, 5), (1, 1, 1)),
    ((3, 3, 3), (2, 2, 0)),
)
GREEDY_CALLS, GREEDY_TRIALS = 5, 20


def _greedy_run(host, pat: PatternSpec, trials: int, seed: int):
    result = search.sat_greedy(host, pat, trials, seed)
    return result, result.to_json_obj()


def _greedy_check(label: str, host, pat: PatternSpec, trials: int) -> Callable:
    def check(out) -> None:
        result, _ = out
        _expect(len(result.trial_values) == trials, label,
                f"{len(result.trial_values)} trial values for {trials} trials")
        _expect(result.value == min(result.trial_values), label,
                f"value {result.value} is not the minimum trial value")
        _witnesses_saturated(label, result, host, pat)
    return check


def greedy_ops(seed: int, tiny: bool) -> list[Op]:
    trials = 2 if tiny else GREEDY_TRIALS
    ops = []
    for host, sizes in GREEDY_TINY if tiny else GREEDY_SPECS:
        pat = PatternSpec(*sizes)
        for j in range(GREEDY_CALLS):
            call_seed = seed * GREEDY_CALLS + j
            label = f"greedy-{'x'.join(map(str, host))}-{pat}-seed{call_seed}"
            ops.append(Op(label,
                          lambda host=host, pat=pat, s=call_seed: _greedy_run(host, pat, trials, s),
                          _greedy_check(label, host, pat, trials)))
    return ops


WORKLOADS = {"verify": verify_ops, "exact": exact_ops, "greedy": greedy_ops}
