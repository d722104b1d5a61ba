"""Certify or refute that a graph is a pattern-saturated subgraph of its host.

A graph G on the host's part sizes is pattern-saturated when it is
pattern-free and adding any host nonedge creates a copy of the pattern.
:func:`is_saturated` checks both halves exhaustively and returns a
machine-checkable :class:`SaturationReport`: either a forbidden-pattern
witness, or the full list of host nonedges whose addition completes no copy
(empty iff saturated).

Freeness is checked first.  A graph that already contains the pattern
needs no per-nonedge search at all: by monotonicity every G + e contains
it too, so no nonedge violates.  On a pattern-free graph only embeddings
using both endpoints of a nonedge can be new.  The nonedges, read from
g's rows in runs that share the first endpoint and the part of the second,
are not searched one at a time: one search per run finds every second
endpoint that completes a copy (see :mod:`trisat.containment`).  Each
nonedge the sweep leaves uncompleted is re-confirmed with
:func:`contains_after` before it is reported, and a disagreement raises an
internal :class:`VerifierError`; that the nonedges it takes as completed
are completed is checked by differential tests, not at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .containment import _uncompleted, contains, contains_after
# bench/tracing.py patches the host_nonedges binding of this module
from .graphs import (PARTS, TripartiteGraph, VertexRef, degree_profile, exact_int,
                     host_nonedges)
from .patterns import Embedding, PatternSpec


class VerifierError(ValueError):
    """Invalid verification query."""


@dataclass
class SaturationReport:
    """Verdict plus witnesses for one saturation check."""

    pattern: PatternSpec
    part_sizes: tuple[int, int, int]
    is_pattern_free: bool
    forbidden_witness: Embedding | None
    violating_nonedges: list[tuple[VertexRef, VertexRef]]
    checked_nonedges: int
    degree_profile: tuple[int, int, int]

    @property
    def is_saturated(self) -> bool:
        return self.is_pattern_free and not self.violating_nonedges

    def to_json_obj(self) -> dict:
        witness = None
        if self.forbidden_witness is not None:
            witness = [sorted([v.part, v.index] for v in cl)
                       for cl in self.forbidden_witness.classes]
        return {
            "pattern": list(self.pattern.sizes),
            "parts": list(self.part_sizes),
            "is_saturated": self.is_saturated,
            "is_pattern_free": self.is_pattern_free,
            "forbidden_witness": witness,
            "violating_nonedges": [[u.part, u.index, v.part, v.index]
                                   for u, v in self.violating_nonedges],
            "checked_nonedges": self.checked_nonedges,
            "degree_profile": list(self.degree_profile),
        }


def is_saturated(g: TripartiteGraph, host_sizes: tuple[int, int, int],
                 pat: PatternSpec, *, early_exit: bool = False) -> SaturationReport:
    """Exhaustive saturation check of g inside the complete host.

    With ``early_exit`` the nonedge scan stops at the first violation; by
    default it scans everything so the report lists all violations.
    """
    if tuple(host_sizes) != g.part_sizes:
        raise VerifierError(
            f"graph part sizes {g.part_sizes} differ from host sizes {tuple(host_sizes)}")
    witness = contains(g, pat)
    free = witness is None
    n1, n2, n3 = g.part_sizes
    checked = n1 * n2 + n1 * n3 + n2 * n3 - g.num_edges
    violations: list[tuple[VertexRef, VertexRef]] = []
    if free:
        for k, u, v in _uncompleted(g, pat):
            if contains_after(g, pat, u, v) is not None:
                raise VerifierError(f"internal error: the nonedge sweep and contains_after "
                                    f"disagree on {u}{v}")
            violations.append((u, v))
            if early_exit:
                checked = k + 1
                break
    return SaturationReport(
        pattern=pat,
        part_sizes=g.part_sizes,
        is_pattern_free=free,
        forbidden_witness=witness,
        violating_nonedges=violations,
        checked_nonedges=checked,
        degree_profile=degree_profile(g).delta,
    )


# -- degree-threshold diagnostics ------------------------------------------------

@dataclass(frozen=True)
class DegreeCheck:
    """Outcome of one named minimum-degree expectation on one part."""

    name: str
    part: int
    bound: int
    delta: int
    satisfied: bool
    offending: VertexRef | None
    applicable: bool
    note: str = ""


def degree_threshold_check(g: TripartiteGraph, pat: PatternSpec, *,
                           saturated: bool | None = None) -> list[DegreeCheck]:
    """Evaluate the minimum-degree facts expected of saturated graphs.

    For patterns of shape K_{l,l,m} every part should reach minimum degree
    2m, and for K_{l,l,l-2} with l >= 3 minimum degree 2l-2.  These hold
    under large-host hypotheses, so outcomes are diagnostics, never hard
    failures; callers that know the graph is not saturated should pass
    ``saturated=False`` to have the outcomes flagged not-applicable.
    """
    checks: list[tuple[str, int]] = []
    ell, m, p = pat.sizes
    if p >= 1 and ell == m:
        checks.append((f"min_degree_2m(m={p})", 2 * p))
    if p >= 1 and ell == m and p == ell - 2 and ell >= 3:
        checks.append((f"min_degree_2l_minus_2(l={ell})", 2 * ell - 2))
    applicable = saturated is not False
    note = "" if applicable else "graph is not saturated; thresholds do not apply"
    if saturated is None:
        note = "saturation not verified by caller"
    prof = degree_profile(g)
    out: list[DegreeCheck] = []
    for name, bound in checks:
        for i in PARTS:
            delta = prof.delta[i - 1]
            offending = None
            if delta < bound:
                for a in range(1, g.part_sizes[i - 1] + 1):
                    v = VertexRef(i, a)
                    if prof.degree(v) == delta:
                        offending = v
                        break
            out.append(DegreeCheck(
                name=name, part=i, bound=bound, delta=delta,
                satisfied=delta >= bound, offending=offending,
                applicable=applicable, note=note))
    return out


# -- residual-structure diagnostics ----------------------------------------------

@dataclass
class ResidualReport:
    """Triangle check and degree table on the vertices outside the hub sets."""

    triangle_free: bool
    triangle: tuple[VertexRef, VertexRef, VertexRef] | None
    degrees: dict  # VertexRef -> {other part: residual neighbour count}


def residual_structure_check(g: TripartiteGraph,
                             hubs: "list[set[int]]") -> ResidualReport:
    """Exact triangle search and degree table restricted to non-hub vertices.

    ``hubs`` lists, per part, the vertex indices excluded from the residual
    set (the hub sets S_i and T_i of a construction).  The residual graph is
    the subgraph induced on the other vertices, which keep their indices;
    its triangle is the containment search's first K(1,1,1), which is the
    lexicographically first one.
    """
    if len(hubs) != 3:
        raise VerifierError("expected one hub index set per part")
    keep = []
    for i in PARTS:
        n, mask = g.part_sizes[i - 1], g.part_mask(i)
        for a in hubs[i - 1]:
            if not 1 <= (exact_int(a) or 0) <= n:
                raise VerifierError(f"hub index {a!r} for part {i} is not an integer in 1..{n}")
            mask &= ~(1 << (a - 1))
        keep.append(mask)
    residual = g.induced(keep)
    triangle = contains(residual, PatternSpec(1, 1, 1))
    if triangle is not None:
        triangle = tuple(v for cl in triangle.classes for v in cl)
    degrees = {v: counts for v, counts in degree_profile(residual).split.items()
               if (keep[v.part - 1] >> (v.index - 1)) & 1}
    return ResidualReport(triangle_free=triangle is None, triangle=triangle,
                          degrees=degrees)
