"""Closed-form saturation values and bounds, with hypothesis tracking.

Every function returns a :class:`BoundRecord` whose ``value`` is the exact
integer of the closed form (Python integers are arbitrary precision, so
hosts up to 10^9 and beyond evaluate without overflow) and whose
``hypothesis_satisfied`` flag evaluates the stated parameter inequalities
literally.  An asymptotic "n sufficiently large" hypothesis can never be
certified by a finite check; such records carry ``hypothesis_satisfied =
False`` plus an explanatory note, never a silent True.

Every parameter must be an integer (numpy integers included, bools not)
and is stored as a plain ``int``.  A non-integer parameter or a failed
shape precondition (orderings, positivity) raises :class:`FormulaError`;
size thresholds only toggle the hypothesis flag and whether the value is
claimed: a construction's edge count is an upper bound only at or above
its threshold, and an exact-value record is exact, an upper bound or no
claim at all; an unclaimed value has kind "reference" and a note.  The
size thresholds of the construction bounds are stated once, in the
``*_threshold`` functions.  The construction records are also the
constructions' admission checks: :mod:`trisat.constructions` refuses what
the record refuses and, unless forced, a host where its hypothesis fails.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

from .graphs import exact_int


class FormulaError(ValueError):
    """A non-integer argument, or one outside a formula's shape preconditions."""


@dataclass(frozen=True)
class BoundRecord:
    """A named closed-form value with its parameter hypotheses."""

    name: str
    params: dict
    value: int
    kind: str  # "exact" | "upper" | "lower" | "reference"
    hypothesis_satisfied: bool
    anchor: str
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "value": self.value,
            "kind": self.kind,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "anchor": self.anchor,
            "note": self.note,
        }


def _integer_params(fn):
    """Check every parameter of the closed form ``fn`` with :func:`exact_int`
    and call it with plain ints, so values and params are exact integers."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        params = sig.bind(*args, **kwargs).arguments
        for name, x in params.items():
            params[name] = exact_int(x)
            if params[name] is None:
                raise FormulaError(f"{fn.__name__[2:]}: parameter {name} must be an integer, "
                                   f"got {x!r}")
        return fn(**params)
    return checked


def _check_host_order(n1: int, n2: int, n3: int) -> None:
    if not n1 >= n2 >= n3 >= 1:
        raise FormulaError(f"host sizes must satisfy n1 >= n2 >= n3 >= 1, got ({n1},{n2},{n3})")


def t_of(l: int, m: int) -> int:
    """Hub-triangle size floor((l - m) / 2) used by the balanced constructions."""
    return (l - m) // 2


def con1_threshold(l: int, m: int) -> int:
    """Smallest n3 at which the hub construction for K_{l,m,m} is saturated."""
    return max(l + 2, 3 * l - 2 * m - 1)


def con3_threshold(l: int) -> int:
    """Smallest n3 at which the small-hub construction for K_{l,m,p} is saturated."""
    return l


def con4_threshold(l: int, m: int) -> int:
    """Smallest n at which the balanced construction for K_{l,m,m} is saturated."""
    return max(l + 2, 3 * l + t_of(l, m) - 2 * m - 2)


def con5_threshold(l: int, m: int) -> int:
    """Smallest n at which the balanced construction for K_{l,m,p} is saturated."""
    return l + t_of(l, m) - 1


def c4_threshold() -> int:
    """Smallest n3 at which the three-star construction is C4-saturated."""
    return 2


@_integer_params
def f_con1_upper(n1: int, n2: int, n3: int, l: int, m: int) -> BoundRecord:
    """Edge count of the hub construction for K_{l,m,m}, an upper bound on sat."""
    _check_host_order(n1, n2, n3)
    if not l >= m >= 1:
        raise FormulaError(f"need l >= m >= 1, got l={l}, m={m}")
    value = 2 * m * (n1 + n2 + n3) + (l - m) * (n2 + 2 * n3) - 3 * l * m - 3
    hyp, kind, note = _construction_claim("n3", n3, con1_threshold(l, m))
    return BoundRecord(
        name="con1_upper",
        params={"n1": n1, "n2": n2, "n3": n3, "l": l, "m": m},
        value=value, kind=kind, hypothesis_satisfied=hyp,
        anchor="K_{l,m,m}-saturated hub construction in K_{n1,n2,n3}", note=note)


@_integer_params
def f_con3_upper(n1: int, n2: int, n3: int, l: int, m: int, p: int) -> BoundRecord:
    """Edge count of the small-hub construction for K_{l,m,p}, m > p."""
    _check_host_order(n1, n2, n3)
    if not (l >= m > p >= 1):
        raise FormulaError(f"need l >= m > p >= 1, got l={l}, m={m}, p={p}")
    value = (2 * (m - 1) * (n1 + n2 + n3) + (l - m) * (n2 + 2 * n3)
             - 3 * l * (m - 1) + 3 * m - 3)
    hyp, kind, note = _construction_claim("n3", n3, con3_threshold(l))
    return BoundRecord(
        name="con3_upper",
        params={"n1": n1, "n2": n2, "n3": n3, "l": l, "m": m, "p": p},
        value=value, kind=kind, hypothesis_satisfied=hyp,
        anchor="K_{l,m,p}-saturated small-hub construction in K_{n1,n2,n3}", note=note)


@_integer_params
def f_con4_upper(n: int, l: int, m: int) -> BoundRecord:
    """Edge count of the balanced-host construction for K_{l,m,m}."""
    if not l >= m >= 1:
        raise FormulaError(f"need l >= m >= 1, got l={l}, m={m}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    t = t_of(l, m)
    value = 3 * (l + m) * n - 3 * (l - m - t) * t - 3 * l * m - 3
    hyp, kind, note = _construction_claim("n", n, con4_threshold(l, m))
    return BoundRecord(
        name="con4_upper", params={"n": n, "l": l, "m": m},
        value=value, kind=kind, hypothesis_satisfied=hyp,
        anchor="K_{l,m,m}-saturated hub-and-triangle construction in K_{n,n,n}", note=note)


@_integer_params
def f_con5_upper(n: int, l: int, m: int, p: int) -> BoundRecord:
    """Edge count of the balanced-host construction for K_{l,m,p}, m > p."""
    if not (l >= m > p >= 1):
        raise FormulaError(f"need l >= m > p >= 1, got l={l}, m={m}, p={p}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    t = t_of(l, m)
    value = 3 * (l + m - 2) * n - 3 * (m - 1) * (l - 1) + 3 * t * t - 3 * (l - m) * t
    hyp, kind, note = _construction_claim("n", n, con5_threshold(l, m))
    return BoundRecord(
        name="con5_upper", params={"n": n, "l": l, "m": m, "p": p},
        value=value, kind=kind, hypothesis_satisfied=hyp,
        anchor="K_{l,m,p}-saturated hub-and-triangle construction in K_{n,n,n}", note=note)


def _sat_claim(hyp: bool, threshold: int, con: BoundRecord, regime: int) -> tuple[str, str]:
    """Kind and note of an exact-value record: exact at the size threshold,
    else an upper bound only where ``con``, the record of the construction
    attaining the value, holds its hypothesis (n3 >= ``regime``), else no
    claim."""
    if hyp:
        return "exact", ""
    below = f"below size threshold n3 >= {threshold}; "
    if con.hypothesis_satisfied:
        return "upper", below + "value remains an upper bound"
    return "reference", below + f"no construction is in regime (needs n3 >= {regime})"


def _construction_claim(var: str, size: int, threshold: int) -> tuple[bool, str, str]:
    """Hypothesis flag, kind and note of a construction's edge count: an
    upper bound on sat only where the construction is saturated (``var`` at
    least ``threshold``), below that a bare reference value."""
    if size >= threshold:
        return True, "upper", ""
    return False, "reference", (f"below size threshold {var} >= {threshold}; saturation of "
                                f"the construction is not guaranteed, so no upper bound is claimed")


@_integer_params
def f_sat_lll(n1: int, n2: int, n3: int, l: int) -> BoundRecord:
    """Exact saturation number of K_{l,l,l} in K_{n1,n2,n3} for large parts.

    Exact once n3 >= 32 l^3 + 40 l^2 + 11 l.  The value is the hub
    construction's edge count ``f_con1_upper(n1, n2, n3, l, l)``; below the
    exact threshold it is an upper bound where that record's hypothesis
    holds, n3 >= ``con1_threshold(l, l)``, and a bare reference value
    elsewhere.
    """
    _check_host_order(n1, n2, n3)
    if l < 1:
        raise FormulaError(f"need l >= 1, got {l}")
    con = f_con1_upper(n1, n2, n3, l, l)
    threshold = 32 * l**3 + 40 * l**2 + 11 * l
    hyp = n3 >= threshold
    kind, note = _sat_claim(hyp, threshold, con, con1_threshold(l, l))
    return BoundRecord(
        name="sat_lll", params={"n1": n1, "n2": n2, "n3": n3, "l": l},
        value=con.value, kind=kind, hypothesis_satisfied=hyp,
        anchor="saturation number of the balanced pattern K_{l,l,l}", note=note)


@_integer_params
def f_sat_lll1(n1: int, n2: int, n3: int, l: int) -> BoundRecord:
    """Exact saturation number of K_{l,l,l-1} in K_{n1,n2,n3} for large parts.

    Exact once n3 >= 32 k^3 + 40 k^2 + 11 k with k = l - 1.  The value is
    the small-hub construction's edge count ``f_con3_upper(n1, n2, n3, l, l,
    l - 1)``; below the exact threshold it is an upper bound where that
    record's hypothesis holds, n3 >= ``con3_threshold(l)``, and a bare
    reference value elsewhere.
    """
    _check_host_order(n1, n2, n3)
    if l < 2:
        raise FormulaError(f"pattern K_(l,l,l-1) needs l >= 2, got {l}")
    con = f_con3_upper(n1, n2, n3, l, l, l - 1)
    k = l - 1
    threshold = 32 * k**3 + 40 * k**2 + 11 * k
    hyp = n3 >= threshold
    kind, note = _sat_claim(hyp, threshold, con, con3_threshold(l))
    return BoundRecord(
        name="sat_lll1", params={"n1": n1, "n2": n2, "n3": n3, "l": l},
        value=con.value, kind=kind, hypothesis_satisfied=hyp,
        anchor="saturation number of the near-balanced pattern K_{l,l,l-1}", note=note)


@_integer_params
def f_lll2_lower(n: int, l: int) -> BoundRecord:
    """Lower bound 6(l-1)n - (72 l^2 - 40 l + 54) for K_{l,l,l-2} in K_{n,n,n}.

    Holds for n sufficiently large; that asymptotic hypothesis cannot be
    certified at finite n, so the flag is always False with a note.
    """
    if l < 3:
        raise FormulaError(f"pattern K_(l,l,l-2) lower bound needs l >= 3, got {l}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    value = 6 * (l - 1) * n - (72 * l * l - 40 * l + 54)
    return BoundRecord(
        name="lll2_lower", params={"n": n, "l": l},
        value=value, kind="lower", hypothesis_satisfied=False,
        anchor="additive-constant lower bound for K_{l,l,l-2} in K_{n,n,n}",
        note="valid for n sufficiently large; an asymptotic hypothesis is never certified at finite n")


@_integer_params
def f_c4(n1: int, n2: int, n3: int) -> BoundRecord:
    """Exact saturation number n1 + n2 + n3 of the four-cycle C4 = K_{2,2}."""
    _check_host_order(n1, n2, n3)
    hyp = n3 >= c4_threshold()
    return BoundRecord(
        name="c4", params={"n1": n1, "n2": n2, "n3": n3},
        value=n1 + n2 + n3, kind="exact", hypothesis_satisfied=hyp,
        anchor="saturation number of C4 in K_{n1,n2,n3}",
        note="" if hyp else f"below size threshold n3 >= {c4_threshold()}")


# -- reference values from the classical literature ---------------------------

@_integer_params
def f_ehm(n: int, k: int) -> BoundRecord:
    """Erdos-Hajnal-Moon: sat(n, K_k) = (k-2) n - C(k-1, 2)."""
    if k < 2 or n < 1:
        raise FormulaError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    value = (k - 2) * n - (k - 1) * (k - 2) // 2
    return BoundRecord(
        name="ehm", params={"n": n, "k": k},
        value=value, kind="reference", hypothesis_satisfied=n >= k,
        anchor="Erdos-Hajnal-Moon clique saturation number")


@_integer_params
def f_bw(n1: int, n2: int, l: int, m: int) -> BoundRecord:
    """Bollobas-Wessel: ordered bipartite-in-bipartite saturation number."""
    if n1 < 1 or n2 < 1:
        raise FormulaError(f"need positive part sizes, got ({n1},{n2})")
    value = (m - 1) * n1 + (l - 1) * n2 - (m - 1) * (l - 1)
    hyp = 2 <= l <= n1 and 2 <= m <= n2
    return BoundRecord(
        name="bw", params={"n1": n1, "n2": n2, "l": l, "m": m},
        value=value, kind="reference", hypothesis_satisfied=hyp,
        anchor="Bollobas-Wessel ordered bipartite saturation number")


@_integer_params
def f_ms_upper(n: int, l: int, m: int) -> BoundRecord:
    """Moshkovitz-Shapira upper bound (l+m-2) n - floor(((l+m-2)/2)^2)."""
    if l < 1 or m < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got n={n}, l={l}, m={m}")
    k = l + m - 2
    value = k * n - (k * k) // 4
    return BoundRecord(
        name="ms_upper", params={"n": n, "l": l, "m": m},
        value=value, kind="reference", hypothesis_satisfied=l >= 2 and m >= 2,
        anchor="Moshkovitz-Shapira bipartite-host upper bound")


@_integer_params
def f_gks_lower(n: int, l: int, m: int) -> BoundRecord:
    """Gan-Korandi-Sudakov lower bound (l+m-2) n - (l+m-2)^2."""
    if l < 1 or m < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got n={n}, l={l}, m={m}")
    k = l + m - 2
    value = k * n - k * k
    return BoundRecord(
        name="gks_lower", params={"n": n, "l": l, "m": m},
        value=value, kind="reference", hypothesis_satisfied=l >= 2 and m >= 2,
        anchor="Gan-Korandi-Sudakov bipartite-host lower bound")


@_integer_params
def f_fjpw(k: int, n: int) -> BoundRecord:
    """Ferrara-Jacobson-Pfender-Wenger triangle saturation in balanced k-partite hosts.

    min{2kn + n^2 - 4k - 1, 3kn - 3n - 6}, stated for k >= 3 and n >= 100.
    """
    if k < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got k={k}, n={n}")
    value = min(2 * k * n + n * n - 4 * k - 1, 3 * k * n - 3 * n - 6)
    return BoundRecord(
        name="fjpw", params={"k": k, "n": n},
        value=value, kind="reference", hypothesis_satisfied=k >= 3 and n >= 100,
        anchor="Ferrara-Jacobson-Pfender-Wenger multipartite triangle saturation number")


# Registry for the CLI: name (the function name without "f_") -> (callable,
# ordered parameter names).
FORMULAS = {fn.__name__[2:]: (fn, tuple(inspect.signature(fn).parameters)) for fn in (
    f_con1_upper, f_con3_upper, f_con4_upper, f_con5_upper, f_sat_lll, f_sat_lll1,
    f_lll2_lower, f_c4, f_ehm, f_bw, f_ms_upper, f_gks_lower, f_fjpw)}


def evaluate(name: str, params: dict) -> BoundRecord:
    """Evaluate a registered formula from a {param: int} mapping."""
    if name not in FORMULAS:
        raise FormulaError(f"unknown formula {name!r}; known: {sorted(FORMULAS)}")
    fn, wanted = FORMULAS[name]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        raise FormulaError(
            f"formula {name} takes parameters {wanted}; missing {missing}, unknown {extra}")
    return fn(**{p: params[p] for p in wanted})
