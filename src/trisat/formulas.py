"""Closed-form saturation values and bounds, with hypothesis tracking.

Every function returns a :class:`BoundRecord` whose ``value`` is the exact
integer of the closed form (Python integers are arbitrary precision, so
hosts up to 10^9 and beyond evaluate without overflow) and whose
``hypothesis_satisfied`` flag evaluates the stated parameter inequalities
literally.  An asymptotic "n sufficiently large" hypothesis can never be
certified by a finite check; such records carry ``hypothesis_satisfied =
False`` plus an explanatory note, never a silent True.

Each closed form ``f_<name>`` is stated once: the ``_record(anchor)``
decorator registers it in ``FORMULAS`` under ``<name>`` and builds its
record (name, parameters in signature order, anchor) around the value,
kind, hypothesis flag and note that the function body returns.

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
from dataclasses import asdict, dataclass

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
        return asdict(self)


# name (the function name without "f_") -> (closed form, ordered parameter names)
FORMULAS: dict = {}


def _record(anchor: str):
    """Register the closed form ``fn``, which returns (value, kind,
    hypothesis flag, note), as a :class:`BoundRecord` maker: every
    parameter is checked with :func:`exact_int` and passed as a plain int,
    and the record carries ``fn``'s name without "f_", the parameters in
    signature order and ``anchor``."""
    def register(fn):
        name, sig = fn.__name__[2:], inspect.signature(fn)

        @functools.wraps(fn)
        def record(*args, **kwargs) -> BoundRecord:
            params = sig.bind(*args, **kwargs).arguments
            for key, x in params.items():
                params[key] = exact_int(x)
                if params[key] is None:
                    raise FormulaError(f"{name}: parameter {key} must be an integer, got {x!r}")
            value, kind, hyp, note = fn(**params)
            return BoundRecord(name, params, value, kind, hyp, anchor, note)

        record.__signature__ = sig.replace(return_annotation="BoundRecord")
        FORMULAS[name] = (record, tuple(sig.parameters))
        return record
    return register


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


def _construction_claim(var: str, size: int, threshold: int) -> tuple[str, bool, str]:
    """Kind, hypothesis flag and note of a construction's edge count: an
    upper bound on sat only where the construction is saturated (``var`` at
    least ``threshold``), below that a bare reference value."""
    if size >= threshold:
        return "upper", True, ""
    return "reference", False, (f"below size threshold {var} >= {threshold}; saturation of "
                                f"the construction is not guaranteed, so no upper bound is claimed")


def _exact_claim(n3: int, k: int, con: BoundRecord, regime: int) -> tuple:
    """Value, kind, flag and note of an exact saturation number attained by
    the construction record ``con``: exact once n3 >= 32 k^3 + 40 k^2 + 11 k,
    below that an upper bound where ``con`` holds its hypothesis (n3 >=
    ``regime``), else no claim."""
    threshold = 32 * k**3 + 40 * k**2 + 11 * k
    if n3 >= threshold:
        return con.value, "exact", True, ""
    below = f"below size threshold n3 >= {threshold}; "
    if con.hypothesis_satisfied:
        return con.value, "upper", False, below + "value remains an upper bound"
    return (con.value, "reference", False,
            below + f"no construction is in regime (needs n3 >= {regime})")


@_record("K_{l,m,m}-saturated hub construction in K_{n1,n2,n3}")
def f_con1_upper(n1: int, n2: int, n3: int, l: int, m: int) -> tuple:
    """Edge count of the hub construction for K_{l,m,m}, an upper bound on sat."""
    _check_host_order(n1, n2, n3)
    if not l >= m >= 1:
        raise FormulaError(f"need l >= m >= 1, got l={l}, m={m}")
    value = 2 * m * (n1 + n2 + n3) + (l - m) * (n2 + 2 * n3) - 3 * l * m - 3
    return (value, *_construction_claim("n3", n3, con1_threshold(l, m)))


@_record("K_{l,m,p}-saturated small-hub construction in K_{n1,n2,n3}")
def f_con3_upper(n1: int, n2: int, n3: int, l: int, m: int, p: int) -> tuple:
    """Edge count of the small-hub construction for K_{l,m,p}, m > p."""
    _check_host_order(n1, n2, n3)
    if not (l >= m > p >= 1):
        raise FormulaError(f"need l >= m > p >= 1, got l={l}, m={m}, p={p}")
    value = (2 * (m - 1) * (n1 + n2 + n3) + (l - m) * (n2 + 2 * n3)
             - 3 * l * (m - 1) + 3 * m - 3)
    return (value, *_construction_claim("n3", n3, con3_threshold(l)))


@_record("K_{l,m,m}-saturated hub-and-triangle construction in K_{n,n,n}")
def f_con4_upper(n: int, l: int, m: int) -> tuple:
    """Edge count of the balanced-host construction for K_{l,m,m}."""
    if not l >= m >= 1:
        raise FormulaError(f"need l >= m >= 1, got l={l}, m={m}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    t = t_of(l, m)
    value = 3 * (l + m) * n - 3 * (l - m - t) * t - 3 * l * m - 3
    return (value, *_construction_claim("n", n, con4_threshold(l, m)))


@_record("K_{l,m,p}-saturated hub-and-triangle construction in K_{n,n,n}")
def f_con5_upper(n: int, l: int, m: int, p: int) -> tuple:
    """Edge count of the balanced-host construction for K_{l,m,p}, m > p."""
    if not (l >= m > p >= 1):
        raise FormulaError(f"need l >= m > p >= 1, got l={l}, m={m}, p={p}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    t = t_of(l, m)
    value = 3 * (l + m - 2) * n - 3 * (m - 1) * (l - 1) + 3 * t * t - 3 * (l - m) * t
    return (value, *_construction_claim("n", n, con5_threshold(l, m)))


@_record("saturation number of the balanced pattern K_{l,l,l}")
def f_sat_lll(n1: int, n2: int, n3: int, l: int) -> tuple:
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
    return _exact_claim(n3, l, f_con1_upper(n1, n2, n3, l, l), con1_threshold(l, l))


@_record("saturation number of the near-balanced pattern K_{l,l,l-1}")
def f_sat_lll1(n1: int, n2: int, n3: int, l: int) -> tuple:
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
    return _exact_claim(n3, l - 1, f_con3_upper(n1, n2, n3, l, l, l - 1), con3_threshold(l))


@_record("additive-constant lower bound for K_{l,l,l-2} in K_{n,n,n}")
def f_lll2_lower(n: int, l: int) -> tuple:
    """Lower bound 6(l-1)n - (72 l^2 - 40 l + 54) for K_{l,l,l-2} in K_{n,n,n}.

    Holds for n sufficiently large; that asymptotic hypothesis cannot be
    certified at finite n, so the flag is always False with a note.
    """
    if l < 3:
        raise FormulaError(f"pattern K_(l,l,l-2) lower bound needs l >= 3, got {l}")
    if n < 1:
        raise FormulaError(f"need n >= 1, got n={n}")
    return (6 * (l - 1) * n - (72 * l * l - 40 * l + 54), "lower", False,
            "valid for n sufficiently large; an asymptotic hypothesis is never certified at finite n")


@_record("saturation number of C4 in K_{n1,n2,n3}")
def f_c4(n1: int, n2: int, n3: int) -> tuple:
    """Exact saturation number n1 + n2 + n3 of the four-cycle C4 = K_{2,2}."""
    _check_host_order(n1, n2, n3)
    hyp = n3 >= c4_threshold()
    return n1 + n2 + n3, "exact", hyp, "" if hyp else f"below size threshold n3 >= {c4_threshold()}"


# -- reference values from the classical literature ---------------------------

@_record("Erdos-Hajnal-Moon clique saturation number")
def f_ehm(n: int, k: int) -> tuple:
    """Erdos-Hajnal-Moon: sat(n, K_k) = (k-2) n - C(k-1, 2)."""
    if k < 2 or n < 1:
        raise FormulaError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    return (k - 2) * n - (k - 1) * (k - 2) // 2, "reference", n >= k, ""


@_record("Bollobas-Wessel ordered bipartite saturation number")
def f_bw(n1: int, n2: int, l: int, m: int) -> tuple:
    """Bollobas-Wessel: ordered bipartite-in-bipartite saturation number."""
    if n1 < 1 or n2 < 1:
        raise FormulaError(f"need positive part sizes, got ({n1},{n2})")
    value = (m - 1) * n1 + (l - 1) * n2 - (m - 1) * (l - 1)
    return value, "reference", 2 <= l <= n1 and 2 <= m <= n2, ""


@_record("Moshkovitz-Shapira bipartite-host upper bound")
def f_ms_upper(n: int, l: int, m: int) -> tuple:
    """Moshkovitz-Shapira upper bound (l+m-2) n - floor(((l+m-2)/2)^2)."""
    if l < 1 or m < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got n={n}, l={l}, m={m}")
    k = l + m - 2
    return k * n - (k * k) // 4, "reference", l >= 2 and m >= 2, ""


@_record("Gan-Korandi-Sudakov bipartite-host lower bound")
def f_gks_lower(n: int, l: int, m: int) -> tuple:
    """Gan-Korandi-Sudakov lower bound (l+m-2) n - (l+m-2)^2."""
    if l < 1 or m < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got n={n}, l={l}, m={m}")
    k = l + m - 2
    return k * n - k * k, "reference", l >= 2 and m >= 2, ""


@_record("Ferrara-Jacobson-Pfender-Wenger multipartite triangle saturation number")
def f_fjpw(k: int, n: int) -> tuple:
    """Ferrara-Jacobson-Pfender-Wenger triangle saturation in balanced k-partite hosts.

    min{2kn + n^2 - 4k - 1, 3kn - 3n - 6}, stated for k >= 3 and n >= 100.
    """
    if k < 1 or n < 1:
        raise FormulaError(f"need positive parameters, got k={k}, n={n}")
    value = min(2 * k * n + n * n - 4 * k - 1, 3 * k * n - 3 * n - 6)
    return value, "reference", k >= 3 and n >= 100, ""


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
