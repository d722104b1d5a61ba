"""Formulas: frozen values, hypothesis flags, cross-formula identities."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from trisat import (FormulaError, f_bw, f_c4, f_con1_upper, f_con3_upper,
                    f_con4_upper, f_con5_upper, f_ehm, f_fjpw, f_gks_lower,
                    f_lll2_lower, f_ms_upper, f_sat_lll, f_sat_lll1)
from trisat.constructions import CONSTRUCTION_NAMES, build, formula_for
from trisat.formulas import FORMULAS, evaluate
from trisat.serialization import to_json_obj


def test_con1_upper_values():
    assert f_con1_upper(4, 4, 4, 1, 1).value == 18
    assert f_con1_upper(7, 6, 6, 2, 1).value == 47
    rec = f_con1_upper(5, 5, 5, 1, 1)
    assert rec.value == 24 and rec.hypothesis_satisfied  # n3 = 5 >= max(3, 0)
    assert not f_con1_upper(5, 5, 5, 3, 1).hypothesis_satisfied  # needs n3 >= 6


def test_con345_upper_values():
    assert f_con3_upper(5, 5, 5, 2, 2, 1).value == 27
    assert f_con4_upper(12, 3, 1).value == 129
    assert f_con5_upper(8, 4, 2, 1).value == 84


def test_sat_lll_values_and_thresholds():
    rec = f_sat_lll(450, 450, 450, 2)
    assert rec.value == 5385 and rec.hypothesis_satisfied  # threshold 438
    rec1 = f_sat_lll(100, 100, 100, 1)
    assert rec1.value == 594 and rec1.hypothesis_satisfied  # threshold 83
    assert rec1.kind == "exact"
    low = f_sat_lll(5, 5, 5, 2)
    # 2*2*15 - 3*4 - 3 = 45, matching the l=m construction count
    assert low.value == 45 == f_con1_upper(5, 5, 5, 2, 2).value
    assert not low.hypothesis_satisfied and low.kind == "upper"  # 5 >= con1_threshold(2, 2) = 4
    # below con1_threshold(l, l) no construction is in regime, and the exact
    # values lie above the formula: sat = 2 on (1,1,1) with l=1, 3 with l=2
    for args in ((1, 1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1), (3, 1, 1, 2), (2, 2, 2, 2),
                 (3, 2, 2, 2)):
        rec = f_sat_lll(*args)
        assert rec.kind == "reference" and "no construction is in regime" in rec.note, args
    assert f_sat_lll(2, 2, 2, 2).value == 9  # the value itself does not change


def test_sat_lll1_values_and_thresholds():
    assert f_sat_lll1(100, 100, 100, 2).value == 597
    rec = f_sat_lll1(83, 83, 83, 2)
    assert rec.value == 495 and rec.hypothesis_satisfied  # boundary: threshold 83
    rec3 = f_sat_lll1(10, 10, 10, 3)
    assert rec3.value == 108 and not rec3.hypothesis_satisfied
    assert f_sat_lll1(2, 2, 2, 2).kind == "upper"  # n3 = 2 >= con3_threshold(2)
    assert f_sat_lll1(2, 2, 1, 2).kind == "reference"
    with pytest.raises(FormulaError):
        f_sat_lll1(10, 10, 10, 1)


def test_lll2_lower_values():
    rec = f_lll2_lower(1000, 3)
    assert rec.value == 11418  # 12000 - (72*9 - 120 + 54)
    assert rec.kind == "lower" and not rec.hypothesis_satisfied and rec.note
    with pytest.raises(FormulaError):
        f_lll2_lower(100, 2)


def test_lll2_gap_to_upper_constant_in_n():
    for l in (3, 4, 5):
        gaps = {f_con5_upper(n, l, l, l - 2).value - f_lll2_lower(n, l).value
                for n in (50, 500, 5000)}
        assert len(gaps) == 1
        assert gaps.pop() >= 0
    # l = 3: upper 12n - 12 vs lower 12n - 582
    assert (f_con5_upper(70, 3, 3, 1).value - f_lll2_lower(70, 3).value) == 570


def test_c4_values():
    assert f_c4(2, 2, 2).value == 6 and f_c4(2, 2, 2).kind == "exact"
    assert f_c4(3, 2, 2).value == 7
    assert not f_c4(2, 2, 1).hypothesis_satisfied
    assert f_c4(2, 2, 1).note == "below size threshold n3 >= 2"
    assert f_c4(2, 2, 2).note == ""


def test_reference_values():
    assert f_ehm(10, 3).value == 9
    assert f_bw(5, 5, 2, 2).value == 9
    assert f_fjpw(3, 200).value == 1194
    assert f_fjpw(3, 200).value == f_sat_lll(200, 200, 200, 1).value
    assert f_ms_upper(10, 2, 3).value == 3 * 10 - 2  # floor((3/2)^2) = 2
    assert f_gks_lower(10, 2, 3).value == 3 * 10 - 9


def test_identity_sat_lll_equals_con1_on_balanced_pattern():
    rnd = random.Random(1)
    for _ in range(100):
        n = rnd.randint(1, 10**9)
        l = rnd.randint(1, 50)
        assert f_sat_lll(n, n, n, l).value == f_con1_upper(n, n, n, l, l).value


def test_identity_sat_lll1_equals_con3():
    rnd = random.Random(2)
    for _ in range(100):
        n3 = rnd.randint(2, 10**8)
        n2 = n3 + rnd.randint(0, 100)
        n1 = n2 + rnd.randint(0, 100)
        l = rnd.randint(2, 50)
        assert (f_sat_lll1(n1, n2, n3, l).value
                == f_con3_upper(n1, n2, n3, l, l, l - 1).value)


def test_triangle_cross_check_with_fjpw():
    for n in range(3, 300, 7):
        assert f_sat_lll(n, n, n, 1).value == f_fjpw(3, n).value


def test_ordering_gks_below_ms():
    for n in (1, 5, 50, 1000):
        for l in range(2, 8):
            for m in range(2, l + 1):
                assert f_gks_lower(n, l, m).value <= f_ms_upper(n, l, m).value


def test_big_integer_exactness():
    n = 10**9
    rec = f_sat_lll(n, n, n, 50)
    assert rec.value == 2 * 50 * 3 * n - 3 * 2500 - 3  # no wraparound


def test_shape_errors():
    with pytest.raises(FormulaError):
        f_con1_upper(4, 5, 4, 1, 1)  # ordering violation
    with pytest.raises(FormulaError):
        f_con3_upper(5, 5, 5, 2, 2, 2)  # p >= m


def test_registry_evaluate():
    rec = evaluate("sat_lll", {"n1": 450, "n2": 450, "n3": 450, "l": 2})
    assert rec.value == 5385
    assert evaluate("fjpw", {"k": 3, "n": 200}).value == 1194
    with pytest.raises(FormulaError):
        evaluate("sat_lll", {"n1": 1, "n2": 1, "n3": 1})  # missing l
    with pytest.raises(FormulaError):
        evaluate("nope", {})


# one parameter set per registered formula that every shape check accepts
_VALID = {
    "con1_upper": dict(n1=7, n2=6, n3=6, l=2, m=1),
    "con3_upper": dict(n1=7, n2=6, n3=5, l=3, m=2, p=1),
    "con4_upper": dict(n=12, l=3, m=1),
    "con5_upper": dict(n=8, l=4, m=2, p=1),
    "sat_lll": dict(n1=5, n2=5, n3=5, l=2),
    "sat_lll1": dict(n1=5, n2=5, n3=5, l=2),
    "lll2_lower": dict(n=100, l=3),
    "c4": dict(n1=3, n2=2, n3=2),
    "ehm": dict(n=10, k=3),
    "bw": dict(n1=5, n2=5, l=2, m=2),
    "ms_upper": dict(n=10, l=2, m=3),
    "gks_lower": dict(n=10, l=2, m=3),
    "fjpw": dict(k=3, n=200),
}


@pytest.mark.parametrize(("name", "slot"), [(name, slot) for name, (_, slots) in FORMULAS.items()
                                            for slot in slots])
def test_formula_parameters_must_be_integers(name, slot):
    fn = FORMULAS[name][0]
    fn(**_VALID[name])
    for bad in (2.0, True, "3", None):
        with pytest.raises(FormulaError, match=f"parameter {slot} must be an integer"):
            fn(**dict(_VALID[name], **{slot: bad}))


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_formula_numpy_integers_give_plain_int_params(name):
    fn = FORMULAS[name][0]
    rec = fn(**{k: np.int64(v) for k, v in _VALID[name].items()})
    assert rec == fn(**_VALID[name])
    assert all(type(v) is int for v in rec.params.values()) and type(rec.value) is int
    assert json.loads(json.dumps(rec.to_json_obj())) == rec.to_json_obj()


def records_digest() -> str:
    """sha256 over every registered formula on parameters 0..4 (and each
    slot set to 2.0, True, "3" or None at all-2 parameters), and per
    construction family over ``formula_for`` and ``build`` (unforced and
    forced) on small hosts with l, m in 0..4 and p in 0..3 where the family
    reads them.  A result writes its ``to_json_obj()``, an error its
    message only, so the exception class does not enter the digest."""
    digest = hashlib.sha256()

    def put(call, *args, **kwargs):
        try:
            out = call(*args, **kwargs)
            obj = out.to_json_obj() if hasattr(out, "to_json_obj") else to_json_obj(out)
        except ValueError as exc:
            obj = {"error": str(exc)}
        digest.update(json.dumps(obj, sort_keys=True).encode() + b"\n")

    for name in sorted(FORMULAS):
        fn, slots = FORMULAS[name]
        for vals in itertools.product(range(5), repeat=len(slots)):
            put(fn, *vals)
        for k in range(len(slots)):
            for bad in (2.0, True, "3", None):
                put(fn, *[bad if j == k else 2 for j in range(len(slots))])
    hosts = [(n, n, n) for n in range(1, 7)] + [(5, 4, 3), (6, 5, 5), (4, 4, 2), (3, 2, 1)]
    for which in CONSTRUCTION_NAMES:
        ls = [None] if which == "c4" else range(5)
        ps = range(4) if which in ("3", "5") else [None]
        for host, l, m, p in itertools.product(hosts, ls, ls, ps):
            for variant in ((1, 3) if which == "2" else (1,)):
                put(formula_for, which, *host, l=l, m=m, p=p)
                for force in (False, True):
                    put(build, which, *host, l=l, m=m, p=p, variant=variant, force=force)
        base = dict(n1=6, n2=6, n3=6, l=None if which == "c4" else 3, m=None if which == "c4" else 2,
                    p=1 if which in ("3", "5") else None)
        for slot in [k for k, v in base.items() if v is not None]:
            for bad in (1.0, True, None):
                put(formula_for, which, **dict(base, **{slot: bad}))
                put(build, which, **dict(base, **{slot: bad}))
    return digest.hexdigest()


def test_formula_records_pinned_by_digest():
    assert records_digest() == "7135b32af5c182b5bfce191cb8fc9e0f2458be0297a1f98eca5b8fd5e70fb171"
