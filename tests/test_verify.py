"""Verifiers: reports, witnesses (re-validated by independent evaluation),
the exhaustive PP scan, the degree criterion, and the identity checks."""

import numpy as np
import pytest

from ffperm import (CapExceeded, UnsupportedField, assert_degree,
                    check_identities, check_lemma_deg, conjecture_fn, is_lpp,
                    is_pp, lpp_beta, make_field, poly_build, points,
                    preimage_counts, scan_pp_degree_bound, t_poly)
from ffperm.mvpoly import constant, interpolate, monomial, variable, FuncTable
from oracle import NaiveField, naive_eval, naive_interp_univariate, naive_degree

F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


def naive_of(field):
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


# -- report shape -----------------------------------------------------------------

def test_report_json_shape():
    rep = is_pp(t_poly(F5))
    doc = rep.to_json()
    assert doc["kind"] == "PP"
    assert doc["verdict"] == "pass"
    assert doc["witness"] is None
    assert doc["label"] == "theorem"
    assert doc["stats"]["points"] == 5
    assert isinstance(doc["stats"]["ms"], int)
    assert "detail" not in doc


# -- is_pp -------------------------------------------------------------------------

def test_is_pp_constant_witness():
    rep = is_pp(constant(F3, 2, 2))
    assert not rep.ok
    assert rep.witness == {"value": 2, "count": 9, "expected": 3}


def test_is_pp_square_histogram():
    x = variable(F5, 1, 0)
    assert preimage_counts(x * x) == {0: 1, 1: 2, 2: 0, 3: 0, 4: 2}
    rep = is_pp(x * x)
    assert not rep.ok
    assert rep.witness == {"value": 1, "count": 2, "expected": 1}


def test_preimage_counts_sum():
    f = poly_build(F9, 2, [((2, 1), 3), ((1, 0), 1)])
    counts = preimage_counts(f)
    assert sum(counts.values()) == 81


def test_is_pp_witness_reverifiable():
    f = poly_build(F5, 2, [((2, 0), 1), ((0, 1), 2)])  # x1^2 + 2 x2: a PP
    assert is_pp(f).ok
    g = poly_build(F5, 2, [((2, 0), 1), ((0, 2), 1)])  # x1^2 + x2^2: not
    rep = is_pp(g)
    assert not rep.ok
    w = rep.witness
    ref = naive_of(F5)
    hits = sum(1 for pt in points(F5, 2)
               if naive_eval(ref, 2, g.terms(), pt) == w["value"])
    assert hits == w["count"] != w["expected"]


# -- is_lpp ------------------------------------------------------------------------

def test_is_lpp_witness_lowest_and_reverifiable():
    f = poly_build(F4, 2, [((3, 0), 1), ((0, 1), 1)])   # x1^3 + x2
    assert is_pp(f).ok
    rep = is_lpp(f)
    assert not rep.ok
    assert rep.witness == {"coordinate": 1, "assignment": [0],
                           "colliding": [1, 2], "value": 1}
    # re-verify by direct evaluation: vary coordinate 1 with x2 = 0
    a, b = rep.witness["colliding"]
    va = f.evaluate([a, 0])
    vb = f.evaluate([b, 0])
    assert va == vb == rep.witness["value"]


@pytest.mark.parametrize("field", [F3, F4, F5])
def test_pp_not_lpp_control(field):
    q = field.q
    f = poly_build(field, 2, [((q - 1, 0), 1), ((0, 1), 1)])
    assert is_pp(f).ok
    assert not is_lpp(f).ok


def test_is_lpp_passes():
    assert is_lpp(lpp_beta(F4, 2)).ok
    assert is_lpp(poly_build(F5, 2, [((1, 0), 1), ((0, 1), 1)])).ok


def test_lpp_implies_pp_on_samples():
    for f in (lpp_beta(F4, 2), lpp_beta(make_field(2, 3), 2)):
        assert is_lpp(f).ok and is_pp(f).ok


# -- assert_degree -------------------------------------------------------------------

def test_assert_degree_detail():
    f = poly_build(F5, 3, [((3, 3, 3), 1), ((1, 0, 0), 2)])
    rep = assert_degree(f, 9)
    assert rep.ok
    assert rep.detail["measured"] == 9
    assert rep.detail["expected"] == 9
    assert rep.detail["leading_terms"] == [{"exps": [3, 3, 3], "coeff": [1]}]
    bad = assert_degree(f, 8)
    assert not bad.ok and bad.witness["measured"] == 9


# -- scan ------------------------------------------------------------------------------

def test_scan_2_2():
    rep = scan_pp_degree_bound(make_field(2), 2)
    assert rep.ok
    assert rep.detail == {"tables": 6, "pp_count": 6, "max_degree": 1,
                          "bound": 1, "degree_histogram": {1: 6}}


def test_scan_2_3():
    rep = scan_pp_degree_bound(make_field(2), 3)
    assert rep.ok
    assert rep.detail["tables"] == 70
    assert rep.detail["degree_histogram"] == {1: 14, 2: 56}


def test_scan_3_2():
    rep = scan_pp_degree_bound(F3, 2)
    assert rep.ok
    assert rep.detail["tables"] == 1680
    assert rep.detail["degree_histogram"] == {1: 24, 2: 144, 3: 1512}
    assert rep.detail["max_degree"] == 3 == rep.detail["bound"]


def test_scan_counts_match_formula():
    # number of balanced tables is (q^n)! / ((q^(n-1))!)^q
    from math import factorial
    for (q, n, want) in [(2, 2, 6), (2, 3, 70), (3, 2, 1680)]:
        assert factorial(q**n) // factorial(q**(n - 1))**q == want


def test_scan_cap():
    with pytest.raises(CapExceeded):
        scan_pp_degree_bound(F5, 2)         # 623e9 tables >> default cap
    with pytest.raises(CapExceeded):
        scan_pp_degree_bound(F3, 2, table_cap=100)
    with pytest.raises(CapExceeded):
        scan_pp_degree_bound(F3, 10**12)    # refused before 3^n is built
    with pytest.raises(ValueError):
        scan_pp_degree_bound(F3, 0)


# -- degree criterion ----------------------------------------------------------------

def brute_lemma_counts(field):
    """Count, over all value tables, interpolants of degree exactly q-2 and
    tables meeting the sum criterion; they must be the same tables."""
    import itertools
    ref = naive_of(field)
    q = field.q
    checked = agree = hits = 0
    for vals in itertools.product(range(q), repeat=q):
        coeffs = naive_interp_univariate(ref, vals)
        is_deg = naive_degree(coeffs) == q - 2
        s_alpha = 0
        s_a_alpha = 0
        for a, v in enumerate(vals):
            s_alpha = ref.add(s_alpha, v)
            s_a_alpha = ref.add(s_a_alpha, ref.mul(a, v))
        crit = (s_alpha == 0) and (s_a_alpha != 0)
        checked += 1
        agree += int(is_deg == crit)
        hits += int(is_deg)
    return checked, agree, hits


@pytest.mark.parametrize("field,hits", [(F3, 6), (F4, 48)])
def test_lemma_deg_exhaustive_matches_brute_force(field, hits):
    rep = check_lemma_deg(field)
    assert rep.ok
    assert rep.detail["mode"] == "exhaustive"
    checked, agree, brute_hits = brute_lemma_counts(field)
    assert rep.detail["checked"] == checked
    assert rep.detail["degree_q_minus_2"] == brute_hits == hits
    assert agree == checked


def test_lemma_deg_f5_exhaustive():
    rep = check_lemma_deg(F5)
    assert rep.ok
    assert rep.detail == {"checked": 3125, "degree_q_minus_2": 500,
                          "mode": "exhaustive"}


def test_lemma_deg_sampled_records_seed():
    rep = check_lemma_deg(F7, trials=1000, seed=42)
    assert rep.ok
    assert rep.detail["mode"] == "random"
    assert rep.detail["trials"] == 1000
    assert rep.detail["seed"] == 42
    # deterministic for a fixed seed
    rep2 = check_lemma_deg(F7, trials=1000, seed=42)
    assert rep2.detail == rep.detail


# -- identities and conjecture ----------------------------------------------------------

@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (11, 1), (2, 4)])
def test_identities(p, r):
    rep = check_identities(make_field(p, r))
    assert rep.ok
    assert rep.detail == {"h_of_inverse_power": True, "hbar_of_t": True,
                          "t_is_transposition": True}


def test_conjecture_label_and_result():
    rep = conjecture_fn(F5, 2)
    assert rep.ok
    assert rep.label == "conjecture evidence"
    assert rep.to_json()["label"] == "conjecture evidence"
    assert rep.detail["measured"] == 6
    with pytest.raises(UnsupportedField):
        conjecture_fn(F4, 2)
    with pytest.raises(UnsupportedField):
        conjecture_fn(F3, 2)
    with pytest.raises(CapExceeded):
        conjecture_fn(F5, 9)
    with pytest.raises(CapExceeded):
        conjecture_fn(F5, 10**12)           # refused before 5^n is built


# -- caps --------------------------------------------------------------------------------

def test_point_cap_respected():
    f = poly_build(F5, 3, [((1, 1, 1), 1)])
    with pytest.raises(CapExceeded):
        is_pp(f, cap=100)
    with pytest.raises(CapExceeded):
        is_lpp(f, cap=100)
    assert is_pp(f, cap=125).to_json()["verdict"] == "fail"


def test_env_cap_override(monkeypatch):
    f = poly_build(F5, 2, [((1, 1), 1)])   # build before tightening the cap
    monkeypatch.setenv("FFPERM_POINT_CAP", "10")
    with pytest.raises(CapExceeded):
        is_pp(f)
    with pytest.raises(CapExceeded):
        poly_build(F5, 2, [((1, 0), 1)])   # construction is capped too
    monkeypatch.delenv("FFPERM_POINT_CAP")
    assert not is_pp(f).ok                 # x1*x2 sends 9 points to zero
    # but x1 alone IS a balanced 2-variable map, hence a PP
    assert is_pp(poly_build(F5, 2, [((1, 0), 1)])).ok
