"""Verifiers: reports, witnesses (re-validated by independent evaluation),
the exhaustive PP scan, the degree criterion, and the identity checks."""

import numpy as np
import pytest

from ffperm import (CapExceeded, MultiPoly, UnsupportedField, assert_degree,
                    check_identities, check_lemma_deg, conjecture_fn, is_lpp,
                    is_pp, lpp_beta, make_field, poly_build, points, pp_hn,
                    preimage_counts, scan_pp_degree_bound, t_poly, to_table)
from ffperm import mvpoly, verify
from ffperm.mvpoly import (FuncTable, _dense_matrix, compose_univariate,
                           interpolate, monomial)
from oracle import (NaiveField, naive_balanced_tables, naive_degree,
                    naive_eval, naive_interp_univariate)

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
    rep = is_pp(monomial(F3, 2, (0, 0), 2))
    assert not rep.ok
    assert rep.witness == {"value": 2, "count": 9, "expected": 3}


def test_is_pp_square_histogram():
    x = monomial(F5, 1, (1,))
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


def test_assert_degree_equals_full_readout(family_polys):
    # the corner readout must give the report the whole coefficient tensor
    # gives, also when the expected degree is wrong and the corner misses
    # the leading terms (at D = 6 for the hand-made one)
    misses = poly_build(F5, 2, [((2, 2), 1), ((4, 1), 2)])
    for label, f in family_polys + [("corner misses", misses)]:
        field, q, n = f.field, f.field.q, f.n
        total = f.total_degree
        lead = [{"exps": list(e), "coeff": field.coeffs_of(c)}
                for e, c in f.terms() if sum(e) == total]
        for D in (total, total + 1, n * (q - 1) + 5, -1):
            ok = total == D
            want = {"kind": "DEGREE", "verdict": "pass" if ok else "fail",
                    "witness": None if ok else {"measured": total,
                                                "expected": D},
                    "stats": {"points": 0}, "label": "theorem",
                    "detail": {"measured": total, "expected": D,
                               "leading_terms": lead}}
            for g in (interpolate(FuncTable(field, n, to_table(f).values)),
                      MultiPoly(field, n, f.coeffs)):
                doc = assert_degree(g, D).to_json()
                del doc["stats"]["ms"]
                assert doc == want, (label, D)


def test_assert_degree_leaves_coefficients_cached(monkeypatch):
    # a table-only polynomial is interpolated once, with the full q x q
    # interpolation matrix, so reading coeffs after the check applies no
    # transform
    from ffperm import _kernels
    polys = [interpolate(to_table(pp_hn(field, n)))
             for field in (F3, F4, F5, F9) for n in (1, 2, 3)]
    shapes = []
    real = _kernels.mat_apply

    def recording(M, A, add_t, mul_t):
        shapes.append(M.shape)
        return real(M, A, add_t, mul_t)

    monkeypatch.setattr(_kernels, "mat_apply", recording)
    for f in polys:
        q = f.field.q
        shapes.clear()
        assert assert_degree(f, f.n * (q - 1) - 1).ok
        assert shapes == [(q, q)] * f.n
        f.coeffs
        assert shapes == [(q, q)] * f.n


def test_assert_degree_reads_expected_exactly():
    # a fractional expected degree is refused, not reported as a failure
    # whose witness shows no difference
    f = pp_hn(F5, 2)                                         # degree 7
    with pytest.raises(ValueError, match=r"^expected degree must be an "
                                         r"integer, not 7\.5$"):
        assert_degree(f, 7.5)
    for expected in (7.0, np.int64(7)):
        rep = assert_degree(f, expected)
        assert rep.ok and rep.detail["expected"] == 7
        assert type(rep.detail["expected"]) is int


def test_zero_variables():
    c = poly_build(F5, 0, [((), 3)])
    z = poly_build(F5, 0, [])
    rep = assert_degree(c, 0)
    assert rep.ok and rep.detail["leading_terms"] == [{"exps": [],
                                                       "coeff": [3]}]
    assert assert_degree(z, -1).ok
    assert assert_degree(z, 0).witness == {"measured": -1, "expected": 0}
    for check in (is_pp, is_lpp):
        for g in (c, z):
            with pytest.raises(ValueError, match="need at least one variable"):
                check(g)


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


def test_scan_7_1_through_the_multi_stage_plan(monkeypatch):
    # q - 1 = 6 = 2 * 3 is composite: with the plan's costs zeroed, all
    # 5040 tables interpolate through the DFT, and the report is unchanged
    from ffperm import mvpoly
    want = scan_pp_degree_bound(F7, 1)
    assert want.ok and want.detail["tables"] == 5040
    assert want.detail["max_degree"] == 5 == want.detail["bound"]
    staged = []
    real = mvpoly._dft

    def recording(f, A, inverse, radices):
        staged.append((A.shape, inverse, radices))
        return real(f, A, inverse, radices)

    monkeypatch.setattr(mvpoly, "_STAGE_ROWS", 0)
    monkeypatch.setattr(mvpoly, "_DFT_MIN", 0)
    monkeypatch.setattr(mvpoly, "_dft", recording)
    got = scan_pp_degree_bound(F7, 1)
    assert staged == [((7, 5040), True, [2, 3])]
    assert got.ok and got.detail == want.detail


def test_scan_reports_the_first_table_over_the_bound(monkeypatch):
    # a transform that adds the top-degree term x1^2 x2^2 to every table's
    # interpolant puts each one over the bound 3, and the witness names the
    # first table in lexicographic order
    real = verify._transform

    def spoiled(field, arr, inverse, nvars=None):
        out = real(field, arr, inverse, nvars).copy()
        out[..., field.q - 1, field.q - 1] = 1
        return out

    monkeypatch.setattr(verify, "_transform", spoiled)
    rep = scan_pp_degree_bound(F3, 2)
    assert not rep.ok
    assert rep.witness == {"table": [0, 0, 0, 1, 1, 1, 2, 2, 2],
                           "degree": 4, "bound": 3}
    assert rep.detail == {"tables": 1680, "pp_count": 1680, "max_degree": 4,
                          "bound": 3, "degree_histogram": {4: 1680}}
    assert rep.to_json()["verdict"] == "fail"


def test_scan_counts_match_formula():
    # number of balanced tables is (q^n)! / ((q^(n-1))!)^q
    from math import factorial
    for (q, n, want) in [(2, 2, 6), (2, 3, 70), (3, 2, 1680)]:
        assert factorial(q**n) // factorial(q**(n - 1))**q == want
    for q, n in [(2, 1), (2, 4), (3, 1), (3, 3), (4, 2), (5, 2), (7, 1)]:
        size, part = q**n, q**(n - 1)
        assert (verify._balanced_count(size, part, 10**40)
                == factorial(size) // factorial(part)**q)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (4, 1), (5, 1), (7, 1)])
def test_balanced_tables_match_the_recursive_enumeration(q, n):
    # the same tables in the same order: the scan's witness is the first
    # failing table, so the order is part of its output
    want = np.array(list(naive_balanced_tables(q, n)), dtype=np.int64)
    got = verify._balanced_tables(q, n, len(want))
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_scan_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        scan_pp_degree_bound(F5, 2)         # 623e9 tables >> default cap
    monkeypatch.setenv("FFPERM_SCAN_CAP", "100")
    with pytest.raises(CapExceeded, match="^1680 balanced tables exceed"):
        scan_pp_degree_bound(F3, 2)
    monkeypatch.delenv("FFPERM_SCAN_CAP")
    with pytest.raises(CapExceeded):
        scan_pp_degree_bound(F3, 10**12)    # refused before 3^n is built
    # 2^20 points fit the point cap; the count of 2^20-point tables stops
    # at 10^30 instead of building a million-digit factorial
    with pytest.raises(CapExceeded, match=r"^more than 10{30} balanced "
                                          r"tables exceed the scan cap$"):
        scan_pp_degree_bound(make_field(2), 20)
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


def test_lemma_deg_is_exact_above_q_5():
    for field in (F7, make_field(2, 3), F9, make_field(2, 10)):
        rep = check_lemma_deg(field)
        assert rep.ok
        assert rep.detail == {"mode": "exact"}
        assert rep.stats["points"] == 2 * field.q


def unit_table_top_coeffs(ref):
    """Coefficients q-1 and q-2 of the interpolant of every unit table e_a,
    prod_{b != a} (x - b) / prod_{b != a} (a - b), read off by Vieta: the
    monic numerator has x^{q-2} coefficient -sum_{b != a} b, and a - b runs
    over all of F_q^*, so every denominator is the product of F_q^*."""
    denom, total = 1, 0
    for b in range(1, ref.q):
        denom, total = ref.mul(denom, b), ref.add(total, b)
    inv = ref.inv(denom)
    return [(inv, ref.mul(ref.sub(a, total), inv)) for a in range(ref.q)]


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4), (5, 2), (3, 3), (2, 5),
                                 (3, 5), (3, 6), (2, 10)])
def test_lagrange_rows_meet_the_lemma(p, r):
    # rows q-1 and q-2 of the interpolation matrix are -1 and -a, as the
    # oracle's unit tables say; its column a interpolates the unit table
    # e_a, so columns 0, 1 and q-1 are checked in full against the oracle;
    # reading every unit table costs O(q^2) naive field products, so above
    # q = 32 the top coefficients come from the Vieta reading it checks up
    # to 32
    field = make_field(p, r)
    ref, q = naive_of(field), field.q
    lagr = _dense_matrix(field, True)
    for a in (0, 1, q - 1):
        unit = [int(b == a) for b in range(q)]
        assert lagr[:, a].tolist() == naive_interp_univariate(ref, unit)
    top = unit_table_top_coeffs(ref)
    if q <= 32:
        for a in range(q):
            coeffs = naive_interp_univariate(ref, [int(b == a)
                                                   for b in range(q)])
            assert (coeffs[q - 1], coeffs[q - 2]) == top[a]
    assert top == [(ref.neg(1), ref.neg(a)) for a in range(q)]
    assert lagr[q - 1].tolist() == [c for c, _ in top]
    assert lagr[q - 2].tolist() == [c for _, c in top]
    assert check_lemma_deg(field).ok


@pytest.fixture
def spoil(monkeypatch):
    """spoil(*entries) adds 1 at each (row, rank) of every interpolation
    matrix that mvpoly._dense_matrix makes, where check_lemma_deg and the
    transform read it: in the column of that rank, also when the matrix
    holds only the columns cols."""
    real = mvpoly._dense_matrix

    def apply(*entries):
        def spoiled(field, inverse, cols=None):
            M = real(field, inverse, cols)
            at = np.arange(field.q) if cols is None else cols
            if inverse:
                for e, c in entries:
                    for j in np.flatnonzero(at == c):
                        M[e, j] = field.add(int(M[e, j]), 1)
            return M

        monkeypatch.setattr(mvpoly, "_dense_matrix", spoiled)
        monkeypatch.setattr(verify, "_dense_matrix", spoiled)
    return apply


def test_lemma_deg_spoiled_row_names_the_first_entry(spoil):
    spoil((6, 2), (5, 4))
    rep = check_lemma_deg(F7)
    assert not rep.ok
    assert rep.detail == {"mode": "exact"}
    assert rep.witness == {"row": 5, "rank": 4, "entry": 4, "expected": 3}
    spoil((7, 5))
    rep = check_lemma_deg(make_field(2, 3))
    assert rep.witness == {"row": 7, "rank": 5, "entry": 0, "expected": 1}


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1)])
def test_lemma_deg_enumeration_agrees_with_rows(spoil, p, r):
    # for q <= 5 the q^q enumeration runs after the row check: both pass on
    # the field, and a spoiled row fails at the rows before it is reached
    field = make_field(p, r)
    q = field.q
    rep = check_lemma_deg(field)
    assert rep.ok and rep.detail["mode"] == "exhaustive"
    lagr = _dense_matrix(field, True)
    assert lagr[q - 1].tolist() == [field.neg(1)] * q
    assert lagr[q - 2].tolist() == [field.neg(a) for a in range(q)]
    spoil((q - 1, 1))
    rep = check_lemma_deg(field)
    assert not rep.ok and rep.detail == {"mode": "exact"}


def test_lemma_deg_q2_rests_on_the_enumeration(spoil):
    # at q = 2 row 0 reads 1 + a, so no row check runs; a spoiled top row
    # is caught by the enumeration of the four tables
    F2 = make_field(2)
    assert _dense_matrix(F2, True).tolist() == [[1, 0], [1, 1]]
    spoil((1, 0))
    rep = check_lemma_deg(F2)
    assert not rep.ok
    assert rep.detail["mode"] == "exhaustive"
    assert set(rep.witness) == {"table", "degree_is_q_minus_2",
                                "criterion_holds"}


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2)])
def test_lemma_sums_match_the_oracle(p, r):
    field = make_field(p, r)
    ref, q = naive_of(field), field.q
    tables = np.concatenate([field.mul_t, _dense_matrix(field, False),
                             _dense_matrix(field, True)])
    got = verify.lemma_sums(field, tables)
    for k, alpha in enumerate(tables.tolist()):
        s_alpha = s_a_alpha = 0
        for a, v in enumerate(alpha):
            s_alpha = ref.add(s_alpha, v)
            s_a_alpha = ref.add(s_a_alpha, ref.mul(a, v))
        assert got[:, k].tolist() == [s_alpha, s_a_alpha]


# -- identities and conjecture ----------------------------------------------------------

@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (11, 1), (2, 4)])
def test_identities(p, r):
    rep = check_identities(make_field(p, r))
    assert rep.ok
    assert rep.detail == {"h_of_inverse_power": True, "hbar_of_t": True,
                          "t_is_transposition": True}


def test_identities_test_t_by_its_coefficients(monkeypatch):
    # t_poly's table is the transposition itself, so Lemma 2.2's third
    # identity must compare coefficients: a t whose formula is off by one
    # coefficient but whose table is right still fails it
    field = F7
    good = t_poly(field)
    coeffs = good.coeffs.copy()
    coeffs[3] = field.add(int(coeffs[3]), 1)
    bad = MultiPoly(field, 1, coeffs, values=good._values())
    monkeypatch.setattr(verify, "t_poly", lambda _: bad)
    rep = check_identities(field)
    assert not rep.ok and rep.witness == {"failed": ["t_is_transposition"]}


def test_identities_refuse_f2():
    # at q = 2, h is the empty sum and both identities fail
    with pytest.raises(UnsupportedField, match=r"^Lemma 2\.2 needs q >= 3$"):
        check_identities(make_field(2))


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


def test_conjecture_reads_n_exactly():
    # n is read once as an int, so a float count that is whole gives the
    # same report as the int, with an int expected degree; 2.5 is refused
    rep = conjecture_fn(F5, 2.0)
    assert rep.detail == {"measured": 6, "expected": 6}
    assert type(rep.detail["expected"]) is int
    assert rep.stats["points"] == 25
    assert conjecture_fn(F5, np.int64(2)).detail == rep.detail
    with pytest.raises(ValueError, match="n must be an integer"):
        conjecture_fn(F5, 2.5)


# -- caps --------------------------------------------------------------------------------

def test_point_cap_respected(monkeypatch):
    f = poly_build(F5, 3, [((1, 1, 1), 1)])  # build before tightening the cap
    monkeypatch.setenv("FFPERM_POINT_CAP", "100")
    with pytest.raises(CapExceeded):
        is_pp(f)
    with pytest.raises(CapExceeded):
        is_lpp(f)
    monkeypatch.setenv("FFPERM_POINT_CAP", "125")
    assert is_pp(f).to_json()["verdict"] == "fail"


def test_every_table_read_is_capped(monkeypatch):
    # the cap is checked on each read of a polynomial's value table, so no
    # public operation evaluates past a cap tightened after the build
    f = poly_build(F5, 3, [((1, 1, 1), 1)])     # coefficients only
    x = monomial(F5, 1, (1,))
    monkeypatch.setenv("FFPERM_POINT_CAP", "100")
    for call in (lambda: f + f, lambda: f - f, lambda: -f, lambda: f * f,
                 lambda: f.scale(2), lambda: f**2, lambda: f == f,
                 lambda: hash(f), lambda: f.substitute(0, 1),
                 lambda: f.substitute(0, x), lambda: f.evaluate((1, 1, 1)),
                 lambda: compose_univariate(x, f), lambda: to_table(f),
                 lambda: preimage_counts(f)):
        with pytest.raises(CapExceeded,
                           match=r"^5\^3 points exceed the point cap$"):
            call()
        assert f._vals is None


def test_is_pp_and_is_lpp_read_the_point_cap_once(monkeypatch):
    # each checker and table reader reads the cap once, on its one read of
    # the table
    reads = []
    real = mvpoly.point_cap

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(mvpoly, "point_cap", counting)
    for f in (poly_build(F5, 3, [((1, 1, 1), 1)]),     # coefficients only
              interpolate(FuncTable(F5, 2, list(range(5)) * 5))):  # table
        for check in (is_pp, is_lpp, to_table, preimage_counts):
            reads.clear()
            check(f)
            assert len(reads) == 1, check.__name__


def test_interpolation_is_capped(monkeypatch):
    # a held table is interpolated only under the point cap, as to_table
    # evaluates only under it
    monkeypatch.setenv("FFPERM_POINT_CAP", "3")
    f = interpolate(FuncTable(F5, 2, list(range(5)) * 5))    # f = x2
    with pytest.raises(CapExceeded,
                       match=r"^5\^2 points exceed the point cap$"):
        assert_degree(f, 1)
    assert f._coeffs is None
    monkeypatch.delenv("FFPERM_POINT_CAP")
    assert assert_degree(f, 1).ok


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
