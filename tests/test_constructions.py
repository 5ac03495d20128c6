"""Family builders: exact frozen forms for small cells, degree formulas,
permutation properties cross-checked against the naive oracle, and the
predicate errors for unusable fields."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from ffperm import (BadDegree, CapExceeded, FFPermError, FieldMismatch,
                    MultiPoly, NoValidB, NotMaxLpp, UnsupportedField,
                    assert_degree, build_family, dickson, indicator_poly,
                    interpolate, is_lpp, is_pp, lpp_beta,
                    lpp_chain, lpp_indicator, lpp_linear, lpp_max, lpp_power,
                    lpp_restrict, lpp_three, make_field, poly_build,
                    pp_alpha4, pp_dickson, pp_hn, pp_monomial, pp_product,
                    scan_pp_degree_bound, t_poly, to_table, transposition)
from ffperm.constructions import FAMILY_TAGS, block_sizes
from ffperm.mvpoly import FuncTable, extend, monomial, points
from oracle import (SMALL_FIELDS, NaiveField, all_points,
                    naive_interp_univariate, naive_is_lpp, naive_is_pp,
                    naive_poly_build, naive_poly_mul)

F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F11 = make_field(11)
F16 = make_field(2, 4)


def naive_of(field):
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


def oracle_terms(field, n, terms):
    """The oracle's reduced form of a raw term list: folded, like terms
    added one at a time, zeros dropped, sorted."""
    return naive_poly_build(naive_of(field), n, terms)


def t_terms(q):
    """t(x) = x + sum_{k=0}^{q-2} x^k, as raw terms."""
    return [((k,), 1) for k in range(q - 1)] + [((1,), 1)]


def placed(terms, n, i):
    """Univariate raw terms moved onto x_{i+1} of n variables."""
    return [((0,) * i + e + (0,) * (n - 1 - i), c) for e, c in terms]


def product_terms(field, n, terms):
    """prod_i u(x_i) for the univariate raw terms u, by the oracle."""
    ref = naive_of(field)
    out = [((0,) * n, 1)]
    for i in range(n):
        out = naive_poly_mul(ref, n, out, placed(terms, n, i))
    return out


# -- pp_hn ---------------------------------------------------------------------

def test_pp_hn_f3_exact():
    assert pp_hn(F3, 2).terms() == [((0, 1), 1), ((2, 0), 1), ((2, 1), 1)]


@pytest.mark.parametrize("field,n", [(F3, 2), (F4, 2), (F5, 2), (F3, 3)])
def test_pp_hn_is_pp_naive(field, n):
    f = pp_hn(field, n)
    assert naive_is_pp(naive_of(field), n, f.terms())
    assert f.total_degree == n * (field.q - 1) - 1


def hn_terms(q, n):
    """x_1^{q-1}..x_{n-1}^{q-1}(t(x_n) - x_n) + x_n, where t(x) - x holds
    every x^k with k <= q-2."""
    head = (q - 1,) * (n - 1)
    return ([(head + (k,), 1) for k in range(q - 1)]
            + [((0,) * (n - 1) + (1,), 1)])


def test_pp_hn_degree_grid():
    for field in (F3, F4, F5, F7, F8, F9):
        for n in (1, 2, 3):
            f = pp_hn(field, n)
            assert f.total_degree == n * (field.q - 1) - 1
            assert is_pp(f).ok
            assert f.terms() == oracle_terms(field, n, hn_terms(field.q, n))


# -- pp_monomial -----------------------------------------------------------------

def test_pp_monomial_form():
    f = pp_monomial(F5, 2)
    assert f.terms() == [((0, 3), 1), ((4, 3), 1)]
    assert naive_is_pp(naive_of(F5), 2, f.terms())


def test_pp_monomial_needs_odd_p():
    with pytest.raises(UnsupportedField):
        pp_monomial(F4, 2)


# -- pp_alpha4 --------------------------------------------------------------------

# printed two-variable form, frozen term for term: the sum of all monomials
# with per-variable exponent <= 3 and total degree <= 5, plus x_1 (which
# cancels the lone x_1 monomial in characteristic 2)
ALPHA2_TERMS = sorted([
    ((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), 1),
    ((1, 1), 1), ((1, 2), 1), ((1, 3), 1),
    ((2, 0), 1), ((2, 1), 1), ((2, 2), 1), ((2, 3), 1),
    ((3, 0), 1), ((3, 1), 1), ((3, 2), 1),
])


def test_pp_alpha4_printed_form():
    assert pp_alpha4(F4, 2).terms() == ALPHA2_TERMS


def test_pp_alpha4_n1():
    assert pp_alpha4(F4, 1).terms() == [((0,), 1), ((2,), 1)]  # 1 + x^2


def test_pp_alpha4_recursion_values():
    # alpha_n(x_1,..,x_{n-1},1) == x_1^3..x_{n-1}^3 + x_1
    for n in (2, 3):
        f = pp_alpha4(F4, n)
        g = f.substitute(n - 1, 1)
        want = monomial(F4, n - 1, (3,) * (n - 1)) + monomial(
            F4, n - 1, (1,) + (0,) * (n - 2))
        assert g == want


def test_pp_alpha4_grid():
    for n in (1, 2, 3):
        f = pp_alpha4(F4, n)
        assert f.total_degree == 3 * n - 1
        assert is_pp(f).ok
        terms = [(e, 1) for e in itertools.product(range(4), repeat=n)
                 if sum(e) <= 3 * n - 1]
        terms.append(((1,) + (0,) * (n - 1), 1))
        assert f.terms() == oracle_terms(F4, n, terms)
    assert naive_is_pp(naive_of(F4), 2, pp_alpha4(F4, 2).terms())
    with pytest.raises(UnsupportedField):
        pp_alpha4(F5, 1)


# -- pp_dickson -------------------------------------------------------------------

def test_pp_dickson_16():
    f1 = pp_dickson(F16, 1)
    assert f1.terms() == [((2,), 1), ((10,), 1), ((14,), 1)]
    assert f1.total_degree == 14 and is_pp(f1).ok
    f2 = pp_dickson(F16, 2)
    assert f2.total_degree == 29 and is_pp(f2).ok


def test_pp_dickson_predicate():
    for field in (F4, F5, F8, F9):
        with pytest.raises(UnsupportedField):
            pp_dickson(field, 1)


# -- pp_product -------------------------------------------------------------------

def test_pp_product_qnr_f5():
    f = pp_product(F5, 1, "QNR")
    # (x1^4 - 2) * t(x2), with 2 the smallest non-square mod 5
    assert f.n == 2 and f.total_degree == 7
    assert naive_is_pp(naive_of(F5), 2, f.terms())


def test_pp_product_grid():
    for field, n in [(F5, 1), (F5, 2), (F9, 1), (F9, 2)]:
        f = pp_product(field, n, "QNR")
        assert f.n == n + 1
        assert f.total_degree == (n + 1) * (field.q - 1) - 1
        assert is_pp(f).ok
    f = pp_product(F16, 1, "NONCUBE")
    assert f.total_degree == 29 and is_pp(f).ok
    for n in (1, 2, 3):
        f = pp_product(F8, n, "MERSENNE")
        assert f.total_degree == (n + 1) * 7 - 1 and is_pp(f).ok
        # (x_1^7..x_n^7 + alpha) t(y), alpha = 2 by default
        factor = [((7,) * n + (0,), 1), ((0,) * (n + 1), 2)]
        want = naive_poly_mul(naive_of(F8), n + 1, factor,
                              placed(t_terms(8), n + 1, n))
        assert f.terms() == oracle_terms(F8, n + 1, want)


def test_pp_product_default_a_is_smallest_non_power():
    ref = naive_of(F9)
    squares = {ref.pow(w, 2) for w in range(9)}
    expected_a = min(a for a in range(9) if a not in squares)
    _, params = build_family("pp_qnr", F9, n=1)
    assert params == {"variant": "qnr", "a": expected_a}


def test_pp_product_predicates():
    with pytest.raises(UnsupportedField):
        pp_product(F4, 1, "QNR")          # even q has no non-squares
    with pytest.raises(UnsupportedField):
        pp_product(F8, 1, "NONCUBE")      # needs r even
    with pytest.raises(UnsupportedField):
        pp_product(F16, 1, "MERSENNE")    # needs r odd > 1
    with pytest.raises(ValueError):
        pp_product(F8, 1, "MERSENNE", a_or_alpha=1)   # alpha must avoid 0, 1
    with pytest.raises(ValueError):
        pp_product(F5, 1, "QNR", a_or_alpha=4)        # 4 = 2^2 is a square
    with pytest.raises(BadDegree):
        pp_product(F5, 1, "QNR", fy=poly_build(F5, 1, [((1,), 1)]))
    with pytest.raises(ValueError):
        pp_product(F5, 1, "WHATEVER")
    with pytest.raises(BadDegree) as err:
        pp_product(F5, 2, "QNR", g=poly_build(F5, 1, [((2,), 1)]))
    assert str(err.value) == "g must have 2 variables"


def test_pp_product_mersenne_refuses_g():
    g = poly_build(F8, 2, [((7, 7), 1)])
    with pytest.raises(ValueError, match="takes no g"):
        pp_product(F8, 2, "MERSENNE", g=g)


def test_pp_product_checks_the_field_before_the_degrees():
    # a g of the wrong degree for F_5, a g of the right one, and an f(y),
    # each over F_7
    for kwargs in (dict(g=poly_build(F7, 1, [((3,), 1)])),
                   dict(g=poly_build(F7, 1, [((2,), 1)])),
                   dict(fy=t_poly(F7))):
        with pytest.raises(FieldMismatch, match="over the given field"):
            pp_product(F5, 1, "QNR", **kwargs)


def test_pp_product_custom_fy():
    # any univariate PP of degree q-2 is accepted for the y factor
    fy = t_poly(F5)
    f = pp_product(F5, 1, "QNR", fy=fy)
    assert f == pp_product(F5, 1, "QNR")


# -- lpp_beta ---------------------------------------------------------------------

def test_lpp_beta_f4_exact():
    assert lpp_beta(F4, 1).terms() == [((2,), 1)]           # x + x^2 + x = x^2
    f2 = lpp_beta(F4, 2)
    assert f2.total_degree == 4
    assert naive_is_lpp(naive_of(F4), 2, f2.terms())


def test_lpp_beta_grid():
    for field in (F4, F8, F16):
        for n in (1, 2, 3):
            f = lpp_beta(field, n)
            assert f.total_degree == n * (field.q - 2)
            assert is_lpp(f).ok
            terms = [(e, 1) for e in itertools.product(range(1, field.q - 1),
                                                       repeat=n)]
            for i in range(n):
                terms += placed([((1,), 1)], n, i)
            assert f.terms() == oracle_terms(field, n, terms)
    with pytest.raises(UnsupportedField):
        lpp_beta(F5, 1)


# -- lpp_power -------------------------------------------------------------------

def test_lpp_power_5_3_naive():
    f = lpp_power(F5, 3)
    assert f.n == 3 and f.total_degree == 9
    assert f.leading_terms() == [((3, 3, 3), 1)]
    assert naive_is_lpp(naive_of(F5), 3, f.terms())


def test_lpp_power_leading_coeffs():
    # closed form: b!^((b^k-1)/(b-1)) mod p, here with k=1 so just b! mod p
    f = lpp_power(F7, 5)
    assert f.n == 5 and f.total_degree == 25
    assert f.leading_terms() == [((5,) * 5, 120 % 7)]       # 5! = 120 = 1 mod 7
    g = lpp_power(F11, 3)
    assert g.n == 3 and g.total_degree == 27
    assert g.leading_terms() == [((9, 9, 9), 6)]            # 3! = 6
    assert is_lpp(g).ok


def remapped(f):
    """f's coefficient tensor with x_i := x_i^{q-2} in every variable, read
    as an exponent remap on every axis: 0 -> 0, e -> q-1-e, q-1 -> q-1."""
    q = f.field.q
    remap = np.arange(q)
    remap[1:q - 1] = q - 1 - remap[1:q - 1]
    arr = f.coeffs
    for axis in range(f.n):
        arr = np.take(arr, remap, axis=axis)
    return arr


def block_seed(field, b, k):
    """The block power before its substitution: (y_1+..+y_b)^b, then k-1
    times the sum of b shifted copies raised to the b-th power."""
    f = poly_build(field, b, [(tuple(int(i == j) for j in range(b)), 1)
                              for i in range(b)]) ** b
    for level in range(1, k):
        m = b**level
        f = poly_build(field, b * m, [
            ((0,) * (j * m) + e + (0,) * ((b - 1 - j) * m), c)
            for j in range(b) for e, c in f.terms()]) ** b
    return f


@pytest.mark.parametrize("p,b", [(5, 3), (7, 5), (11, 3)])
def test_lpp_power_is_its_seed_with_exponents_remapped(p, b):
    field = make_field(p)
    assert np.array_equal(lpp_power(field, b).coeffs,
                          remapped(block_seed(field, b, 1)))


def test_lpp_power_two_levels_is_its_seed_remapped(monkeypatch):
    monkeypatch.setenv("FFPERM_POINT_CAP", str(1 << 21))   # 5^9 points
    assert np.array_equal(lpp_power(F5, 3, 2).coeffs,
                          remapped(block_seed(F5, 3, 2)))


def test_inverse_substitution_remaps_exponent_q_minus_1():
    # the remap is a bijection on [0, q-1], so exponents q-1 need no guard
    f = poly_build(F5, 2, [((4, 1), 1), ((4, 4), 2), ((0, 3), 3),
                           ((2, 0), 4), ((0, 0), 1)])
    inverse = monomial(F5, 1, (3,))
    g = f.substitute(0, inverse).substitute(1, inverse)
    assert np.array_equal(g.coeffs, remapped(f))


def test_lpp_power_errors():
    with pytest.raises(NoValidB):
        lpp_power(F5, 4)              # b = p-1 excluded
    with pytest.raises(NoValidB):
        lpp_power(F5, 1)
    with pytest.raises(NoValidB):
        lpp_power(F9, 4)              # gcd(4, 8) != 1
    with pytest.raises(ValueError):
        lpp_power(F7, 5, k=0)
    from ffperm import CapExceeded
    with pytest.raises(CapExceeded):
        lpp_power(F5, 3, k=2)         # 5^9 points exceed the default cap
    with pytest.raises(ValueError, match="b must be an integer"):
        lpp_power(F5, 3.5)
    with pytest.raises(ValueError, match="k must be an integer"):
        lpp_power(F5, 3, k="1")


def test_lpp_power_reads_numpy_b_and_k_exactly():
    # b and k are read like every other integer argument: numpy integers
    # and integral floats build the same polynomial as plain ints
    want = lpp_power(F5, 3, 1)
    for b, k in [(np.int64(3), 1), (3, np.int64(1)),
                 (np.int32(3), np.uint8(1)), (3.0, 1.0)]:
        assert lpp_power(F5, b, k) == want
    assert lpp_power(F7, np.int64(5)) == lpp_power(F7, 5)


# (builder, field, n) for every family that takes a variable count
N_BUILDERS = [(pp_hn, F5, 2), (pp_monomial, F5, 2), (pp_dickson, F16, 1),
              (pp_alpha4, F4, 2), (lpp_beta, F4, 2), (lpp_indicator, F5, 2),
              (lpp_indicator, F9, 2), (lpp_chain, F5, 2), (lpp_linear, F3, 2),
              (lpp_max, F7, 3),
              (lambda field, n: pp_product(field, n, "QNR"), F5, 1)]


@pytest.mark.parametrize("builder,field,n", N_BUILDERS,
                         ids=[f"{b.__name__}-{f.q}" for b, f, _ in N_BUILDERS])
def test_families_read_n_exactly(builder, field, n):
    # n is read once, by the size guard, and every family builds with that
    # int: integral floats and numpy integers give the plain-int polynomial
    want = builder(field, n)
    for alt in (float(n), np.int64(n), np.uint8(n)):
        got = builder(field, alt)
        assert got == want and type(got.n) is int
    with pytest.raises(ValueError, match="^n must be an integer, not 2.5$"):
        builder(field, 2.5)


def test_build_family_reads_lpp_power_arguments_exactly():
    # the n-vs-b^k check reads n, b and k exactly before it uses them
    want, params = build_family("lpp_power", F5, b=3, n=3)
    assert params == {"b": 3, "k": 1}
    for b, n, k in [(3.0, 3, None), (np.int64(3), np.int64(3), np.int64(1)),
                    (3, 3.0, 1.0)]:
        f, params = build_family("lpp_power", F5, b=b, n=n, k=k)
        assert f == want and params == {"b": 3, "k": 1}
        assert all(type(v) is int for v in params.values())
    for name, kwargs in [("b", {"b": 3.5}), ("n", {"b": 3, "n": 2.5}),
                         ("k", {"b": 3, "k": 1.5})]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build_family("lpp_power", F5, **kwargs)


BIG = 10**12
# (label, call, field, name in the message, a count that works, a count over
# the point cap or None where there is no cap, the least count or None) for
# every entry that reads a count: the families, lpp_power's block size b
# (the seed's variable count), dickson's degree k, the mvpoly builders,
# points and the scan; is_pp and is_lpp read the n of the polynomial
COUNT_ENTRIES = [
    ("pp_hn", pp_hn, F5, "n", 2, BIG, 1),
    ("pp_monomial", pp_monomial, F5, "n", 2, BIG, 1),
    ("pp_dickson", pp_dickson, F16, "n", 1, BIG, 1),
    ("pp_alpha4", pp_alpha4, F4, "n", 2, BIG, 1),
    ("pp_qnr", lambda F, n: pp_product(F, n, "QNR"), F5, "n", 1, BIG, 1),
    ("pp_noncube", lambda F, n: pp_product(F, n, "NONCUBE"), F4, "n", 1, BIG,
     1),
    ("pp_mersenne", lambda F, n: pp_product(F, n, "MERSENNE"), F8, "n", 1,
     BIG, 1),
    ("lpp_beta", lpp_beta, F4, "n", 2, BIG, 1),
    ("lpp_indicator", lpp_indicator, F5, "n", 2, BIG, 1),
    ("lpp_indicator-9", lpp_indicator, F9, "n", 2, BIG, 1),
    ("lpp_chain", lpp_chain, F5, "n", 2, BIG, 1),
    ("lpp_linear", lpp_linear, F3, "n", 2, BIG, 1),
    ("lpp_max", lpp_max, F7, "n", 3, BIG, 1),
    # a b of 10**12 breaks b < p-1 first; 11^7 points are over the cap
    ("lpp_power b", lpp_power, F11, "b", 3, 7, None),
    ("poly_build", lambda F, n: poly_build(F, n, []), F5, "variable count",
     2, BIG, 0),
    ("monomial", lambda F, n: monomial(F, n, (1, 2)), F5, "variable count",
     2, BIG, 0),
    ("extend", lambda F, n: extend(monomial(F, 1, (1,)), n, 0), F5,
     "variable count", 2, BIG, 0),
    ("points", lambda F, n: list(points(F, n)), F5, "variable count", 2,
     None, None),
    ("dickson k", lambda F, k: dickson(F, k, 1), F5, "k", 2, None, None),
    ("scan_pp_degree_bound", lambda F, n: scan_pp_degree_bound(F, n).detail,
     make_field(2), "variable count", 2, BIG, 1),
    ("is_pp", lambda F, n: is_pp(poly_build(F, n, [])), F5, None, None,
     None, 1),
    ("is_lpp", lambda F, n: is_lpp(poly_build(F, n, [])), F5, None, None,
     None, 1),
]


@pytest.mark.parametrize("label,call,field,what,good,over,least",
                         COUNT_ENTRIES, ids=[e[0] for e in COUNT_ENTRIES])
def test_counts_are_read_exactly_and_capped(label, call, field, what, good,
                                            over, least):
    # every count is read exactly: an integral float or a numpy integer
    # gives what the int gives, a fraction is a ValueError naming the
    # argument, a count under the least is refused, and a count over the
    # point cap is refused before anything of its size is allocated
    if good is not None:
        want = call(field, good)
        for alt in (float(good), np.int64(good)):
            got = call(field, alt)
            assert got == want
            assert type(getattr(got, "n", 0)) is int    # a polynomial's n
        with pytest.raises(ValueError,
                           match=f"^{what} must be an integer, not "
                                 rf"{good}\.5$"):
            call(field, good + 0.5)
    if least is not None:
        message = ("need at least one variable" if least
                   else "variable count must be nonnegative")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(field, least - 1)
    if over is not None:
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded,
                               match=rf"^{field.q}\^{over} points exceed "
                                     "the point cap$"):
                call(field, over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# -- lpp_restrict -----------------------------------------------------------------

def test_lpp_restrict_chain():
    f = lpp_power(F7, 5)
    g = lpp_restrict(f)
    assert g.n == 4 and g.total_degree == 20
    assert is_lpp(g).ok
    h = lpp_restrict(g)
    assert h.n == 3 and h.total_degree == 15
    assert is_lpp(h).ok


def test_lpp_restrict_rejects_non_max():
    lin = lpp_linear(F3, 2)
    with pytest.raises(NotMaxLpp):
        lpp_restrict(lin)             # LPP but degree 1 != 2(q-2)
    with pytest.raises(NotMaxLpp):
        lpp_restrict(poly_build(F5, 2, [((3, 3), 1)]))   # max degree, not LPP
    with pytest.raises(NotMaxLpp):
        lpp_restrict(lpp_power(F5, 3).substitute(0, 0).substitute(0, 0))


def test_known_degrees_are_read_without_a_full_scan(monkeypatch):
    # the checks read every degree from the leading terms (total_degree
    # does too), which scan top corners; MultiPoly.degrees, the full scan
    # of every term, must not be called
    from ffperm import conjecture_fn
    from ffperm.mvpoly import MultiPoly
    from ffperm.suites import run_suite
    f = lpp_power(F5, 3)
    g2 = poly_build(F5, 2, [((2, 2), 1), ((3, 0), 2), ((0, 1), 1)])
    t = t_poly(F5)

    def results():
        rep = conjecture_fn(F7, 4).to_json()
        del rep["stats"]["ms"]
        g = lpp_restrict(f)
        rows = [(r.family, r.q, r.n, r.measured_deg, r.status)
                for r in run_suite("thm4.4")]
        prod = pp_product(F5, 2, "QNR", g=g2, fy=t)
        return rep, g.n, g.terms(), rows, prod.terms()

    want = results()
    assert want[0]["verdict"] == "pass" and want[1] == 2
    assert want[4]

    def full_scan(self):
        raise AssertionError("full degree scan")

    monkeypatch.setattr(MultiPoly, "degrees", full_scan)
    assert results() == want
    with pytest.raises(NotMaxLpp, match="degree 1 is not the maximum 2"):
        lpp_restrict(lpp_linear(F3, 2))
    with pytest.raises(BadDegree, match="g must have total degree 4"):
        pp_product(F5, 2, "QNR", g=monomial(F5, 2, (2, 1)), fy=t)
    with pytest.raises(BadDegree, match="f\\(y\\) must be a univariate PP"):
        pp_product(F5, 2, "QNR", g=g2, fy=monomial(F5, 1, (2,)))


# -- indicator route ---------------------------------------------------------------

def test_indicator_poly_f9():
    ind = indicator_poly(F9)
    assert ind.total_degree == 7
    vals = [int(v) for v in to_table(ind).values]
    assert vals == [1, 1, 0, 1, 0, 0, 0, 0, 0]   # ones exactly on {0, 1, z}
    with pytest.raises(UnsupportedField):
        indicator_poly(F5)            # needs an extension field
    with pytest.raises(UnsupportedField):
        indicator_poly(F16)           # needs odd characteristic


def test_lpp_indicator_grid():
    # prod_i p(x_i) + sum_i t_beta(x_i): p is 1 on {0, .., p-2, z}, t_beta
    # swaps beta = z (rank p) and p-1
    ref = naive_of(F9)
    ind = naive_interp_univariate(ref, [1, 1, 0, 1, 0, 0, 0, 0, 0])
    swap = naive_interp_univariate(ref, [0, 1, 3, 2, 4, 5, 6, 7, 8])
    ind_terms = [((e,), c) for e, c in enumerate(ind)]
    swap_terms = [((e,), c) for e, c in enumerate(swap)]
    degrees = {}
    for field, n in [(F9, 2), (F9, 3), (F9, 1)]:
        f = lpp_indicator(field, n)
        degrees[(field.q, n)] = f.total_degree
        assert is_lpp(f).ok
        terms = product_terms(F9, n, ind_terms)
        for i in range(n):
            terms += placed(swap_terms, n, i)
        assert f.terms() == oracle_terms(F9, n, terms)
    assert degrees == {(9, 2): 14, (9, 3): 21, (9, 1): 7}


def test_lpp_indicator_naive_crosscheck():
    f = lpp_indicator(F9, 2)
    assert naive_is_lpp(naive_of(F9), 2, f.terms())


def test_lpp_indicator_prime_dispatch():
    f = lpp_indicator(F5, 2)
    assert f.n == 2 and f.total_degree == 6
    assert is_lpp(f).ok
    # the prime route is power + restriction, so the results must agree
    assert f == lpp_restrict(lpp_power(F5, 3))
    # the smallest block size: b = 3 at q = 11 (p-2 = 9 would need 11^9
    # points), while q = 19 takes b = 5 and 19^5 is over the point cap
    assert block_sizes(F5)[0] == 3 and block_sizes(F7)[0] == 5
    assert block_sizes(F11)[0] == 3
    f11 = lpp_indicator(F11, 2)
    assert f11.n == 2 and f11.total_degree == 18 and is_lpp(f11).ok
    assert f11 == lpp_restrict(lpp_power(F11, 3))
    from ffperm import CapExceeded
    with pytest.raises(CapExceeded,
                       match=r"19\^5 points exceed the point cap"):
        lpp_indicator(make_field(19), 1)
    with pytest.raises(UnsupportedField):
        lpp_indicator(F3, 2)
    with pytest.raises(UnsupportedField):
        lpp_indicator(F4, 2)


# -- lpp_chain ---------------------------------------------------------------------

def test_lpp_chain_degrees_and_leading():
    f2 = lpp_chain(F5, 2)
    assert f2.total_degree == 6
    assert naive_is_lpp(naive_of(F5), 2, f2.terms())
    f3 = lpp_chain(F5, 3)
    assert f3.total_degree == 9
    assert f3.leading_terms() == [((3, 3, 3), 1)]           # -4 = 1 mod 5
    f3b = lpp_chain(F7, 3)
    assert f3b.leading_terms() == [((5, 5, 5), 3)]          # -4 = 3 mod 7
    f4 = lpp_chain(F5, 4)
    assert f4.total_degree == 12 and is_lpp(f4).ok
    with pytest.raises(UnsupportedField):
        lpp_chain(F3, 2)


# -- lpp_three ---------------------------------------------------------------------

def test_lpp_three_a():
    f = lpp_three(F5, "A")
    assert f.total_degree == 9 and is_lpp(f).ok
    assert lpp_three(F7, "A").total_degree == 15
    with pytest.raises(UnsupportedField):
        lpp_three(F4, "A")
    with pytest.raises(UnsupportedField):
        lpp_three(F9, "A")


def test_lpp_three_b():
    f = lpp_three(F9, "B")
    assert f.total_degree == 21 and is_lpp(f).ok
    with pytest.raises(UnsupportedField):
        lpp_three(F5, "B")


def test_lpp_three_c_including_q4_degeneration():
    # for q = 8, 16 the construction reaches degree 3(q-2); at q = 4 it
    # collapses to a degree-2 polynomial while remaining an LPP
    f8 = lpp_three(F8, "C")
    assert f8.total_degree == 18 and is_lpp(f8).ok
    f16 = lpp_three(F16, "C")
    assert f16.total_degree == 42 and is_lpp(f16).ok
    f4 = lpp_three(F4, "C")
    assert f4.terms() == [((0, 0, 0), 1), ((0, 0, 2), 1),
                          ((0, 1, 0), 1), ((2, 0, 0), 1)]
    assert f4.total_degree == 2
    assert is_lpp(f4).ok
    with pytest.raises(UnsupportedField):
        lpp_three(F5, "C")
    with pytest.raises(ValueError):
        lpp_three(F5, "D")


# -- lpp_linear / lpp_max ------------------------------------------------------------

def test_lpp_linear():
    f = lpp_linear(F3, 3)
    assert f.terms() == [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)]
    assert is_lpp(f).ok
    assert naive_is_lpp(naive_of(F3), 3, f.terms())
    with pytest.raises(UnsupportedField):
        lpp_linear(F5, 2)


def test_lpp_max_dispatch():
    assert lpp_max(F3, 2) == lpp_linear(F3, 2)
    assert lpp_max(make_field(2), 2) == lpp_linear(make_field(2), 2)
    assert lpp_max(F8, 2) == lpp_beta(F8, 2)
    assert lpp_max(F5, 2) == lpp_indicator(F5, 2)
    assert lpp_max(F9, 2) == lpp_indicator(F9, 2)
    for field in (F4, F5, F7, F8, F9):
        f = lpp_max(field, 2)
        assert f.total_degree == 2 * (field.q - 2)
        assert is_lpp(f).ok


# -- every family against the oracle ------------------------------------------------

def dickson_terms(field, k):
    """g_k(x, 1) = sum_j k/(k-j) C(k-j, j) (-1)^j x^{k-2j}, integer weights
    taken mod p."""
    return [((k - 2 * j,), (-1) ** j * k * comb(k - j, j) // (k - j)
             % field.p) for j in range(k // 2 + 1)]


def chain_value(ref, pt):
    """f_n(pt) of the recurrence f_1 = x_1, f_i = t(f_{i-1}^{q-2} +
    x_i^{q-2}), evaluated in the oracle's field."""
    q = ref.q
    v = pt[0]
    for x in pt[1:]:
        w = ref.add(ref.pow(v, q - 2), ref.pow(x, q - 2))
        v = {0: 1, 1: 0}.get(w, w)
    return v


def docstring_terms(tag, field, n):
    """The raw terms a family's docstring states, or None where the family
    does not build on field."""
    q, p, r = field.q, field.p, field.r
    head, tail = (q - 1,) * (n - 1), (0,) * (n - 1)
    if tag == "pp_hn":
        return hn_terms(q, n)
    if tag == "pp_monomial" and p > 2:
        return [(head + (q - 2,), 1), (tail + (q - 2,), 1)]
    if tag == "pp_dickson" and p == 2 and r % 2 == 0 and q > 4:
        # x^{q-2} + m(x) = g_{q-2}(x, 1) - x^2
        inner = dickson_terms(field, q - 2) + [((2,), 1)]
        return [(head + e, c) for e, c in inner] + [(tail + (2,), 1)]
    if tag == "lpp_linear" and q in (2, 3):
        return [t for i in range(n) for t in placed([((1,), 1)], n, i)]
    if tag == "lpp_power" and n == 3 and q == 5:
        # (y_1 + y_2 + y_3)^3, then y_i := x_i^{q-2}
        seed = [t for i in range(3) for t in placed([((1,), 1)], 3, i)]
        cube = [((0,) * 3, 1)]
        for _ in range(3):
            cube = naive_poly_mul(naive_of(field), 3, cube, seed)
        return [(tuple(e * (q - 2) for e in exps), c) for exps, c in cube]
    return None


DOC_CELLS = [(tag, p, r, n)
             for tag in ("pp_hn", "pp_monomial", "pp_dickson", "lpp_linear",
                         "lpp_power")
             for p, r in SMALL_FIELDS + [(2, 4)] for n in (1, 2, 3)
             if docstring_terms(tag, make_field(p, r), n) is not None]


@pytest.mark.parametrize("tag,p,r,n", DOC_CELLS)
def test_family_matches_its_docstring_terms(tag, p, r, n):
    # pp_alpha4, lpp_beta, lpp_indicator and the MERSENNE factor are
    # checked the same way in their grid tests
    field = make_field(p, r)
    if tag == "lpp_power":
        f, _ = build_family(tag, field, b=n)
    else:
        f, _ = build_family(tag, field, n=n)
    assert f.terms() == oracle_terms(field, n,
                                     docstring_terms(tag, field, n))


@pytest.mark.parametrize("p,r", [(2, 2), (5, 1), (3, 2)])
def test_lpp_chain_matches_the_naive_recurrence(p, r):
    field = make_field(p, r)
    ref = naive_of(field)
    for n in (1, 2, 3):
        values = to_table(lpp_chain(field, n)).values.tolist()
        assert values == [chain_value(ref, pt)
                          for pt in all_points(ref, n)]


def test_families_refuse_a_huge_n_before_building():
    from ffperm import CapExceeded
    with pytest.raises(CapExceeded, match="points exceed the point cap"):
        pp_hn(F5, 10**12)


# -- the domains a build holds ---------------------------------------------------

# q <= 16
NINE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
               (11, 1), (2, 4)]


def assert_domains_agree(f):
    """f's coefficients evaluate to its table, and its table interpolates
    to its coefficients, each through a fresh one-domain polynomial."""
    coeffs, values = f.coeffs, to_table(f).values
    fresh = MultiPoly(f.field, f.n, coeffs)
    assert np.array_equal(to_table(fresh).values, values)
    fresh = interpolate(FuncTable(f.field, f.n, values))
    assert np.array_equal(fresh.coeffs, coeffs)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_family_domains_agree(tag):
    built = 0
    for p, r in NINE_FIELDS:
        field = make_field(p, r)
        for n in (1, 2, 3):
            try:
                f, _ = build_family(tag, field, n=n,
                                    b=n if tag == "lpp_power" else None)
            except (FFPermError, ValueError):
                continue
            assert_domains_agree(f)
            built += 1
    assert built


def test_pp_product_domains_agree_with_custom_pieces():
    F16 = make_field(2, 4)
    g = poly_build(F5, 2, [((2, 2), 3), ((1, 0), 2)])
    assert_domains_agree(pp_product(F5, 2, "QNR", g=g,
                                    fy=transposition(F5, 2, 4), a_or_alpha=3))
    g = poly_build(F16, 1, [((5,), 3), ((2,), 1)])
    assert_domains_agree(pp_product(F16, 1, "NONCUBE", g=g,
                                    fy=transposition(F16, 0, 9)))
    assert_domains_agree(pp_product(F16, 4, "NONCUBE"))   # 2^20 points


def test_prod_sum_domains_agree_at_the_cap():
    assert_domains_agree(lpp_beta(make_field(2, 4), 5))     # 2^20 points


def test_lpp_beta_build_holds_no_more_than_three_tables():
    # at the cap, lpp_beta(F_16, 5) holds its coefficients and its table,
    # and may make one more array of q^n entries on the way
    field = make_field(2, 4)
    lpp_beta(field, 2)          # the univariate pieces' first use is over
    tracemalloc.start()
    try:
        f = lpp_beta(field, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f._coeffs is not None and f._vals is not None
    assert peak <= 3 * 8 * field.q**5, peak


@pytest.fixture
def applied(monkeypatch):
    """(M, shape of A) for every field matrix the transform applies."""
    from ffperm import _kernels
    calls = []
    real = _kernels.mat_apply

    def recording(M, A, add_t, mul_t):
        calls.append((M, A.shape))
        return real(M, A, add_t, mul_t)

    monkeypatch.setattr(_kernels, "mat_apply", recording)
    return calls


@pytest.fixture
def products(monkeypatch):
    """For every mat_apply call, its nonzero rows of A times its columns:
    the row x column products it applies a matrix column to."""
    from ffperm import _kernels
    calls = []
    real = _kernels.mat_apply

    def recording(M, A, add_t, mul_t):
        calls.append(int(np.count_nonzero(A.any(axis=1))) * A.shape[1])
        return real(M, A, add_t, mul_t)

    monkeypatch.setattr(_kernels, "mat_apply", recording)
    return calls


def test_sparse_evaluation_applies_few_products(monkeypatch, products):
    # pp_hn q=32 n=4 holds 32 terms among 2^20 coefficients.  Over every
    # column each axis is a (q, q^3) array, up to 4 q q^3 products; the
    # column scan transforms the few nonzero columns of the first axes
    from ffperm import mvpoly
    field = make_field(2, 5)
    q = field.q
    coeffs = pp_hn(field, 4).coeffs
    values = MultiPoly(field, 4, coeffs)._values()
    sparse = sum(products)
    products.clear()
    monkeypatch.setattr(mvpoly, "_SPARSE_MIN", coeffs.size + 1)
    assert np.array_equal(MultiPoly(field, 4, coeffs)._values(), values)
    every = sum(products)
    assert 32 * sparse <= 4 * q * q**3 and 8 * sparse <= every, (sparse,
                                                                  every)


@pytest.mark.parametrize("tag,p,r,n", [("pp_qnr", 3, 2, 2),
                                       ("pp_noncube", 2, 4, 2),
                                       ("pp_mersenne", 2, 3, 3)])
def test_product_families_verify_without_a_transform(applied, tag, p, r, n):
    # the product is built in both domains, and no transform touches an
    # array of its q^(n+1) entries
    field = make_field(p, r)
    q = field.q
    f, _ = build_family(tag, field, n=n)
    assert all(rows * cols < q**(n + 1) for _, (rows, cols) in applied)
    applied.clear()
    assert is_pp(f).ok
    is_lpp(f)
    assert assert_degree(f, (n + 1) * (q - 1) - 1).ok
    assert applied == []


@pytest.mark.parametrize("tag,p,r,n", [("lpp_beta", 2, 4, 3),
                                       ("lpp_linear", 3, 1, 4),
                                       ("lpp_indicator", 3, 2, 2)])
def test_prod_sum_families_verify_without_a_transform(applied, tag, p, r, n):
    # prod a(x_i) + sum b(x_i) is built in both domains from its univariate
    # pieces: only they are transformed, and checking it transforms nothing
    field = make_field(p, r)
    q = field.q
    f, _ = build_family(tag, field, n=n)
    assert applied and all(cols == 1 for _, (_, cols) in applied)
    applied.clear()
    assert is_pp(f).ok and is_lpp(f).ok
    to_table(f)
    assert assert_degree(f, 1 if q == 3 else n * (q - 2)).ok  # q=3: linear
    assert applied == []


@pytest.mark.parametrize("variant,p,r", [("A", 7, 1), ("B", 3, 2),
                                         ("C", 2, 6)])
def test_lpp_three_transforms_only_univariate_pieces(applied, variant, p, r):
    lpp_three(make_field(p, r), variant)
    assert applied and all(cols == 1 for _, (_, cols) in applied)


@pytest.fixture
def transforms(monkeypatch):
    """(inverse, shape of arr) for every table transform MultiPoly makes."""
    from ffperm import mvpoly
    calls = []
    real = mvpoly._transform

    def recording(field, arr, inverse, *rest):
        calls.append((inverse, arr.shape))
        return real(field, arr, inverse, *rest)

    monkeypatch.setattr(mvpoly, "_transform", recording)
    return calls


def test_lpp_power_build_interpolates_nothing(transforms):
    # the univariate pieces are evaluated, and nothing is interpolated
    lpp_power(F7, 5)
    assert transforms
    assert all(not inverse for inverse, _ in transforms)


def test_repr_interpolates_nothing(applied):
    # a table-only polynomial prints without its terms, and printing
    # applies no matrix and caches no coefficients
    polys = [interpolate(to_table(pp_hn(F5, 2))), lpp_three(F8, "C")]
    applied.clear()
    for f in polys:
        assert repr(f) == f"MultiPoly(q={f.field.q}, n={f.n}, table only)"
        assert f._coeffs is None
    assert applied == []
    f = polys[0]
    assert repr(MultiPoly(F5, 2, f.coeffs)) == \
        f"MultiPoly(q=5, n=2, terms={len(f.terms())})"


# -- build_family dispatch ------------------------------------------------------------

def test_build_family_all_tags():
    cases = {
        "pp_hn": dict(field=F5, n=2),
        "pp_monomial": dict(field=F5, n=2),
        "pp_dickson": dict(field=F16, n=1),
        "pp_alpha4": dict(field=F4, n=2),
        "pp_qnr": dict(field=F5, n=1),
        "pp_noncube": dict(field=F16, n=1),
        "pp_mersenne": dict(field=F8, n=1),
        "lpp_beta": dict(field=F4, n=2),
        "lpp_power": dict(field=F5, b=3),
        "lpp_indicator": dict(field=F9, n=2),
        "lpp_chain": dict(field=F5, n=2),
        "lpp_3var_a": dict(field=F5),
        "lpp_3var_b": dict(field=F9),
        "lpp_3var_c": dict(field=F8),
        "lpp_linear": dict(field=F3, n=2),
    }
    assert set(cases) == set(__import__("ffperm").FAMILY_TAGS)
    for tag, kwargs in cases.items():
        field = kwargs.pop("field")
        f, params = build_family(tag, field, **kwargs)
        assert f.field is field


def test_build_family_errors():
    with pytest.raises(ValueError):
        build_family("nonsense", F5, n=1)
    with pytest.raises(ValueError):
        build_family("pp_hn", F5)                    # missing n
    with pytest.raises(ValueError):
        build_family("lpp_power", F5)                # missing b
    with pytest.raises(ValueError):
        build_family("lpp_power", F5, b=3, n=5)      # n inconsistent with b^k
    with pytest.raises(ValueError):
        build_family("lpp_3var_a", F5, n=2)          # fixed at 3 variables


def test_build_family_mersenne_params():
    _, params = build_family("pp_mersenne", F8, n=1)
    assert params == {"variant": "mersenne", "alpha": 2}
    f, params = build_family("pp_mersenne", F8, n=1, alpha_rank=3)
    assert params == {"variant": "mersenne", "alpha": 3}
    assert is_pp(f).ok
