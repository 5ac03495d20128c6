"""Reduced multivariate ring: arithmetic vs a naive oracle, evaluation,
interpolation round trips, substitution, composition, JSON."""

import numpy as np
import pytest

from ffperm import (CapExceeded, FieldMismatch, MultiPoly, VariableCountMismatch,
                    compose_univariate, interpolate, make_field, points,
                    poly_build, poly_from_json, poly_to_json, to_table)
from ffperm.mvpoly import (FuncTable, constant, extend, fold_exp, monomial,
                           variable, zero)
from oracle import NaiveField, naive_eval, naive_poly_mul

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


def naive_of(field):
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


def random_poly(rng, field, n, density=0.4):
    q = field.q
    coeffs = rng.integers(0, q, size=(q,) * n)
    mask = rng.random(size=(q,) * n) < density
    terms = [(tuple(int(x) for x in idx), int(coeffs[idx]))
             for idx in zip(*np.nonzero(mask))]
    return poly_build(field, n, terms)


# -- reduction ---------------------------------------------------------------

def test_fold_exp_rule():
    q = 5
    assert [fold_exp(e, q) for e in range(12)] == \
        [0, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3]
    # x^q == x and x^(2q-1) == x as functions; exponent 0 untouched
    assert fold_exp(q, q) == 1
    assert fold_exp(2 * q - 1, q) == 1


def test_poly_build_folds_and_combines():
    f5 = make_field(5)
    f = poly_build(f5, 1, [((5,), 2), ((1,), 4)])   # 2x^5 + 4x == 6x == x
    assert f.terms() == [((1,), 1)]
    g = poly_build(f5, 2, [((0, 9), 3)])            # x2^9 -> x2^1
    assert g.terms() == [((0, 1), 3)]
    # folded reduction never changes the function
    nf = naive_of(f5)
    for a in range(5):
        assert f.evaluate([a]) == nf.add(nf.mul(2, nf.pow(a, 5)), nf.mul(4, a))


def test_poly_build_validates():
    f5 = make_field(5)
    with pytest.raises(Exception):
        poly_build(f5, 1, [((1, 2), 1)])            # wrong arity
    with pytest.raises(Exception):
        poly_build(f5, 1, [((-1,), 1)])             # negative exponent


# -- ring arithmetic vs oracle ------------------------------------------------

@pytest.mark.parametrize("p,r", SMALL)
@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_naive(p, r, n):
    field = make_field(p, r)
    ref = naive_of(field)
    rng = np.random.default_rng(p * 100 + r * 10 + n)
    for _ in range(8):
        f = random_poly(rng, field, n)
        g = random_poly(rng, field, n)
        want = naive_poly_mul(ref, n, f.terms(), g.terms())
        assert (f * g).terms() == want


@pytest.mark.parametrize("p,r", [(5, 1), (2, 2)])
def test_add_sub_scale_neg(p, r):
    field = make_field(p, r)
    rng = np.random.default_rng(7)
    f = random_poly(rng, field, 2)
    g = random_poly(rng, field, 2)
    assert (f + g) - g == f
    assert (f - f).is_zero()
    assert -(-f) == f
    assert f.scale(0).is_zero()
    c = 1 + rng.integers(0, field.q - 1)
    h = f.scale(int(c))
    for pt in points(field, 2):
        assert h.evaluate(pt) == field.mul(int(c), f.evaluate(pt))


def test_pow_is_repeated_mul():
    field = make_field(3, 2)
    rng = np.random.default_rng(11)
    f = random_poly(rng, field, 2)
    acc = constant(field, 2, 1)
    for k in range(5):
        assert f**k == acc
        acc = acc * f
    assert f**0 == constant(field, 2, 1)


@pytest.mark.parametrize("p,r", SMALL)
@pytest.mark.parametrize("n", [1, 2])
def test_pow_matches_repeated_naive_mul(p, r, n):
    # ** folds the exponent and raises table entries; check it against
    # repeated term-list products, past the fold at k = q
    field = make_field(p, r)
    ref = naive_of(field)
    q = field.q
    rng = np.random.default_rng(p * 10 + r + n)
    wanted = {0, 1, q - 1, q, q + 1, 3 * q}
    for _ in range(2):
        f = random_poly(rng, field, n)
        f_terms = f.terms()
        acc = [((0,) * n, 1)]
        for k in range(3 * q + 1):
            if k in wanted:
                assert (f**k).terms() == acc, k
            acc = naive_poly_mul(ref, n, acc, f_terms)


def test_cross_field_and_arity_errors():
    f5, f7 = make_field(5), make_field(7)
    a = variable(f5, 1, 0)
    b = variable(f7, 1, 0)
    with pytest.raises(FieldMismatch):
        _ = a + b
    c = variable(f5, 2, 0)
    with pytest.raises(VariableCountMismatch):
        _ = a + c


# -- evaluation and tables ----------------------------------------------------

@pytest.mark.parametrize("p,r", SMALL)
def test_evaluate_matches_naive(p, r):
    field = make_field(p, r)
    ref = naive_of(field)
    rng = np.random.default_rng(13 + p + r)
    for n in (1, 2):
        f = random_poly(rng, field, n)
        for pt in points(field, n):
            assert f.evaluate(pt) == naive_eval(ref, n, f.terms(), pt)


def test_points_rank_order():
    f3 = make_field(3)
    assert list(points(f3, 2)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                                   (1, 2), (2, 0), (2, 1), (2, 2)]


def test_to_table_is_evaluation_in_rank_order():
    field = make_field(2, 2)
    rng = np.random.default_rng(3)
    f = random_poly(rng, field, 2)
    tbl = to_table(f)
    assert tbl.values.shape == (16,)
    for rank, pt in enumerate(points(field, 2)):
        assert int(tbl.values[rank]) == f.evaluate(pt)


@pytest.mark.parametrize("p,r", SMALL)
def test_interpolate_roundtrip(p, r):
    field = make_field(p, r)
    q = field.q
    rng = np.random.default_rng(17 + q)
    for n in (1, 2):
        f = random_poly(rng, field, n)
        assert interpolate(to_table(f)) == f          # poly -> table -> poly
        vals = rng.integers(0, q, size=q**n).astype(np.int64)
        tbl = FuncTable(field, n, vals)
        g = interpolate(tbl)
        assert np.array_equal(to_table(g).values, vals)  # table -> poly -> table


def test_interpolate_univariate_matches_naive():
    from oracle import naive_interp_univariate
    for (p, r) in [(3, 1), (2, 2), (5, 1), (3, 2)]:
        field = make_field(p, r)
        ref = naive_of(field)
        rng = np.random.default_rng(field.q)
        vals = [int(v) for v in rng.integers(0, field.q, size=field.q)]
        g = interpolate(FuncTable(field, 1, np.array(vals, dtype=np.int64)))
        dense = [0] * field.q
        for (e,), c in g.terms():
            dense[e] = c
        assert dense == naive_interp_univariate(ref, vals)


def test_table_cap():
    field = make_field(5)
    f = variable(field, 3, 0)
    with pytest.raises(CapExceeded):
        to_table(f, cap=100)         # 125 points > 100
    with pytest.raises(CapExceeded):
        poly_build(field, 10**12, [])  # refused before 5^n is built


# -- degrees ------------------------------------------------------------------

def test_degree_conventions():
    field = make_field(5)
    z = zero(field, 2)
    total, per_var = z.degrees()
    assert total == -1 and per_var == (-1, -1)
    assert z.total_degree == -1
    c = constant(field, 2, 3)
    assert c.total_degree == 0 and c.degrees()[1] == (0, 0)
    f = poly_build(field, 2, [((2, 3), 1), ((4, 0), 2)])
    total, per_var = f.degrees()
    assert total == 5 and per_var == (4, 3)
    assert f.leading_terms() == [((2, 3), 1)]


def test_leading_terms_all_of_max_degree():
    field = make_field(3)
    f = poly_build(field, 2, [((2, 1), 1), ((1, 2), 2), ((1, 1), 1)])
    assert f.leading_terms() == [((1, 2), 2), ((2, 1), 1)]


# -- substitution, extension, composition --------------------------------------

def test_substitute_constant_drops_variable():
    field = make_field(5)
    f = poly_build(field, 2, [((1, 1), 1), ((2, 0), 3)])   # x1 x2 + 3 x1^2
    g = f.substitute(1, 2)                                  # x2 := 2
    assert g.n == 1
    for a in range(5):
        assert g.evaluate([a]) == f.evaluate([a, 2])


def test_substitute_univariate_poly():
    field = make_field(2, 2)
    f = poly_build(field, 2, [((1, 1), 1), ((2, 0), 1)])
    u = poly_build(field, 1, [((2,), 1), ((0,), 3)])        # x^2 + (z+1)
    g = f.substitute(0, u)
    assert g.n == 2
    for pt in points(field, 2):
        inner = u.evaluate([pt[0]])
        assert g.evaluate(pt) == f.evaluate([inner, pt[1]])


def test_extend_offsets_variables():
    field = make_field(3)
    f = poly_build(field, 1, [((2,), 2)])                   # 2x^2
    g = extend(f, 3, 1)                                     # embeds as x2
    assert g.n == 3
    assert g.terms() == [((0, 2, 0), 2)]


@pytest.mark.parametrize("p,r", SMALL)
def test_substitute_and_extend_match_naive_eval(p, r):
    # the results' coefficients, read back through the oracle, must give
    # the substituted or embedded function
    field = make_field(p, r)
    ref = naive_of(field)
    rng = np.random.default_rng(31 + field.q)
    f = random_poly(rng, field, 2)
    u = random_poly(rng, field, 1, density=0.6)
    f_at = {pt: naive_eval(ref, 2, f.terms(), pt) for pt in points(field, 2)}
    u_at = [naive_eval(ref, 1, u.terms(), (a,)) for a in field.elements()]
    for i in range(2):
        for c in field.elements():
            g_terms = f.substitute(i, c).terms()
            for a in field.elements():
                pt = (c, a) if i == 0 else (a, c)
                assert naive_eval(ref, 1, g_terms, (a,)) == f_at[pt]
        g_terms = f.substitute(i, u).terms()
        for pt in points(field, 2):
            inner = list(pt)
            inner[i] = u_at[pt[i]]
            assert naive_eval(ref, 2, g_terms, pt) == f_at[tuple(inner)]
    for offset in (0, 1):
        g_terms = extend(f, 3, offset).terms()
        for pt in points(field, 3):
            assert naive_eval(ref, 3, g_terms, pt) == \
                f_at[pt[offset:offset + 2]]


def test_table_paths_do_no_transform(monkeypatch):
    # interpolate wraps its table, to_table hands it back, and ring
    # operations on table-held polynomials stay in the table domain
    from ffperm import _kernels

    def no_transform(*args):
        raise AssertionError("unexpected transform")

    field = make_field(3, 2)
    vals = np.random.default_rng(5).integers(0, field.q, size=field.q**2)
    monkeypatch.setattr(_kernels, "mat_apply", no_transform)
    g = interpolate(FuncTable(field, 2, vals))
    assert np.array_equal(to_table(g).values, vals)
    v = int(vals[4 * 9 + 2])                        # g at the point (4, 2)
    h = (g * g + g).substitute(0, 4)
    assert h.evaluate([2]) == field.add(field.mul(v, v), v)


def test_compose_univariate_is_formal_sum():
    # table-based composition agrees with the formal sum g(f) term by term
    for (p, r) in [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        field = make_field(p, r)
        rng = np.random.default_rng(field.q * 3)
        for _ in range(4):
            g = random_poly(rng, field, 1, density=0.5)
            f = random_poly(rng, field, 2, density=0.3)
            via_table = compose_univariate(g, f)
            formal = zero(field, 2)
            for (e,), c in g.terms():
                formal = formal + (f**e).scale(c)
            assert via_table == formal


# -- JSON ----------------------------------------------------------------------

def test_poly_json_roundtrip():
    for (p, r) in [(5, 1), (3, 2)]:
        field = make_field(p, r)
        rng = np.random.default_rng(p + r)
        f = random_poly(rng, field, 2)
        doc = poly_to_json(f)
        assert poly_from_json(doc) == f
        doc["family"] = "whatever"      # extra keys must be ignored
        doc["params"] = {"n": 2}
        assert poly_from_json(doc) == f


def test_poly_json_accepts_int_coeffs_for_prime_fields():
    f5 = make_field(5)
    doc = {"field": {"p": 5, "r": 1}, "n": 1,
           "terms": [{"exps": [2], "coeff": 3}]}
    assert poly_from_json(doc) == poly_build(f5, 1, [((2,), 3)])


def test_poly_json_term_order_is_rank_sorted():
    f5 = make_field(5)
    f = poly_build(f5, 2, [((3, 1), 1), ((0, 2), 2), ((1, 0), 4)])
    exps = [t["exps"] for t in poly_to_json(f)["terms"]]
    assert exps == sorted(exps)
