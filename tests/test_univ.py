"""Univariate building blocks: the transposition t, the h/hbar pair, Dickson
polynomials, and the univariate permutation check."""

import pytest

from ffperm import (EqualPoints, VariableCountMismatch, dickson, h_polys,
                    is_univariate_pp, make_field, poly_build, t_poly, to_table,
                    transposition)
from oracle import NaiveField, naive_eval

FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (2, 4),
          (5, 2), (3, 3)]


def naive_of(field):
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


def table_of(f):
    return [int(v) for v in to_table(f).values]


# -- t ------------------------------------------------------------------------

def test_t_tables_small():
    # t swaps 0 and 1 and fixes everything else
    assert table_of(t_poly(make_field(3))) == [1, 0, 2]
    assert table_of(t_poly(make_field(2, 2))) == [1, 0, 2, 3]
    assert table_of(t_poly(make_field(5))) == [1, 0, 2, 3, 4]


@pytest.mark.parametrize("p,r", FIELDS)
def test_t_is_the_01_transposition(p, r):
    field = make_field(p, r)
    want = list(range(field.q))
    want[0], want[1] = 1, 0
    assert table_of(t_poly(field)) == want
    # structure: x + sum_{k=0}^{q-2} x^k combines to coefficient 2 at x^1
    got = dict(t_poly(field).terms())
    assert got.get((1,), 0) == 2 % field.p
    assert all(got.get((k,), 0) == 1 for k in range(field.q - 1) if k != 1)


@pytest.mark.parametrize("p,r", FIELDS)
def test_transposition_general(p, r):
    field = make_field(p, r)
    q = field.q
    for (a, b) in [(0, q - 1), (1, 2), (q - 2, q - 1)]:
        tr = transposition(field, a, b)
        vals = table_of(tr)
        want = list(range(q))
        want[a], want[b] = b, a
        assert vals == want
    with pytest.raises(EqualPoints):
        transposition(field, 1, 1)


# -- h and hbar -----------------------------------------------------------------

def test_h_pair_f5_exact():
    f5 = make_field(5)
    h, hbar = h_polys(f5)
    assert h.terms() == [((0,), 1), ((1,), 2), ((2,), 3)]
    assert hbar.terms() == [((0,), 1), ((2,), 3), ((3,), 2)]


def test_h_pair_degrees():
    # odd characteristic: full degrees q-3 and q-2; in characteristic 2 the
    # integer weights (k+1) and -k vanish mod 2 at the top, so the literal
    # degrees drop (frozen regression values)
    for (p, r) in [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)]:
        field = make_field(p, r)
        h, hbar = h_polys(field)
        assert h.total_degree == field.q - 3
        assert hbar.total_degree == field.q - 2
    observed = {}
    for (p, r) in [(3, 1), (2, 2), (2, 3), (2, 4)]:
        h, hbar = h_polys(make_field(p, r))
        observed[p**r] = (h.total_degree, hbar.total_degree)
    # q=3: the base 1 + x collides with the k=1 weight and cancels
    assert observed == {3: (0, 0), 4: (0, 0), 8: (4, 5), 16: (12, 13)}


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)])
def test_identities_by_naive_evaluation(p, r):
    # h(a^{q-2}) == hbar(a) and hbar(t(a)) == hbar(a) for every a, checked
    # pointwise with the naive oracle doing all the evaluation; by uniqueness
    # of the reduced representative this is equivalent to the polynomial
    # identities that check_identities asserts
    field = make_field(p, r)
    ref = naive_of(field)
    q = field.q
    h, hbar = h_polys(field)
    t = t_poly(field)
    for a in range(q):
        inv_pow = ref.pow(a, q - 2)
        t_a = naive_eval(ref, 1, t.terms(), (a,))
        hbar_a = naive_eval(ref, 1, hbar.terms(), (a,))
        assert naive_eval(ref, 1, h.terms(), (inv_pow,)) == hbar_a
        assert naive_eval(ref, 1, hbar.terms(), (t_a,)) == hbar_a


# -- Dickson ---------------------------------------------------------------------

def test_dickson_small_cases():
    f5 = make_field(5)
    assert dickson(f5, 0, 1).terms() == [((0,), 2)]          # g_0 = 2
    assert dickson(f5, 1, 1).terms() == [((1,), 1)]          # g_1 = x
    assert dickson(f5, 2, 1).terms() == [((0,), 3), ((2,), 1)]   # x^2 - 2
    f16 = make_field(2, 4)
    assert dickson(f16, 14, 1).terms() == [((2,), 1), ((10,), 1), ((14,), 1)]
    with pytest.raises(ValueError) as err:
        dickson(f5, -1, 1)
    assert str(err.value) == "Dickson degree must be nonnegative"


@pytest.mark.parametrize("p,r,a", [(5, 1, 1), (5, 1, 2), (2, 4, 1), (3, 2, 2)])
@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_dickson_functional_equation(p, r, a, k):
    # g_k(y + a/y) == y^k + (a/y)^k for every nonzero y
    field = make_field(p, r)
    g = dickson(field, k, a)
    for y in range(1, field.q):
        ay = field.mul(a, field.inv(y))
        lhs = g.evaluate([field.add(y, ay)])
        rhs = field.add(field.pow(y, k), field.pow(ay, k))
        assert lhs == rhs


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4)])
def test_dickson_huge_degree(p, r):
    # any k is read in O(log k) steps, into a table only.  For a != 0,
    # x = y + a/y with y in F_(q^2)^*, so g_k = g_(k mod (q^2 - 1)); for
    # a = 0, g_k = x^k
    field = make_field(p, r)
    q = field.q
    assert repr(dickson(field, 10**30, 1)) == \
        f"MultiPoly(q={q}, n=1, table only)"
    for k in (10**30, 10**30 + 1, 3**70):
        assert dickson(field, k, 0) == poly_build(field, 1, [((k,), 1)])
        for a in range(1, q):
            assert dickson(field, k, a) == dickson(field, k % (q * q - 1), a)


def test_dickson_recurrence():
    # g_k = x g_{k-1} - a g_{k-2}
    field = make_field(3, 2)
    a = 2
    x = poly_build(field, 1, [((1,), 1)])
    for k in range(2, 10):
        lhs = dickson(field, k, a)
        rhs = x * dickson(field, k - 1, a) - dickson(field, k - 2, a).scale(a)
        assert lhs == rhs


# -- univariate PP check -----------------------------------------------------------

def test_is_univariate_pp():
    f5 = make_field(5)
    x = poly_build(f5, 1, [((1,), 1)])
    assert is_univariate_pp(x)
    assert is_univariate_pp(x * x * x)          # gcd(3, 4) = 1
    assert not is_univariate_pp(x * x)          # squares collide
    assert is_univariate_pp(t_poly(f5))
    for (p, r) in FIELDS:
        assert is_univariate_pp(t_poly(make_field(p, r)))
    # q > 64: the line is sorted, not read as bits
    assert is_univariate_pp(poly_build(make_field(2, 7), 1, [((5,), 1)]))
    assert not is_univariate_pp(poly_build(make_field(3, 6), 1, [((2,), 1)]))
    with pytest.raises(VariableCountMismatch) as err:
        is_univariate_pp(poly_build(f5, 2, [((1, 0), 1)]))
    assert str(err.value) == "expected a univariate polynomial"
