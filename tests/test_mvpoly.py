"""Reduced multivariate ring: arithmetic vs a naive oracle, evaluation,
interpolation round trips, substitution, composition, JSON."""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from ffperm import (CapExceeded, FieldMismatch, IndexOutOfRange, MultiPoly,
                    VariableCountMismatch, compose_univariate, interpolate, make_field, mvpoly,
                    points, poly_build, poly_from_json, poly_to_json, t_poly,
                    to_table)
from ffperm.constructions import lpp_beta
from ffperm.mvpoly import FuncTable, _transform, fold_exp, monomial
from oracle import (SMALL_FIELDS, NaiveField, naive_eval, naive_poly_build,
                    naive_poly_mul, naive_transform_matrices)


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


def test_huge_exponents_fold_like_fold_exp():
    f9 = make_field(3, 2)
    for e in (10**30, 2**63, 2**63 - 1, 2**64 + 5, 3**50):
        want = ((fold_exp(e, 9), 1), 1)
        # a huge exponent next to small ones, and alone
        for terms in ([((e, 1), 1)], [((2, 3), 4), ((e, 1), 1), ((2, 3), 5)]):
            f = poly_build(f9, 2, terms)
            assert want in f.terms()
            doc = {"field": f9.to_json(), "n": 2,
                   "terms": [{"exps": list(x), "coeff": c} for x, c in terms]}
            assert poly_from_json(doc) == f
    assert poly_build(f9, 1, [((np.uint64(2**63),), 1)]).terms() == \
        [((fold_exp(2**63, 9),), 1)]


# Single-fault inputs given to poly_build (terms) and to poly_from_json (a
# document over F_9), with the outcome recorded before terms were read into
# arrays: (exception type, message), or ("accepts", terms it equals).
# poly_build reads values as int() does; JSON takes only integers.
INT_OF_LIST = ("int() argument must be a string, a bytes-like object or a "
               "real number, not 'list'")
SHAPE = 'each term must be {"exps": [int, ...], "coeff": int or [int, ...]}'
FAULTS = [
    ("wrong arity", 2, [((1,), 1)], [{"exps": [1], "coeff": [1, 0]}],
     (VariableCountMismatch, "term has 1 exponents, expected 2"), None),
    ("negative exponent", 2, [((1, -1), 1)],
     [{"exps": [1, -1], "coeff": [1, 0]}],
     (ValueError, "exponents must be nonnegative"), None),
    ("rank >= q", 2, [((1, 1), 9)], [{"exps": [1, 1], "coeff": 9}],
     (ValueError, "rank 9 outside field of order 9"), None),
    ("digit >= p", 2, [((1, 1), [3, 0])], [{"exps": [1, 1], "coeff": [3, 0]}],
     (TypeError, INT_OF_LIST), (ValueError, "coefficient 3 outside [0, 3)")),
    ("digit vector length", 2, [((1, 1), [1])],
     [{"exps": [1, 1], "coeff": [1]}], (TypeError, INT_OF_LIST),
     (ValueError, "coefficient vector must have length 2")),
    ("bool exponent", 2, [((True, 1), 1)],
     [{"exps": [True, 1], "coeff": [1, 0]}], ("accepts", [((1, 1), 1)]),
     (ValueError, SHAPE)),
    ("float coefficient", 2, [((1, 1), 1.5)], [{"exps": [1, 1], "coeff": 1.5}],
     ("accepts", [((1, 1), 1)]), (ValueError, SHAPE)),
    ("n over the point cap", 13, [((1,) * 13, 1)],
     [{"exps": [1] * 13, "coeff": [1, 0]}],
     (CapExceeded, "9^13 points exceed the point cap"), None),
    ("negative n", -1, [], [], (ValueError, "variable count must be "
                                "nonnegative"), None),
    ("exponent -10**30", 2, [((-10**30, 1), 1)],
     [{"exps": [-10**30, 1], "coeff": [1, 0]}],
     (ValueError, "exponents must be nonnegative"), None),
    ("rank 10**30", 2, [((1, 1), 10**30)], [{"exps": [1, 1], "coeff": 10**30}],
     (ValueError, f"rank {10**30} outside field of order 9"), None),
    ("digit 10**30", 2, [((1, 1), [10**30, 0])],
     [{"exps": [1, 1], "coeff": [10**30, 0]}], (TypeError, INT_OF_LIST),
     (ValueError, f"coefficient {10**30} outside [0, 3)")),
    # the retry after the overflow reads the in-range digit 0 first
    ("digit 10**30 after 0", 2, [((1, 1), [0, 10**30])],
     [{"exps": [1, 1], "coeff": [0, 10**30]}], (TypeError, INT_OF_LIST),
     (ValueError, f"coefficient {10**30} outside [0, 3)")),
]


@pytest.mark.parametrize("label,n,terms,doc_terms,want,doc_want", FAULTS,
                         ids=[case[0] for case in FAULTS])
def test_single_faults_are_pinned(label, n, terms, doc_terms, want, doc_want):
    """Also as JSON text, exps first (json.dumps) and coeff first (keys
    sorted, as `ffperm construct` writes)."""
    f9 = make_field(3, 2)
    doc = {"field": f9.to_json(), "n": n, "terms": doc_terms}
    for call, (kind, detail) in (
            (lambda: poly_build(f9, n, terms), want),
            (lambda: poly_from_json(doc), doc_want or want),
            (lambda: poly_from_json(json.dumps(doc)), doc_want or want),
            (lambda: poly_from_json(json.dumps(doc, sort_keys=True)),
             doc_want or want)):
        if kind == "accepts":
            assert call() == poly_build(f9, n, detail)
            continue
        with pytest.raises(kind) as err:
            call()
        assert str(err.value) == detail


FIELD_KEYS = '"field" needs an integer "p" and an optional integer "r"'
MODULUS = '"modulus" must be a list of integers'
# Single faults in the header of a document over F_9 (modulus [1, 0, 1]):
# the top-level n, or a key of "field", with the message each gets
HEADER_FAULTS = [
    ("bool n", "n", True, '"n" must be an integer'),
    ("float n", "n", 2.0, '"n" must be an integer'),
    ("bool p", "p", True, FIELD_KEYS),
    ("float p", "p", 3.0, FIELD_KEYS),
    ("bool r", "r", True, FIELD_KEYS),
    ("float r", "r", 2.0, FIELD_KEYS),
    ("bool modulus entry", "modulus", [1, 0, True], MODULUS),
    ("float modulus entry", "modulus", [1.0, 0, 1], MODULUS),
    ("string modulus", "modulus", "x^2 + 1", MODULUS),
    ("int modulus", "modulus", 5, MODULUS),
]


@pytest.mark.parametrize("label,key,value,message", HEADER_FAULTS,
                         ids=[case[0] for case in HEADER_FAULTS])
def test_header_faults_are_pinned(label, key, value, message):
    """As a document, and as JSON text exps first and coeff first."""
    doc = {"field": make_field(3, 2).to_json(), "n": 2,
           "terms": [{"exps": [1, 1], "coeff": [1, 0]}]}
    (doc if key == "n" else doc["field"])[key] = value
    for data in (doc, json.dumps(doc), json.dumps(doc, sort_keys=True)):
        with pytest.raises(ValueError) as err:
            poly_from_json(data)
        assert str(err.value) == message


# q <= 13, then two fields at the table cap's end
BUILD_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (3, 6), (2, 10)]


@pytest.mark.parametrize("p,r", BUILD_FIELDS)
def test_term_sums_match_naive(p, r):
    """poly_build and poly_from_json against the per-term oracle: duplicate
    terms, exponents up to 3q, zero coefficients, no terms, n = 0, a
    generator for terms, and int and digit-vector JSON coefficients."""
    field = make_field(p, r)
    nf = naive_of(field)
    q = field.q
    rng = np.random.default_rng(q)
    for n in range(4):
        if q**n > 1 << 16:
            break
        pool = [tuple(rng.integers(0, 3 * q, size=n).tolist())
                for _ in range(6)]
        for count in (0, 1, 6, 40):
            terms = [(pool[int(rng.integers(6))],
                      int(rng.integers(q)) if rng.random() < 0.8 else 0)
                     for _ in range(count)]
            want = naive_poly_build(nf, n, terms)
            assert poly_build(field, n, terms).terms() == want
            assert poly_build(field, n, (t for t in terms)).terms() == want
            doc = {"field": field.to_json(), "n": n,
                   "terms": [{"exps": list(e),
                              "coeff": nf.digits(c) if k % 2 else c}
                             for k, (e, c) in enumerate(terms)]}
            assert poly_from_json(doc).terms() == want


def test_json_ingest_memory_is_bounded():
    """The lpp_beta q=16 n=4 document (38,420 terms) is read in at most
    3 MiB on top of the document: no per-term objects, one (N, n) array at
    a time."""
    field = make_field(2, 4)
    doc = json.loads(json.dumps(poly_to_json(lpp_beta(field, 4))))
    assert len(doc["terms"]) == 38420
    want = poly_from_json(doc)
    tracemalloc.start()
    try:
        got = poly_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 3 << 20, peak


def test_deeply_nested_text_is_a_value_error():
    # once with no terms key, once with the nesting in the header
    deep = "[" * 100000
    for text in (deep, '{"params": ' + deep + '"terms": [{"exps": [1], '
                                              '"coeff": [1]}]}'):
        with pytest.raises(ValueError) as err:
            poly_from_json(text)
        assert str(err.value) == "JSON input is nested too deeply"


def test_text_ingest_memory_is_bounded():
    """Read from its text, the same document peaks at under 3 times the
    text's length (2.8 measured): the terms' bytes, then a copy with every
    non-digit made a space and the (N, n + r) int64 array np.fromstring
    reads from it.  Through json.loads it peaks near 8.7 times."""
    field = make_field(2, 4)
    text = json.dumps(poly_to_json(lpp_beta(field, 4)))
    want = poly_from_json(json.loads(text))
    tracemalloc.start()
    try:
        got = poly_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 3 * len(text), (peak, len(text))


# -- ring arithmetic vs oracle ------------------------------------------------

@pytest.mark.parametrize("p,r", SMALL_FIELDS)
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
    acc = monomial(field, 2, (0, 0))
    for k in range(5):
        assert f**k == acc
        acc = acc * f
    assert f**0 == monomial(field, 2, (0, 0))


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
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


@pytest.mark.parametrize("p,r", [(2, 1), (5, 1), (2, 10)])
def test_exponents_are_read_as_integers(p, r):
    # Field.pow and ** share one check and one fold: a bool counts as 0 or
    # 1 as in pow(), a numpy integer or an integral float is an integer, and
    # a non-integral or negative exponent raises ValueError (at q = 2,
    # q - 1 = 1)
    field = make_field(p, r)
    q = field.q
    f = t_poly(field)
    one = monomial(field, 1, (0,))
    assert f**True == f and f**False == one
    assert f**np.int64(2) == f**2.0 == f**np.float64(2) == f * f
    assert f**np.int64(q) == f
    assert f**(2**70) == f**fold_exp(2**70, q)
    for a in (0, 1, q - 1):
        assert field.pow(a, True) == a and field.pow(a, False) == 1
        assert field.pow(a, np.int64(2)) == field.mul(a, a)
        assert field.pow(a, 2.0) == field.mul(a, a)
        assert field.pow(a, np.uint16(q - 1)) == int(a != 0)
    assert field.inv(q - 1) == field.pow(q - 1, q - 2)
    for k in (2.5, np.float64(2.5), -1, np.int64(-1), -2**70, "2", None):
        with pytest.raises(ValueError):
            f**k
        with pytest.raises(ValueError):
            field.pow(1, k)


def test_cross_field_and_arity_errors():
    f5, f7 = make_field(5), make_field(7)
    a = monomial(f5, 1, (1,))
    b = monomial(f7, 1, (1,))
    with pytest.raises(FieldMismatch):
        _ = a + b
    c = monomial(f5, 2, (1, 0))
    with pytest.raises(VariableCountMismatch):
        _ = a + c
    with pytest.raises(TypeError) as err:
        _ = a * 2
    assert str(err.value) == "expected MultiPoly, got int"


def test_equal_polynomials_hash_alike():
    # one held as coefficients, one as a value table only
    field = make_field(5)
    f = poly_build(field, 2, [((1, 2), 3), ((0, 4), 1)])
    g = interpolate(to_table(f))
    assert g._coeffs is None and f == g
    assert hash(f) == hash(g) and len({f, g}) == 1


F5, F7 = make_field(5), make_field(7)
X = poly_build(F5, 2, [((1, 1), 1)])            # x1 x2 over F_5
# (label, call, exception type, message) for misuse of the public helpers
MISUSE = [
    ("substitute index", lambda: X.substitute(2, 1), IndexOutOfRange,
     "variable index 2 outside [0, 2)"),
    ("substitute field", lambda: X.substitute(0, monomial(F7, 1, (1,))),
     FieldMismatch, "substituted polynomial field differs"),
    ("substitute multivariate", lambda: X.substitute(0, X),
     VariableCountMismatch, "substituted polynomial must be univariate"),
    ("evaluate arity", lambda: X.evaluate([1]), VariableCountMismatch,
     "point has 1 coordinates, poly has 2"),
    ("compose multivariate outer", lambda: compose_univariate(X, X),
     VariableCountMismatch, "outer polynomial must be univariate"),
    ("compose field", lambda: compose_univariate(monomial(F7, 1, (1,)), X),
     FieldMismatch, "operands live in different fields"),
    ("table size", lambda: FuncTable(F5, 2, np.zeros(24)), ValueError,
     "expected 25 values, got 24"),
    ("table negative n", lambda: FuncTable(F5, -1, [0]), ValueError,
     "variable count must be nonnegative"),
    # refused at once, without building 5^(10^8)
    ("table huge n", lambda: FuncTable(F5, 10**8, [0]), ValueError,
     "expected 5^100000000 values, got 1"),
    ("table n 2.5", lambda: FuncTable(F5, 2.5, [0] * 25), ValueError,
     "variable count must be an integer, not 2.5"),
    ("table n '2'", lambda: FuncTable(F5, "2", [0] * 25), ValueError,
     "variable count must be an integer, not '2'"),
    ("table value q", lambda: FuncTable(F5, 1, [0, 1, 2, 3, 5]), ValueError,
     "table values must be element ranks"),
    ("table value -1", lambda: FuncTable(F5, 1, [0, 1, 2, 3, -1]),
     ValueError, "table values must be element ranks"),
    # a value that int64 would change is refused, not truncated or parsed
    ("table value 1.5", lambda: FuncTable(F5, 1, [1.5, 0, 2, 3, 4]),
     ValueError, "table values must be element ranks"),
    ("table value '1'", lambda: FuncTable(F5, 1, ["1", "0", "2", "3", "4"]),
     ValueError, "table values must be element ranks"),
    ("table value nan", lambda: FuncTable(F5, 1, [np.nan, 0, 2, 3, 4]),
     ValueError, "table values must be element ranks"),
    ("table value 10^30", lambda: FuncTable(F5, 1, [10**30, 0, 2, 3, 4]),
     ValueError, "table values must be element ranks"),
    ("table value None", lambda: FuncTable(F5, 1, [None, 0, 2, 3, 4]),
     ValueError, "table values must be element ranks"),
    # MultiPoly reads n as FuncTable does, before anything of size q^n
    ("poly negative n", lambda: MultiPoly(F5, -1, values=[0]), ValueError,
     "variable count must be nonnegative"),
    ("poly huge n", lambda: MultiPoly(F5, 10**20, np.zeros(25)), ValueError,
     f"expected 5^{10**20} values, got 25"),
    ("poly n 2.5", lambda: MultiPoly(F5, 2.5, values=np.zeros(25)),
     ValueError, "variable count must be an integer, not 2.5"),
    # n is read against every array given, and one array is needed
    ("poly values size", lambda: MultiPoly(F5, 1, np.zeros(5),
                                           values=np.zeros(4)),
     ValueError, "expected 5 values, got 4"),
    ("poly no arrays n 0", lambda: MultiPoly(F5, 0), ValueError,
     "need coefficients or values"),
    ("poly no arrays n 1", lambda: MultiPoly(F5, 1), ValueError,
     "need coefficients or values"),
    # points reads n as every variable count is read, before itertools
    ("points huge n", lambda: points(F5, 10**20), CapExceeded,
     f"5^{10**20} points exceed the point cap"),
    ("points negative n", lambda: points(F5, -1), ValueError,
     "variable count must be nonnegative"),
    ("points n 2.5", lambda: points(F5, 2.5), ValueError,
     "variable count must be an integer, not 2.5"),
]


@pytest.mark.parametrize("label,call,kind,message", MISUSE,
                         ids=[case[0] for case in MISUSE])
def test_misuse_is_refused_with_its_message(label, call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("n,values", [(2, list(range(5)) * 5 + [0]),
                                      (2, np.zeros(24, dtype=np.int64)),
                                      (1, [1, 2, 3]), (0, [1, 2]),
                                      (1, np.zeros((5, 5), dtype=np.int64))])
def test_multipoly_refuses_a_wrong_size_table(n, values):
    # a table is read through the (q,)*n shape, so a wrong size is refused
    # when the polynomial is made, before a checker reads it
    with pytest.raises(ValueError):
        MultiPoly(F5, n, values=values)


@pytest.mark.parametrize("n", [np.int64(2), 2.0], ids=["numpy", "float"])
def test_multipoly_reads_an_integral_n_as_an_int(n):
    # an integral n of another type is kept as the int it equals, so the
    # polynomial's JSON dumps and it equals the one made with n = 2
    vals = np.arange(25) % 5
    f = MultiPoly(F5, n, values=vals)
    assert type(f.n) is int and f == MultiPoly(F5, 2, values=vals)
    assert json.loads(json.dumps(poly_to_json(f)))["n"] == 2


def test_multipoly_refuses_a_wrong_size_tensor():
    with pytest.raises(ValueError):
        MultiPoly(F5, 2, np.zeros(24, dtype=np.int64))
    # any array of the right size is read in point-rank order
    f = MultiPoly(F5, 2, values=np.arange(25).reshape(5, 5) % 5)
    assert f._values().shape == (25,) and not f._values().flags.writeable


def test_func_table_equality_and_repr():
    field = make_field(3)
    t = FuncTable(field, 1, [2, 0, 1])
    assert t == FuncTable(field, 1, np.array([2, 0, 1]))
    assert t != FuncTable(field, 1, [2, 1, 0])
    assert t != FuncTable(make_field(5), 1, [2, 0, 1, 3, 4])
    assert t != FuncTable(field, 0, [2])
    assert t != [2, 0, 1]
    assert repr(t) == "FuncTable(q=3, n=1)"


def test_func_table_reads_integral_values_exactly():
    want = FuncTable(F5, 1, [4, 0, 2, 3, 1])
    for values in ([4.0, 0.0, 2.0, 3.0, 1.0],
                   [np.int32(4), np.uint8(0), 2, np.int64(3), 1],
                   np.array([4, 0, 2, 3, 1], dtype=np.uint16)):
        t = FuncTable(F5, 1, values)
        assert t == want and t.values.dtype == np.int64
    assert FuncTable(F5, 1, [True, False, 0, 0, 1]).values.tolist() == [
        1, 0, 0, 0, 1]


def test_func_table_reads_an_integral_n_as_an_int():
    values = np.arange(25) % 5
    want = FuncTable(F5, 2, values)
    for n in (2.0, np.int64(2)):
        t = FuncTable(F5, n, values)
        assert type(t.n) is int and t == want
        assert interpolate(t) == interpolate(want)


# -- evaluation and tables ----------------------------------------------------

@pytest.mark.parametrize("p,r", SMALL_FIELDS)
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


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
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


@functools.cache
def naive_tables(p, modulus):
    """The oracle's add and mul over F_q as q x q arrays."""
    nf = NaiveField(p, None if modulus is None else tuple(modulus))
    q = nf.q
    add = np.array([[nf.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[nf.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul


def naive_transform(field, arr, M, nvars):
    """Apply M along each of the first nvars axes in turn, one entry of M
    at a time with the oracle's add and mul, then move the batch axes to
    the front."""
    add, mul = naive_tables(field.p, field.modulus)
    t = arr
    for axis in range(nvars):
        moved = np.moveaxis(t, axis, 0)
        out = np.zeros((len(M),) + moved.shape[1:], dtype=np.int64)
        for e, row in enumerate(M.tolist()):
            for a, m in enumerate(row):
                out[e] = add[out[e], mul[m, moved[a]]]
        t = np.moveaxis(out, 0, axis)
    return np.moveaxis(t, list(range(nvars)), list(range(-nvars, 0)))


def sparse_inputs(rng, q, nvars, batch):
    """Sparse tensors of shape (q,)*nvars + batch: all zero, one nonzero
    entry, a few nonzero columns of the (q, R) view, and, for each order
    of the axes, a staircase whose axes have nonzero rows in that order of
    count (most first; q = 2 allows no more than 2 rows); then an empty
    tensor, with a batch axis of length 0."""
    shape = (q,) * nvars + batch
    size = int(np.prod(shape))
    out = [np.zeros(shape, dtype=np.int64)]
    one = np.zeros(size, dtype=np.int64)
    one[rng.integers(size)] = rng.integers(1, q)
    out.append(one.reshape(shape))
    if nvars:
        cols = np.zeros((q, size // q), dtype=np.int64)
        picked = rng.choice(size // q, size=min(2, size // q), replace=False)
        cols[:, picked] = rng.integers(0, q, size=(q, picked.size))
        out.append(cols.reshape(shape))
    for perm in itertools.permutations(range(nvars)):
        stair = np.zeros(shape, dtype=np.int64)
        rows = [rng.choice(q, size=min(q, nvars - j), replace=False)
                for j in range(nvars)]
        for m in range(nvars):
            pt = [0] * nvars
            for j, axis in enumerate(perm):
                pt[axis] = rows[j][min(m, len(rows[j]) - 1)]
            stair[tuple(pt)] = rng.integers(1, q, size=batch)
        out.append(stair)
    out.append(np.zeros((q,) * nvars + (0,), dtype=np.int64))
    return out


TRANSFORM_CASES = [
    (p, r, kind, nvars, batch)
    for p, r in SMALL_FIELDS + [(2, 6)]
    for kind in ("pow_t", "lagr_t", "corner")
    for nvars in (0, 1, 2, 3)
    for batch in ((), (1,), (5,))
    # a naive full transform of 64^3 points takes seconds per batch entry
    if (p, r, nvars) != (2, 6, 3) or kind == "corner" or not batch]


@pytest.mark.parametrize(
    "p,r,kind,nvars,batch", TRANSFORM_CASES,
    ids=[f"q{p**r}-{kind}-n{nvars}-b{batch[0] if batch else 'none'}"
         for p, r, kind, nvars, batch in TRANSFORM_CASES])
def test_transform_matches_naive_per_axis(monkeypatch, p, r, kind, nvars,
                                          batch):
    field = make_field(p, r)
    q = field.q
    # "pow_t" is the full evaluation matrix and "lagr_t" the full
    # interpolation matrix, both built by the oracle; "corner" reads
    # coefficients q-2 and q-1 of every axis off a full interpolation,
    # against the oracle's interpolation rows q-2 and q-1 alone
    E, L = map(np.array, naive_transform_matrices(naive_of(field)))
    inverse, M = {"pow_t": (False, E), "lagr_t": (True, L),
                  "corner": (True, L[q - 2:])}[kind]
    rng = np.random.default_rng(q * 100 + nvars * 10 + len(batch))
    arr = rng.integers(0, q, size=(q,) * nvars + batch).astype(np.int64)
    got = _transform(field, arr, inverse, nvars)
    # batch axes first, then the transformed axes in their original order
    assert got.shape == batch + (q,) * nvars
    assert got.flags.c_contiguous
    if not batch:
        assert np.array_equal(_transform(field, arr, inverse), got)
    got = got[(...,) + (slice(q - len(M), None),) * nvars]
    assert np.array_equal(got, naive_transform(field, arr, M, nvars))
    if q == 64 and kind != "corner":
        return      # a naive full transform at q = 64 is slow per input
    # the sparse inputs run with no size gate, so that even these small
    # tensors take the axis order and the column scan
    monkeypatch.setattr(mvpoly, "_SPARSE_MIN", 0)
    for arr in sparse_inputs(rng, q, nvars, batch):
        got = _transform(field, arr, inverse, nvars)
        assert got.shape == arr.shape[nvars:] + (q,) * nvars
        assert got.flags.c_contiguous
        got = got[(...,) + (slice(q - len(M), None),) * nvars]
        assert np.array_equal(got, naive_transform(field, arr, M, nvars))


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


@pytest.mark.parametrize("p,r", [(3, 6), (2, 10)])
def test_large_field_univariate_roundtrips(p, r):
    field = make_field(p, r)
    q = field.q
    for e in (1, q - 2, q - 1):
        tbl = to_table(monomial(field, 1, (e,)))
        assert np.array_equal(tbl.values, field.powers(np.arange(q), e))
        assert interpolate(tbl).terms() == [((e,), 1)]


def test_large_field_dense_roundtrip():
    field = make_field(3, 6)
    vals = np.random.default_rng(field.q).integers(0, field.q, size=field.q)
    coeffs = interpolate(FuncTable(field, 1, vals)).coeffs
    back = to_table(MultiPoly(field, 1, coeffs))
    assert np.array_equal(back.values, vals)


def test_table_cap(monkeypatch):
    field = make_field(5)
    f = monomial(field, 3, (1, 0, 0))  # build before tightening the cap
    monkeypatch.setenv("FFPERM_POINT_CAP", "100")
    with pytest.raises(CapExceeded, match=r"^5\^3 points exceed"):
        to_table(f)                  # 125 points > 100
    monkeypatch.delenv("FFPERM_POINT_CAP")
    with pytest.raises(CapExceeded):
        poly_build(field, 10**12, [])  # refused before 5^n is built


# -- degrees ------------------------------------------------------------------

def test_degree_conventions():
    field = make_field(5)
    z = monomial(field, 2, (0, 0), 0)
    total, per_var = z.degrees()
    assert total == -1 and per_var == (-1, -1)
    assert z.total_degree == -1
    c = monomial(field, 2, (0, 0), 3)
    assert c.total_degree == 0 and c.degrees()[1] == (0, 0)
    f = poly_build(field, 2, [((2, 3), 1), ((4, 0), 2)])
    total, per_var = f.degrees()
    assert total == 5 and per_var == (4, 3)
    assert f.leading_terms() == [((2, 3), 1)]


def test_leading_terms_all_of_max_degree():
    field = make_field(3)
    f = poly_build(field, 2, [((2, 1), 1), ((1, 2), 2), ((1, 1), 1)])
    assert f.leading_terms() == [((1, 2), 2), ((2, 1), 1)]


def both_domains(f):
    """f again, once holding only its value table, once only coefficients."""
    return (interpolate(FuncTable(f.field, f.n, to_table(f).values)),
            MultiPoly(f.field, f.n, f.coeffs))


def test_leading_terms_cache_the_full_tensor(family_polys):
    # a table-only polynomial reads its corners off the full coefficient
    # tensor, which it caches; a corner is never cached in its place
    for label, f in family_polys + LARGE_LOW:
        for read in (MultiPoly.leading_terms, lambda g: g.total_degree):
            from_table = both_domains(f)[0]
            read(from_table)
            assert np.array_equal(from_table._coeffs, f.coeffs), label


# over F_5 the corner of exponents >= 2 holds x1^2*x2^2 (degree 4) but not
# the leading term 2*x1^4*x2 (degree 5); a tensor this small is scanned
# whole, and LARGE_LOW has the same shape at 5^7 entries
CORNER_MISSES = ("corner misses",
                 poly_build(make_field(5), 2, [((2, 2), 1), ((4, 1), 2)]))


def _large(p, r, n, terms, label):
    return (label, poly_build(make_field(p, r), n, terms))


# low-degree polynomials on tensors of at least 2^14 entries, so that the
# corners grow until the last one is the whole tensor
LARGE_LOW = [
    _large(2, 4, 4, [((1, 0, 0, 0), 1), ((0, 0, 0, 0), 3)], "x1 + 3 q=16 n=4"),
    _large(2, 1, 14, [((0,) * 13 + (1,), 1)], "x14 q=2 n=14"),
    _large(2, 2, 7, [((3, 3, 0, 0, 0, 0, 2), 2), ((1,) * 7, 1)], "q=4 n=7"),
    # the corner of exponents >= 3 holds (3,...,3) of degree 21 < 27, and
    # that of exponents >= 1 nothing of degree >= 25; the lead has a zero
    _large(5, 1, 7, [((3,) * 7, 1), ((4,) * 6 + (0,), 2)], "corner misses n=7"),
    _large(5, 1, 7, [((0,) * 7, 4)], "constant q=5 n=7"),
    _large(5, 1, 7, [], "zero q=5 n=7"),
]


def test_leading_terms_match_a_full_scan(family_polys):
    for label, f in family_polys + [CORNER_MISSES] + LARGE_LOW:
        total = f.degrees()[0]
        want = [(e, c) for e, c in f.terms() if sum(e) == total]
        for g in both_domains(f):
            assert g.leading_terms() == want, label
            assert g.total_degree == total, label


def _corners_read(monkeypatch):
    """The low exponent of every corner _nonzero reads from here on."""
    lows, nonzero = [], MultiPoly._nonzero

    def record(self, low=0):
        lows.append(low)
        return nonzero(self, low)

    monkeypatch.setattr(MultiPoly, "_nonzero", record)
    return lows


def test_leading_term_corners_grow_from_the_top(monkeypatch):
    small = both_domains(CORNER_MISSES[1])[1]
    misses, low_degree, zero_poly = (both_domains(f)[1] for f in (
        LARGE_LOW[3][1], LARGE_LOW[0][1], LARGE_LOW[5][1]))
    lows = _corners_read(monkeypatch)
    assert small.total_degree == 5 and lows == [0]      # small: whole
    del lows[:]
    assert misses.total_degree == 24 and lows == [4, 3, 1, 0]
    del lows[:]
    assert low_degree.total_degree == 1 and lows == [15, 14, 12, 8, 0]
    del lows[:]
    assert zero_poly.leading_terms() == [] and lows == [4, 3, 1, 0]


def test_lpp_beta_degree_is_read_without_a_full_scan(monkeypatch):
    # degree n(q-2) = 56 lies in the corner of exponents >= 8 (k = 7)
    f = lpp_beta(make_field(2, 4), 4)
    held = MultiPoly(f.field, f.n, f.coeffs)
    lows = _corners_read(monkeypatch)
    assert held.leading_terms() == [((14,) * 4, 1)]
    assert held.total_degree == 56
    assert lows == [15, 14, 12, 8] * 2


def test_zero_variable_readout():
    field = make_field(5)
    c = poly_build(field, 0, [((), 3)])
    z = poly_build(field, 0, [])
    assert c.terms() == [((), 3)] and z.terms() == []
    assert c.degrees() == (0, ()) and z.degrees() == (-1, ())
    assert c.total_degree == 0 and z.total_degree == -1
    for g in both_domains(c):
        assert g.leading_terms() == [((), 3)] and g.total_degree == 0
    for g in both_domains(z):
        assert g.leading_terms() == [] and g.total_degree == -1


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


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_substitute_and_extend_match_naive_eval(p, r):
    # the results' coefficients, read back through the oracle, must give
    # the substituted function
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


def test_to_table_wraps_the_cached_values_through_the_checks(monkeypatch):
    made = []
    real = FuncTable.__init__

    def counting(self, *args):
        made.append(args)
        real(self, *args)

    f = lpp_beta(make_field(2, 2), 3)      # holds its table from the build
    monkeypatch.setattr(FuncTable, "__init__", counting)
    tbl = to_table(f)
    assert len(made) == 1
    assert np.shares_memory(tbl.values, f._values())
    assert to_table(f) == tbl and len(made) == 2


def test_interpolate_holds_the_table_without_a_copy():
    field = make_field(2)
    tbl = FuncTable(field, 20, np.arange(2**20) % 2)    # 2^20 points
    g = interpolate(tbl)
    assert np.shares_memory(g._values(), tbl.values)


def test_table_paths_do_no_transform(monkeypatch):
    # interpolate holds its table's values, to_table hands them back, and
    # ring operations on table-held polynomials stay in the table domain
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
            formal = monomial(field, 2, (0, 0), 0)
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


def test_poly_json_lists_digit_vectors(family_polys):
    for label, f in family_polys:
        field = f.field
        assert poly_to_json(f)["terms"] == [
            {"exps": list(e), "coeff": field.coeffs_of(c)}
            for e, c in f.terms()], label


def test_poly_json_term_order_is_rank_sorted():
    f5 = make_field(5)
    f = poly_build(f5, 2, [((3, 1), 1), ((0, 2), 2), ((1, 0), 4)])
    exps = [t["exps"] for t in poly_to_json(f)["terms"]]
    assert exps == sorted(exps)
