"""Field construction, canonical moduli, generators, and arithmetic tables,
cross-checked against an independent pure-Python oracle."""

import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from ffperm import (CapExceeded, Field, FieldMismatch, NotPrime,
                    field_from_json, make_field, poly_build, transposition)
from ffperm import gf
from ffperm.mvpoly import _dense_matrix, extend
from oracle import NaiveField

# canonical modulus = first monic irreducible in base-p rank order
# (constant-first coefficient vectors read as integers), so these are fixed
# for all time; generators are the smallest-rank primitive elements
EXPECTED_MODULI = {
    (2, 2): [1, 1, 1],          # z^2 + z + 1
    (2, 3): [1, 1, 0, 1],       # z^3 + z + 1
    (2, 4): [1, 1, 0, 0, 1],    # z^4 + z + 1
    (3, 2): [1, 0, 1],          # z^2 + 1
    (3, 3): [1, 2, 0, 1],       # z^3 + 2z + 1
    (5, 2): [2, 0, 1],          # z^2 + 2
}
EXPECTED_GENERATORS = {
    (2, 1): 1, (3, 1): 2, (5, 1): 2, (7, 1): 3, (11, 1): 2, (13, 1): 2,
    (2, 2): 2, (2, 3): 2, (2, 4): 2, (3, 2): 4, (3, 3): 3, (5, 2): 6,
    (7, 2): 9, (2, 6): 2, (3, 4): 3, (5, 3): 9,
}

ALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
              (11, 1), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4),
              (5, 3)]

# the q x q gather tables a field holds
SQUARE_TABLES = ("add_t", "mul_t")

# sha256 of each table as C-order int64 bytes, with the generator and the
# modulus; recorded from the convolution-built tables that the discrete-log
# build replaced, so any change to a table shows here.  "pow_t" and
# "lagr_t" are the full evaluation and interpolation matrices that
# mvpoly._dense_matrix makes, and "inv_t" the inverse column, read through
# inv with 0 at rank 0
PINNED = {
    (3, 3): {
        "generator": 3,
        "modulus": [1, 2, 0, 1],
        "add_t": "8a032eac974c725cbf23aacc99f03c33"
                 "2755dea9bc057d60e3d354e91c1d4011",
        "mul_t": "a1a7d8805ba20f94455139e4ce0c8eae"
                 "5129d81e53dc63ad07519f93f453e8d5",
        "neg_t": "87cc86f3a55d8ee984e71f77dee35a97"
                 "7b3c276dfd27c5bc51a22cd7b4da6ae2",
        "inv_t": "ce2c2f61ad9e2e4fd259257fd3b441b9"
                 "172f04d740dfe3e34d88c286cbb31902",
        "pow_t": "de14e1db59d1dfa4774a2d168a41c796"
                 "655eec3b31cdc01a6767865a50840b7b",
        "lagr_t": "571bc0dac201f6414414d45f5c831de8"
                  "915c3dbd1aeb1d7550b816eee18e0088",
    },
    (2, 6): {
        "generator": 2,
        "modulus": [1, 1, 0, 0, 0, 0, 1],
        "add_t": "779fcd7c371f9badc62ec28c6b7e8058"
                 "ef9af8b70316813a8982a39b9da0522c",
        "mul_t": "9acd8acc8ab7fd85c547e23b9434dd56"
                 "ad81d7f96083dffa48ae285f9825df49",
        "neg_t": "7a4644928f3a08db905254fd7e5e53ef"
                 "19a46d932a2ecd372b45462413a82619",
        "inv_t": "35d1f64f82a5901dada36b1082616ef1"
                 "5801451a2e6daaed8f63a39924a2d0f0",
        "pow_t": "cf4ec0b63d70f32b175ed6d620070104"
                 "792c4139b85428620493dbc9babab87b",
        "lagr_t": "a51d710291d53ff6cca00d7515b2ee09"
                  "7794a5e7d7e63e32efc15c0ff326b3b8",
    },
    (3, 6): {
        "generator": 3,
        "modulus": [2, 1, 0, 0, 0, 0, 1],
        "add_t": "37476f93020cec95486604c686a58566"
                 "d24d979585b3af8d2748156c50e1b095",
        "mul_t": "bf1ad6cb8543f8c1941832ea7f98c2f1"
                 "db2508cea33e4a16fc3a6f8768dc41a1",
        "neg_t": "1785af5159a766da19199a14473fff53"
                 "390551bb14c00b4f51e43b1bfd6111f0",
        "inv_t": "3900f0184f47300ac2de7115630684c9"
                 "a5aca83c2f822d7ea10e18c0bc7c45e2",
        "pow_t": "4bbe9228632d779351d4f6bf2a401ece"
                 "01f24faa296d1c1a67e2e4d643e72815",
        "lagr_t": "ec7b59c4623302340cec650c5b615c4d"
                  "02128f525843389ab81250e29b9e09c8",
    },
    (31, 2): {
        "generator": 35,
        "modulus": [1, 0, 1],
        "add_t": "2702be5177b0cabfeb0ab2f46d496a00"
                 "ab306c7a814a8d601d0155679b79b6d5",
        "mul_t": "15ac8cc1cf359df582467a1b00a78bd5"
                 "661f63189cc66edd30a42973410a11e2",
        "neg_t": "5a536c6d59602d5ec1a7272cb3afa5ec"
                 "b6096582c34e3bbe7ee3967b213c13f8",
        "inv_t": "653b492dec54fb4615264d3183a81c94"
                 "cf142a3f61c04543fbf113aa4cc92b06",
        "pow_t": "24788a26ae616732632eff66e8f63d60"
                 "9566b042abf33133af724ea54045b334",
        "lagr_t": "6715a0f0ddadf84934cb32894792e08c"
                  "c9c87277afb8b66de2dc7f2602e6853c",
    },
    (1021, 1): {
        "generator": 10,
        "modulus": None,
        "add_t": "3d016868991f5c76f464471aede77ad1"
                 "61b874af0617084a87f06bc9ee6a0801",
        "mul_t": "c1ace3c9f82bdcb4de42e88089870d86"
                 "1c467e6fcd585463f89043a7be1941fe",
        "neg_t": "aae0865457fb6fd1902cc1ca09ea7194"
                 "02341d5fed1d1729f69bbd5181e24755",
        "inv_t": "1df3c0d375d1375ea7e82dd9d6450dee"
                 "7a83e88ac5aeb0e0651159f3759d9a26",
        "pow_t": "29765ba68732abc3cbfa672d156519a4"
                 "cea0ac4a36fbe2d7c1831efbc2fe20cc",
        "lagr_t": "e4103421b20caf7b1ffaf05831e34dcd"
                  "0072234bfa3dd724333d6410e793da48",
    },
    (2, 10): {
        "generator": 2,
        "modulus": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
        "add_t": "4168ff5767cc31d3199a3484dcb43acf"
                 "a07f2e2e3f6a6b7fff5dcdaa649ce7bc",
        "mul_t": "dc97460a3aa57ea4bb905930bf8dbcff"
                 "b2088e4fdbcc421668cb8ded3b03ab5f",
        "neg_t": "2f88e9ce00d238e7e011a7b140b413dc"
                 "ad818f1da41a721f914f1af604d0e217",
        "inv_t": "b84a6ceb1677ea7b0ae11ecdef0e2b84"
                 "aa94e6f1846b814027799fc16a01167e",
        "pow_t": "19e25a84cd17b47651e3ff09da623d0e"
                 "d679c77e7d9787c509afccbe222306f8",
        "lagr_t": "000a0d26bd3c9755a94dff8e22ac0d9b"
                  "6d82732899e232ab3a3aaf044a3cac6b",
    },
}


def naive_of(field: Field) -> NaiveField:
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


@pytest.mark.parametrize("p,r", sorted(EXPECTED_MODULI))
def test_canonical_modulus(p, r):
    assert list(make_field(p, r).modulus) == EXPECTED_MODULI[(p, r)]


@pytest.mark.parametrize("p,r", sorted(EXPECTED_GENERATORS))
def test_generator_rank(p, r):
    # the generator is the smallest-rank element of order q-1, by the oracle
    field = make_field(p, r)
    ref = naive_of(field)
    g = field.generator
    assert g == EXPECTED_GENERATORS[(p, r)]

    def order(a):
        x, k = a, 1
        while x != 1:
            x, k = ref.mul(x, a), k + 1
        return k

    assert order(g) == field.q - 1
    assert all(order(a) < field.q - 1 for a in range(1, g))


def test_modulus_irreducible_by_exhaustion():
    # no monic factor of degree 1..r//2 divides the modulus
    for (p, r) in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        m = list(make_field(p, r).modulus)
        for d in range(1, r // 2 + 1):
            for rank in range(p**d):
                cand, k = [], rank
                for _ in range(d):
                    k, dig = divmod(k, p)
                    cand.append(dig)
                cand.append(1)
                rem = m[:]
                while len(rem) - 1 >= d and any(rem):
                    while rem and rem[-1] == 0:
                        rem.pop()
                    if len(rem) - 1 < d:
                        break
                    lead = rem[-1]
                    shift = len(rem) - 1 - d
                    for i, c in enumerate(cand):
                        rem[shift + i] = (rem[shift + i] - lead * c) % p
                assert any(c % p for c in rem), (p, r, cand)


@pytest.mark.parametrize("p,r", ALL_FIELDS)
def test_tables_match_oracle(p, r):
    field = make_field(p, r)
    ref = naive_of(field)
    q = field.q
    for a in range(q):
        assert field.neg(a) == ref.neg(a)
        if a:
            assert field.inv(a) == ref.inv(a)
        for b in range(q):
            assert field.add(a, b) == ref.add(a, b)
            assert field.sub(a, b) == ref.sub(a, b)
            assert field.mul(a, b) == ref.mul(a, b)
    # exp[i] = g^i and log inverts it; the evaluation matrix E[a, e] = a^e
    # with 0^0 = 1, as pow and powers read it; the interpolation matrix
    # L[e, c] = delta_{e,0} - C(q-1, e) (-c)^{q-1-e}, the binomial taken
    # from math.comb
    x = 1
    for i in range(q):
        assert field.exp[i] == x and (i == q - 1 or field.log[x] == i), i
        x = ref.mul(x, field.generator)
    E, L = _dense_matrix(field, False), _dense_matrix(field, True)
    for a in range(q):
        x = 1
        pw = []
        for e in range(q):
            assert E[a, e] == field.pow(a, e) == x, (a, e)
            pw.append(x)
            x = ref.mul(x, a)
        assert field.powers(np.arange(q), a).tolist() == E[:, a].tolist()
        c = ref.neg(a)           # pw lists the powers of -c
        for e in range(q):
            term = ref.mul(comb(q - 1, e) % p, pw[q - 1 - e])
            assert L[e, c] == ref.sub(int(e == 0), term), (e, c)


@pytest.mark.parametrize("p,r", sorted(PINNED))
def test_tables_are_pinned(p, r):
    field = make_field(p, r)
    want = PINNED[(p, r)]
    assert field.generator == want["generator"]
    assert (None if field.modulus is None else list(field.modulus)) \
        == want["modulus"]
    arrays = {name: getattr(field, name) for name in SQUARE_TABLES}
    arrays["neg_t"] = field.neg_t
    arrays["inv_t"] = [0] + [field.inv(a) for a in range(1, field.q)]
    arrays["pow_t"] = _dense_matrix(field, False)
    arrays["lagr_t"] = _dense_matrix(field, True)
    assert set(arrays) == set(want) - {"generator", "modulus"}
    for name, table in arrays.items():
        table = np.ascontiguousarray(table, dtype=np.int64)
        assert hashlib.sha256(table.tobytes()).hexdigest() == want[name], name


def test_field_holds_only_its_gather_tables():
    # add_t and mul_t are the only q x q arrays; neg_t, exp and log are
    # read-only length-q arrays, and the rest is O(r)
    field = make_field(2, 10)
    q = field.q
    assert Field.__slots__[-3:] == ("neg_t", "exp", "log")
    arrays = {name: getattr(field, name) for name in Field.__slots__
              if isinstance(getattr(field, name), np.ndarray)}
    assert {name for name, a in arrays.items()
            if a.shape == (q, q)} == set(SQUARE_TABLES)
    for name in ("neg_t", "exp", "log"):
        assert arrays[name].shape == (q,) and not arrays[name].flags.writeable
    total = sum(a.nbytes for a in arrays.values())
    assert 2 * 8 * q * q <= total <= 2 * 8 * q * q + 32 * q


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 3)])
def test_transform_matrices_are_made_per_call(p, r):
    # each call makes a fresh matrix, never a view of a field table, and
    # the interpolation matrix inverts the evaluation matrix
    field = make_field(p, r)
    q = field.q
    for inverse in (False, True):
        M = _dense_matrix(field, inverse)
        assert M.shape == (q, q) and M.flags.writeable
        held = [_dense_matrix(field, inverse)] + [
            getattr(field, name) for name in
            SQUARE_TABLES + ("neg_t", "exp", "log")]
        assert not any(np.shares_memory(M, a) for a in held)
    E, L = _dense_matrix(field, False), _dense_matrix(field, True)
    add_f, mul_f = field.add_t, field.mul_t
    prod = np.zeros((q, q), dtype=np.int64)
    for k in range(q):          # prod = L @ E over F_q
        prod = add_f[prod, mul_f[L[:, k, None], E[k]]]
    assert np.array_equal(prod, np.eye(q, dtype=np.int64))


def test_field_build_temporaries_are_bounded():
    # add is built one digit at a time and mul gathered in place, so the
    # build allocates little beyond the tables it returns: (31, 2) takes
    # a large-p digit step, and (1021, 1) builds add as F_p's table alone
    for p, r in [(2, 10), (3, 6), (31, 2), (1021, 1)]:
        tracemalloc.start()
        try:
            field = gf._make_field.__wrapped__(p, r)    # past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(getattr(field, name).nbytes for name in SQUARE_TABLES)
        assert peak <= tables + 4 * 2**20, (p, r, peak - tables)


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])
def test_pow_folds_high_exponents(p, r):
    field = make_field(p, r)
    ref = naive_of(field)
    q = field.q
    for a in range(q):
        for k in range(0, 3 * q):
            assert field.pow(a, k) == ref.pow(a, k), (a, k)
        assert field.pow(a, q) == a                      # Frobenius fixed point
        if a:
            assert field.pow(a, q - 1) == 1


def test_division_by_zero():
    field = make_field(5)
    from ffperm import DivisionByZero
    with pytest.raises(DivisionByZero):
        field.inv(0)


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(CapExceeded):
        make_field(2, 21)           # 2^21 elements exceed the field cap
    with pytest.raises(CapExceeded):
        make_field(2, 10**12)       # refused before 2^r is built
    with pytest.raises(CapExceeded):
        make_field(10**30 + 1)      # refused before trial division
    with pytest.raises(ValueError):
        make_field(3, 0)


@pytest.mark.parametrize("args,message", [
    ((5.5,), "characteristic must be an integer, not 5.5"),
    (("5",), "characteristic must be an integer, not '5'"),
    ((None,), "characteristic must be an integer, not None"),
    ((float("inf"),), "characteristic must be an integer, not inf"),
    ((2, 2.9), "extension degree must be an integer, not 2.9"),
    ((3, "2"), "extension degree must be an integer, not '2'"),
])
def test_make_field_refuses_what_int_would_change(args, message):
    # int() would read 5.5 and '5' as 5 and 2.9 as 2; nothing is built
    with pytest.raises(ValueError) as err:
        make_field(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [2.7, 0.5, "3", None])
def test_ranks_are_read_exactly(bad):
    # int() would read 2.7 as 2, 0.5 as 0 and '3' as 3
    F5 = make_field(5)
    f = poly_build(F5, 2, [((1, 2), 1), ((3, 0), 2)])
    g = poly_build(F5, 1, [((1,), 1)])
    for call in (lambda: F5.add(bad, 1), lambda: f.evaluate([bad, 1]),
                 lambda: f.substitute(0, bad), lambda: f.scale(bad),
                 lambda: transposition(F5, bad, 1)):
        with pytest.raises(ValueError, match="rank must be an integer"):
            call()
    # integral floats and numpy integers are the ranks they equal
    assert F5.add(2.0, np.int64(1)) == 3
    assert f.evaluate([np.int64(2), 1.0]) == f.evaluate([2, 1])
    assert f.substitute(0, np.int32(4)) == f.substitute(0, 4)
    assert f.scale(np.uint8(3)) == f.scale(3)
    assert transposition(F5, 0.0, np.int64(1)) == transposition(F5, 0, 1)
    assert g.substitute(0, 3.0).evaluate([]) == 3


def test_indices_and_counts_are_read_exactly():
    # substitute's variable index and extend's count and offset are read
    # like ranks: 1.5 and '1' are refused, 1.0 and numpy integers pass
    F5 = make_field(5)
    f = poly_build(F5, 2, [((1, 2), 1), ((3, 0), 2)])
    g = poly_build(F5, 1, [((1,), 1)])
    for call, what in [(lambda: f.substitute(1.5, 1), "variable index"),
                       (lambda: f.substitute("1", 1), "variable index"),
                       (lambda: extend(g, 3.5, 0), "variable count"),
                       (lambda: extend(g, 3, 0.5), "offset")]:
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            call()
    assert f.substitute(1.0, 1) == f.substitute(1, 1)
    assert f.substitute(np.int64(0), 2) == f.substitute(0, 2)
    for n, offset in [(3.0, 0), (np.int64(3), np.uint8(2))]:
        h = extend(g, n, offset)
        assert h == extend(g, 3, int(offset)) and type(h.n) is int


def test_large_field_exceeds_table_cap(monkeypatch):
    # fields stop at the dense-table cap, whatever the point cap says
    assert make_field(2, 10).q == 1024
    with pytest.raises(CapExceeded):
        make_field(2, 11)
    monkeypatch.setenv("FFPERM_POINT_CAP", str(1 << 30))
    make_field.cache_clear()
    try:
        with pytest.raises(CapExceeded):
            make_field(2, 11)
    finally:
        make_field.cache_clear()


def test_point_cap_is_checked_by_poly_build_not_make_field(monkeypatch):
    # make_field's cache cannot hold a stale point-cap decision: the point
    # cap is enforced where points are, in poly_build
    from ffperm import poly_build
    monkeypatch.setenv("FFPERM_POINT_CAP", "10")
    make_field.cache_clear()
    try:
        field = make_field(5, 2)
        assert field.q == 25
        with pytest.raises(CapExceeded):
            poly_build(field, 1, [((1,), 1)])
    finally:
        make_field.cache_clear()


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(3, 2) != make_field(3, 1)


def test_make_field_caches_one_field_however_it_is_spelled():
    f5 = make_field(5)
    for same in (make_field(5, 1), make_field(5, r=1), make_field(p=5),
                 make_field(5.0), make_field(np.int64(5), np.int64(1))):
        assert same is f5
    assert make_field(3, 2) is make_field(3.0, r=2)
    info = make_field.cache_info()
    make_field(5, 1)
    assert make_field.cache_info().hits == info.hits + 1


def test_rank_coeff_roundtrip():
    field = make_field(3, 2)
    for a in field.elements():
        assert field.rank_of(field.coeffs_of(a)) == a
    assert field.from_int(-1) == field.neg(1)
    assert field.from_int(3) == 0            # integers map into the prime subfield
    assert field.from_int(-4) == field.neg(1)
    # integral floats and numpy integers are read exactly
    assert field.rank_of([2.0, np.int64(1)]) == 5
    assert field.from_int(np.int64(-4)) == field.from_int(-4.0) == 2
    f5 = make_field(5)
    for fld, coeffs, message in (
            (field, [1], "coefficient vector must have length 2"),
            (field, [1, 0, 0], "coefficient vector must have length 2"),
            (field, [3, 0], "coefficient 3 outside [0, 3)"),
            (field, [0, -1], "coefficient -1 outside [0, 3)"),
            (f5, [2.7], "coefficient must be an integer, not 2.7"),
            (f5, ["3"], "coefficient must be an integer, not '3'"),
            (field, [1, 2.9], "coefficient must be an integer, not 2.9")):
        with pytest.raises(ValueError) as err:
            fld.rank_of(coeffs)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        f5.from_int(2.5)
    assert str(err.value) == "constant must be an integer, not 2.5"


def test_element_str():
    f4 = make_field(2, 2)
    assert [f4.element_str(a) for a in f4.elements()] == ["0", "1", "z", "z+1"]
    f9 = make_field(3, 2)
    assert f9.element_str(5) == "2z+1" or "z" in f9.element_str(5)
    f5 = make_field(5)
    assert [f5.element_str(a) for a in f5.elements()] == list("01234")


def test_field_json_roundtrip():
    for (p, r) in [(5, 1), (3, 2), (2, 4)]:
        field = make_field(p, r)
        assert field_from_json(field.to_json()) is field
    # integral floats and numpy integers read as the ints they equal
    doc = {"p": 3.0, "r": np.int64(2), "modulus": [1.0, 0, np.int8(1)]}
    assert field_from_json(doc) is make_field(3, 2)
    with pytest.raises(FieldMismatch):
        field_from_json({"p": 2, "r": 2, "modulus": [1, 0, 1]})  # reducible
    # a prime field accepts the modulus x ([0, 1]) or none ([]) only
    f5 = make_field(5)
    for modulus in ([0, 1], [], None):
        assert field_from_json({"p": 5, "modulus": modulus}) == f5
    for modulus in ([1, 1], [0, 0, 1], [1]):
        with pytest.raises(FieldMismatch) as err:
            field_from_json({"p": 5, "modulus": modulus})
        assert str(err.value) == "prime fields carry no modulus"


@pytest.mark.parametrize("doc,message", [
    ({"p": 5.5}, "characteristic must be an integer, not 5.5"),
    ({"p": "5", "r": 2}, "characteristic must be an integer, not '5'"),
    ({"p": 5, "r": 2.9}, "extension degree must be an integer, not 2.9"),
    ({"p": 3, "r": 2, "modulus": [1.5, 0, 1]},
     "modulus entry must be an integer, not 1.5"),
    ({"p": 3, "r": 2, "modulus": ["1", 0, "1"]},
     "modulus entry must be an integer, not '1'"),
])
def test_field_from_json_refuses_what_int_would_change(doc, message):
    # int() would read 5.5 as 5, 2.9 as 2 and the moduli as F_9's [1, 0, 1]
    with pytest.raises(ValueError) as err:
        field_from_json(doc)
    assert str(err.value) == message


def test_field_json_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError, NotPrime)):
        field_from_json({"p": 6, "r": 1})
