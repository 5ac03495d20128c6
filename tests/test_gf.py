"""Field construction, canonical moduli, generators, and arithmetic tables,
cross-checked against an independent pure-Python oracle."""

import pytest

from ffperm import (CapExceeded, Field, FieldMismatch, NotPrime,
                    field_from_json, make_field)
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
}

ALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
              (11, 1), (2, 4), (5, 2), (3, 3)]


def naive_of(field: Field) -> NaiveField:
    mod = None if field.modulus is None else tuple(field.modulus)
    return NaiveField(field.p, mod)


@pytest.mark.parametrize("p,r", sorted(EXPECTED_MODULI))
def test_canonical_modulus(p, r):
    assert list(make_field(p, r).modulus) == EXPECTED_MODULI[(p, r)]


@pytest.mark.parametrize("p,r", sorted(EXPECTED_GENERATORS))
def test_generator_rank(p, r):
    field = make_field(p, r)
    g = field.generator
    assert g == EXPECTED_GENERATORS[(p, r)]
    seen = set()
    x = 1
    for _ in range(field.q - 1):
        seen.add(x)
        x = field.mul(x, g)
    assert seen == set(range(1, field.q))


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


def test_rank_coeff_roundtrip():
    field = make_field(3, 2)
    for a in field.elements():
        assert field.rank_of(field.coeffs_of(a)) == a
    assert field.from_int(-1) == field.neg(1)
    assert field.from_int(3) == 0            # integers map into the prime subfield
    assert field.from_int(-4) == field.neg(1)


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
    with pytest.raises(FieldMismatch):
        field_from_json({"p": 2, "r": 2, "modulus": [1, 0, 1]})  # reducible


def test_field_json_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError, NotPrime)):
        field_from_json({"p": 6, "r": 1})
