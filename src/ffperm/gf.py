"""Finite fields F_q = F_p[z]/(m(z)) with elements encoded as integer ranks.

An element with coefficient vector (c_0, ..., c_{r-1}), constant term first,
has rank sum(c_i * p^i).  Rank 0 is the additive identity, rank 1 the
multiplicative identity, and for prime fields the rank is the residue
itself.  The modulus is the first monic irreducible of degree r when the
coefficient vectors are ordered by that same base-p rank, so a given (p, r)
always yields the same field, the same element order and the same tables.

Fields carry dense q x q lookup tables (add, mul, pow, interpolation) used
by the array kernels, built eagerly; make_field refuses q > TABLE_CAP.
"""

from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .errors import (CapExceeded, DivisionByZero, FieldMismatch,
                     NoIrreducibleFound, NotPrime)

TABLE_CAP = 1024


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# --- F_p[z] helpers on coefficient lists, constant term first ---------------

def _poly_deg(a: list[int]) -> int:
    for i in range(len(a) - 1, -1, -1):
        if a[i]:
            return i
    return -1


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    num = [c % p for c in num]
    dn = _poly_deg(den)
    inv_lead = pow(den[dn], -1, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = c * inv_lead % p
        shift = i - dn
        for j in range(dn + 1):
            num[shift + j] = (num[shift + j] - f * den[j]) % p
    return num[:dn]


def _digits(idx: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        idx, c = divmod(idx, p)
        out.append(c)
    return out


def _is_irreducible(m: list[int], p: int) -> bool:
    r = _poly_deg(m)
    for d in range(1, r // 2 + 1):
        for idx in range(p**d):
            den = _digits(idx, p, d) + [1]
            if _poly_deg(_poly_rem(m, den, p)) < 0:
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    for idx in range(p**r):
        cand = _digits(idx, p, r) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise NoIrreducibleFound(f"no monic irreducible of degree {r} over F_{p}")


class Field:
    """Immutable field F_{p^r}; construct via make_field."""

    __slots__ = ("p", "r", "q", "modulus", "generator", "p_pows", "add_t",
                 "mul_t", "neg_t", "inv_t", "pow_t", "lagr_t", "_red")

    def __init__(self, p: int, r: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self.p_pows = np.array([p**i for i in range(r)], dtype=np.int64)
        # digit vectors of z^r .. z^{2r-2} reduced mod m, used by _build_tables
        if r >= 2:
            red = np.zeros((r - 1, r), dtype=np.int64)
            cur = [(-modulus[i]) % p for i in range(r)]
            for k in range(r - 1):
                red[k] = cur
                top = cur[r - 1]
                cur = [0] + cur[: r - 1]
                cur = [(cur[i] + top * red[0][i]) % p for i in range(r)]
            self._red = red
        else:
            self._red = np.zeros((0, 1), dtype=np.int64)
        self._build_tables()
        self.generator = self._find_generator()
        for name in ("p_pows", "_red"):
            getattr(self, name).setflags(write=False)

    # -- table construction ---------------------------------------------

    def _build_tables(self) -> None:
        p, r, q = self.p, self.r, self.q
        ar = np.arange(q, dtype=np.int64)
        if r == 1:
            add_t = (ar[:, None] + ar[None, :]) % p
            mul_t = (ar[:, None] * ar[None, :]) % p
            neg_t = (p - ar) % p
        else:
            D = (ar[:, None] // self.p_pows[None, :]) % p
            add_t = np.empty((q, q), dtype=np.int64)
            mul_t = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                add_t[a] = ((D[a] + D) % p) @ self.p_pows
            red = self._red
            for a in range(q):
                conv = np.zeros((q, 2 * r - 1), dtype=np.int64)
                for i in range(r):
                    if D[a, i]:
                        conv[:, i:i + r] += D[a, i] * D
                conv %= p
                dig = (conv[:, :r] + conv[:, r:] @ red) % p
                mul_t[a] = dig @ self.p_pows
            neg_t = ((p - D) % p) @ self.p_pows
        pow_t = np.empty((q, q), dtype=np.int64)
        pow_t[:, 0] = 1
        col = np.ones(q, dtype=np.int64)
        for e in range(1, q):
            col = mul_t[col, ar]
            pow_t[:, e] = col
        if q > 2:
            inv_t = pow_t[:, q - 2].copy()
        else:
            inv_t = ar.copy()
        inv_t[0] = 0
        # coefficient e of the basis poly 1 - (x - c)^{q-1} vanishing off c:
        # lagr_t[e, c] = delta_{e,0} - C(q-1, e) * (-c)^{q-1-e}
        binom = np.array([comb(q - 1, e) % p for e in range(q)], dtype=np.int64)
        delta = np.zeros(q, dtype=np.int64)
        delta[0] = 1
        lagr_t = np.empty((q, q), dtype=np.int64)
        for c in range(q):
            w = mul_t[binom, pow_t[neg_t[c]][::-1]]
            lagr_t[:, c] = add_t[delta, neg_t[w]]
        assert np.array_equal(mul_t[1], ar) and np.array_equal(add_t[0], ar)
        assert np.all(mul_t[ar[1:], inv_t[1:]] == 1)
        self.add_t = add_t
        self.mul_t = mul_t
        self.neg_t = neg_t
        self.inv_t = inv_t
        self.pow_t = pow_t
        self.lagr_t = lagr_t
        for name in ("add_t", "mul_t", "neg_t", "inv_t", "pow_t", "lagr_t"):
            getattr(self, name).setflags(write=False)

    def _find_generator(self) -> int:
        cofactors = [(self.q - 1) // f for f in _prime_factors(self.q - 1)]
        for g in range(1, self.q):
            if all(self.pow(g, c) != 1 for c in cofactors):
                return g
        raise NoIrreducibleFound("multiplicative group has no generator")

    # -- scalar arithmetic on ranks ---------------------------------------

    def _check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"rank {a} outside field of order {self.q}")
        return a

    def add(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return int(self.add_t[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_t[self._check(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return int(self.mul_t[a, b])

    def inv(self, a: int) -> int:
        a = self._check(a)
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return int(self.inv_t[a])

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 0, folding the exponent into [1, q-1] when k >= q."""
        a = self._check(a)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if k >= self.q:
            k = (k - 1) % (self.q - 1) + 1
        return int(self.pow_t[a, k])

    def from_int(self, m: int) -> int:
        """Embed an ordinary integer as the constant m mod p."""
        return m % self.p

    # -- encodings ---------------------------------------------------------

    def coeffs_of(self, a: int) -> list[int]:
        a = self._check(a)
        return _digits(a, self.p, self.r)

    def rank_of(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) != self.r:
            raise ValueError(f"coefficient vector must have length {self.r}")
        rank = 0
        for i, c in enumerate(coeffs):
            c = int(c)
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} outside [0, {self.p})")
            rank += c * self.p**i
        return rank

    def elements(self) -> range:
        """All q elements in rank order (0 first, then 1)."""
        return range(self.q)

    def element_str(self, a: int) -> str:
        """Human-readable form: residues for constants, a poly in z otherwise."""
        coeffs = self.coeffs_of(a)
        if not any(coeffs[1:]):
            return str(coeffs[0])
        parts = []
        for i in range(self.r - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                zi = "z" if i == 1 else f"z^{i}"
                parts.append(zi if c == 1 else f"{c}{zi}")
        return "+".join(parts)

    def to_json(self) -> dict:
        out = {"p": self.p, "r": self.r}
        if self.r > 1:
            out["modulus"] = [int(c) for c in self.modulus]
        return out

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.r == other.r and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, r={self.r}, q={self.q})"


@lru_cache(maxsize=32)
def make_field(p: int, r: int = 1) -> Field:
    """Build F_{p^r} with the canonical (smallest) modulus.

    Raises NotPrime for composite p, CapExceeded when q exceeds
    TABLE_CAP, and ValueError for r < 1.
    """
    p, r = int(p), int(r)
    if r < 1:
        raise ValueError("extension degree must be at least 1")
    # trial division of a huge p would not end; such a p is over the cap
    if p <= TABLE_CAP and not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    # p >= 2, so r >= bit_length(TABLE_CAP) alone puts p^r over the cap
    if r >= TABLE_CAP.bit_length() or p**r > TABLE_CAP:
        raise CapExceeded(
            f"field order {p}^{r} exceeds the field cap {TABLE_CAP}")
    modulus = _smallest_irreducible(p, r) if r > 1 else None
    return Field(p, r, modulus)


def field_from_json(data: dict) -> Field:
    """Rebuild a field from its JSON form, insisting on the canonical modulus."""
    field = make_field(int(data["p"]), int(data.get("r", 1)))
    if "modulus" in data and data["modulus"] is not None:
        given = tuple(int(c) for c in data["modulus"])
        if field.r == 1:
            if given != (0, 1) and len(given) != 0:
                raise FieldMismatch("prime fields carry no modulus")
        elif given != field.modulus:
            raise FieldMismatch(
                f"modulus {list(given)} is not the canonical modulus "
                f"{list(field.modulus)} for F_{field.p}^{field.r}")
    return field
