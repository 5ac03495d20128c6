"""Finite fields F_q = F_p[z]/(m(z)) with elements encoded as integer ranks.

An element with coefficient vector (c_0, ..., c_{r-1}), constant term first,
has rank sum(c_i * p^i).  Rank 0 is the additive identity, rank 1 the
multiplicative identity, and for prime fields the rank is the residue
itself.  The modulus is the first monic irreducible of degree r when the
coefficient vectors are ordered by that same base-p rank, so a given (p, r)
always yields the same field, the same element order and the same tables.

Fields carry two dense q x q lookup tables, add and mul, that the array
kernels gather from, and three length-q arrays: neg, exp and log.  The
generator is the smallest-rank primitive element, found by walking the
powers of each candidate with its multiply-by-g row, and the walk gives
exp (exp[i] = g^i) and log.  mul is exp[log a + log b], gathered in
place; add is the Kronecker sum of F_p's addition table over the r
digits, built one digit at a time; and powers reads a^k as
exp[(log a * k) mod (q-1)], which also serves pow and inv.  Neither
table build allocates a second q x q array.  No power or interpolation
matrix is stored: mvpoly makes them from exp and log when a transform
needs them.  make_field refuses q > TABLE_CAP.
"""

import operator
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import (CapExceeded, DivisionByZero, FieldMismatch,
                     NoIrreducibleFound, NotPrime)

TABLE_CAP = 1024


def exact_int(x, what: str) -> int:
    """x as an int, when int(x) equals x (so 5.0 and numpy integers pass);
    ValueError naming what x is otherwise, e.g. for 5.5 or '5'."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != x:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return k


def fold_exp(e: int, q: int) -> int:
    """Reduce a single exponent modulo the relation x^q = x."""
    return e if e < q else (e - 1) % (q - 1) + 1


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
                 "mul_t", "neg_t", "exp", "log")

    def __init__(self, p: int, r: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self.p_pows = np.array([p**i for i in range(r)], dtype=np.int64)
        self.p_pows.setflags(write=False)
        self._build_tables()

    # -- table construction ---------------------------------------------

    def _times_row(self, D: np.ndarray, g: int,
                   red: np.ndarray) -> np.ndarray:
        """Ranks of g * a for every rank a (D holds the digit rows of all
        ranks, red those of z^r .. z^{2r-2} mod m): one digit convolution
        reduced modulo the modulus."""
        p, r = self.p, self.r
        conv = np.zeros((self.q, 2 * r - 1), dtype=np.int64)
        for i in range(r):
            if D[g, i]:
                conv[:, i:i + r] += D[g, i] * D
        conv %= p
        return ((conv[:, :r] + conv[:, r:] @ red) % p) @ self.p_pows

    def _exp_log(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Set the smallest-rank primitive element as the generator and
        return exp (exp[i] = g^i, i < q-1) and log (log[exp[i]] = i; log[0]
        is 0 and callers overwrite what it reaches)."""
        r, q = self.r, self.q
        # digit vectors of z^r .. z^{2r-2} reduced mod m, for _times_row
        red = np.array([_poly_rem([0] * (r + k) + [1], self.modulus, self.p)
                        for k in range(r - 1)], dtype=np.int64).reshape(-1, r)
        for g in range(1, q):
            row = self._times_row(D, g, red).tolist()
            exp = [1]
            x = row[1]
            while x != 1 and len(exp) < q:  # bounded if m is reducible
                exp.append(x)
                x = row[x]
            if x == 1 and len(exp) == q - 1:
                self.generator = g
                exp = np.array(exp, dtype=np.int64)
                log = np.zeros(q, dtype=np.int64)
                log[exp] = np.arange(q - 1, dtype=np.int64)
                return exp, log
        raise NoIrreducibleFound("multiplicative group has no generator")

    def _build_tables(self) -> None:
        """Every table from its structure, each q x q table in one pass: add
        is the Kronecker sum of F_p's addition table over the r digits, mul
        one gather of exp through log a + log b."""
        p, q = self.p, self.q
        ar = np.arange(q, dtype=np.int64)
        D = (ar[:, None] // self.p_pows[None, :]) % p
        exp, log = self._exp_log(D)
        digit = np.add.outer(ar[:p], ar[:p])
        digit %= p      # in place: at r = 1 this is the whole table
        add_t = digit
        for m in self.p_pows[1:].tolist():
            # rank a < p*m is (top digit, a mod m), so index as (p, m)
            add_t = (m * digit[:, None, :, None]
                     + add_t[None, :, None, :]).reshape(p * m, p * m)
        mul_t = np.add.outer(log, log)
        # clip mode gathers in place; raise mode would buffer a q x q copy
        np.concatenate([exp, exp]).take(mul_t, out=mul_t, mode="clip")
        # zero has no log: 0 * b = 0
        mul_t[0] = 0
        mul_t[:, 0] = 0
        neg_t = ((p - D) % p) @ self.p_pows
        assert np.array_equal(mul_t[1], ar) and np.array_equal(add_t[0], ar)
        self.add_t = add_t
        self.mul_t = mul_t
        self.neg_t = neg_t
        self.exp = np.append(exp, 1)        # g^(q-1) = 1
        self.log = log
        for name in ("add_t", "mul_t", "neg_t", "exp", "log"):
            getattr(self, name).setflags(write=False)

    # -- scalar arithmetic on ranks ---------------------------------------

    def _check(self, a: int) -> int:
        a = exact_int(a, "rank")
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
        if self._check(a) == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        """a^k for an integer k >= 0, with 0^0 = 1."""
        return int(self.powers(self._check(a), k))

    def powers(self, a, k: int) -> np.ndarray:
        """a^k for the ranks a (an int or an array of them), read off exp and
        log as exp[(log a * k) mod (q-1)], with 0^0 = 1 and 0^k = 0.

        k is read with operator.index, so a bool counts as 0 or 1 as in
        pow(), and folded into [1, q-1] when k >= q; a non-integral or
        negative k raises ValueError."""
        k = operator.index(k) if hasattr(k, "__index__") else -1
        if k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        k = fold_exp(k, self.q)
        return np.where(a == 0, int(k == 0),
                        self.exp[self.log[a] * k % (self.q - 1)])

    def from_int(self, m: int) -> int:
        """Embed an ordinary integer as the constant m mod p."""
        return exact_int(m, "constant") % self.p

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
            c = exact_int(c, "coefficient")
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


def make_field(p: int, r: int = 1) -> Field:
    """Build F_{p^r} with the canonical (smallest) modulus, one Field per
    (int(p), int(r)) however the arguments are spelled.

    Raises NotPrime for composite p, CapExceeded when q exceeds
    TABLE_CAP, and ValueError for r < 1 or a p or r that is not an
    integer (5.0 and numpy integers are).
    """
    return _make_field(exact_int(p, "characteristic"),
                       exact_int(r, "extension degree"))


@lru_cache(maxsize=32)
def _make_field(p: int, r: int) -> Field:
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


# make_field's cache is _make_field's, keyed on the normalised (p, r)
make_field.cache_info = _make_field.cache_info
make_field.cache_clear = _make_field.cache_clear


def field_from_json(data: dict) -> Field:
    """Rebuild a field from its JSON form, insisting on the canonical modulus."""
    if not isinstance(data, dict):
        raise ValueError("field JSON must be an object, not "
                         f"{type(data).__name__}")
    if "p" not in data:
        raise ValueError('field JSON needs a characteristic "p"')
    field = make_field(data["p"], data.get("r", 1))
    if "modulus" in data and data["modulus"] is not None:
        given = tuple(exact_int(c, "modulus entry") for c in data["modulus"])
        if field.r == 1:
            if given != (0, 1) and len(given) != 0:
                raise FieldMismatch("prime fields carry no modulus")
        elif given != field.modulus:
            raise FieldMismatch(
                f"modulus {list(given)} is not the canonical modulus "
                f"{list(field.modulus)} for F_{field.p}^{field.r}")
    return field
