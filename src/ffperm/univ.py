"""Distinguished univariate polynomials used by the multivariate builders."""

from math import comb

import numpy as np

from .errors import EqualPoints, VariableCountMismatch
from .gf import Field
from .mvpoly import FuncTable, MultiPoly, interpolate, poly_build, to_table


def t_poly(field: Field) -> MultiPoly:
    """The bijection swapping 0 and 1 and fixing everything else,
    x + sum_{k=0}^{q-2} x^k, reduced."""
    q = field.q
    terms = [((k,), 1) for k in range(q - 1)]
    terms.append(((1,), 1))
    return poly_build(field, 1, terms)


def h_polys(field: Field) -> tuple[MultiPoly, MultiPoly]:
    """(h, hbar): h = sum_{k=0}^{q-3} (k+1) x^k and its twist
    hbar = 1 + x + sum_{k=0}^{q-2} (-k) x^k, with integer weights mod p."""
    q = field.q
    h = poly_build(field, 1,
                   [((k,), field.from_int(k + 1)) for k in range(q - 2)])
    terms = [((0,), 1), ((1,), 1)]
    terms += [((k,), field.from_int(-k)) for k in range(q - 1)]
    hbar = poly_build(field, 1, terms)
    return h, hbar


def transposition(field: Field, a: int, b: int) -> MultiPoly:
    """The reduced polynomial swapping the elements of ranks a and b."""
    a, b = field._check(a), field._check(b)
    if a == b:
        raise EqualPoints("transposition needs two distinct elements")
    vals = np.arange(field.q, dtype=np.int64)
    vals[a], vals[b] = b, a
    return interpolate(FuncTable(field, 1, vals))


def dickson(field: Field, k: int, a: int) -> MultiPoly:
    """Degree-k Dickson polynomial g_k(x, a) with parameter a, satisfying
    g_k(y + a/y) = y^k + (a/y)^k; g_0 = 2."""
    if k < 0:
        raise ValueError("Dickson degree must be nonnegative")
    a = field._check(a)
    if k == 0:
        return poly_build(field, 1, [((0,), field.from_int(2))])
    terms = []
    for j in range(k // 2 + 1):
        # integer weight k/(k-j) * C(k-j, j), always integral
        w = k * comb(k - j, j) // (k - j)
        c = field.mul(field.from_int(w), field.pow(field.neg(a), j))
        terms.append(((k - 2 * j,), c))
    return poly_build(field, 1, terms)


def is_univariate_pp(f: MultiPoly) -> bool:
    """True when the univariate f permutes F_q."""
    if f.n != 1:
        raise VariableCountMismatch("expected a univariate polynomial")
    vals = to_table(f).values
    return bool(np.all(np.bincount(vals, minlength=f.field.q) == 1))
