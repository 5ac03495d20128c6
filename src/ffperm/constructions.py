"""Builders for the permutation and local-permutation families.

Every builder is deterministic: free choices (a non-residue, the element
beta outside the prime subfield, restriction constants) are always resolved
to the smallest rank that works, so a given (q, n) yields one fixed
polynomial.  Applicability predicates raise UnsupportedField (or the more
specific error named in the docstring) instead of returning wrong output.
"""

from math import gcd

import numpy as np

from .errors import (BadDegree, FieldMismatch, NotMaxLpp, NoValidB,
                     UnsupportedField)
from .gf import Field
from .mvpoly import (FuncTable, MultiPoly, _check_points, _need_a_variable,
                     compose_univariate, extend, interpolate, lead_degree)
from .univ import dickson, is_univariate_pp, t_poly, transposition
from .verify import is_lpp


def _guard(field: Field, n: int, extra: int = 0) -> None:
    """Refuse n < 1, then q^n and q^(n+extra) points over the point cap,
    before anything of size n is built."""
    _need_a_variable(n)
    _check_points(field, n)
    if extra:
        _check_points(field, n + extra)


def _univariate(field: Field, exps, c: int = 1) -> MultiPoly:
    """c * sum of x^e over the distinct exponents e < q in exps, written
    straight into the coefficient vector."""
    vec = np.zeros(field.q, dtype=np.int64)
    vec[list(exps)] = c
    return MultiPoly(field, 1, vec)


def _head_tail(field: Field, n: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1} a(x_n) + b(x_n) for univariate a and b: a's
    coefficients fill the x_n row at x_1 = .. = x_{n-1} = q-1, and b's are
    added to the x_n row at the origin (the same row when n = 1)."""
    q = field.q
    out = np.zeros((q,) * n, dtype=np.int64)
    out[(q - 1,) * (n - 1)] = a.coeffs
    tail = (0,) * (n - 1)
    out[tail] = field.add_t[out[tail], b.coeffs]
    return MultiPoly(field, n, out)


def _prod_sum(field: Field, n: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """prod_i a(x_i) + sum_i b(x_i) for univariate a and b: the outer
    product of a's coefficients, with b's added along each axis."""
    out = np.array(a.coeffs)
    for _ in range(1, n):
        out = field.mul_t[out[..., None], a.coeffs]
    for i in range(n):
        axis = (0,) * i + (slice(None),) + (0,) * (n - 1 - i)
        out[axis] = field.add_t[out[axis], b.coeffs]
    return MultiPoly(field, n, out)


# ---------------------------------------------------------------------------
# permutation families

def pp_hn(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}(t(x_n) - x_n) + x_n: a PP for every q whose
    degree is n(q-1)-1 whenever q > 2."""
    _guard(field, n)
    # t(x) - x = 1 + x + .. + x^{q-2}
    below_top = _univariate(field, range(field.q - 1))
    return _head_tail(field, n, below_top, _univariate(field, [1]))


def pp_monomial(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}x_n^{q-2} + x_n^{q-2}, a PP for odd p."""
    if field.p == 2:
        raise UnsupportedField("this family needs odd characteristic")
    _guard(field, n)
    inv_mono = _univariate(field, [field.q - 2])
    return _head_tail(field, n, inv_mono, inv_mono)


def pp_dickson(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}(x_n^{q-2} + m(x_n)) + x_n^2 over q = 4^s > 4,
    where m collects the middle terms of the Dickson polynomial g_{q-2}(x, 1)
    = x^{q-2} + m(x) + x^2."""
    q = field.q
    if field.p != 2 or field.r % 2 or q <= 4:
        raise UnsupportedField("this family needs q = 4^s > 4")
    _guard(field, n)
    square = _univariate(field, [2])
    return _head_tail(field, n, dickson(field, q - 2, 1) - square, square)


def pp_alpha4(field: Field, n: int) -> MultiPoly:
    """Over F_4: the sum of all monomials with per-variable exponent <= 3 and
    total degree <= 3n-1, plus x_1.  A PP of degree 3n-1."""
    if field.q != 4:
        raise UnsupportedField("this family lives over F_4")
    _guard(field, n)
    out = np.ones((4,) * n, dtype=np.int64)
    out[(3,) * n] = 0  # the one monomial of degree 3n
    out[(1,) + (0,) * (n - 1)] = 0  # x_1 + x_1 = 0 in characteristic 2
    return MultiPoly(field, n, out)


def _product_constant(field: Field, variant: str,
                      a_or_alpha: int | None) -> tuple[int | None, int]:
    """(d, a) for the QNR and NONCUBE variants of pp_product and
    (None, alpha) for MERSENNE, after checking the variant, the field and
    the constant; a defaults to the smallest element that is not a d-th
    power, alpha to 2."""
    variant = variant.upper()
    if variant == "QNR":
        if field.p == 2:
            raise UnsupportedField("QNR variant needs odd q")
        d = 2
    elif variant == "NONCUBE":
        if field.p != 2 or field.r % 2:
            raise UnsupportedField("NONCUBE variant needs q = 4^s")
        d = 3
    elif variant == "MERSENNE":
        if field.p != 2 or field.r % 2 == 0 or field.r == 1:
            raise UnsupportedField("MERSENNE variant needs q = 2^r, r odd > 1")
        alpha = 2 if a_or_alpha is None else field._check(a_or_alpha)
        if alpha in (0, 1):
            raise ValueError("alpha must avoid 0 and 1")
        return None, alpha
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # d divides q-1 in both variants, so some element is not a d-th power
    powers = set(field.powers(np.arange(field.q), d).tolist())
    if a_or_alpha is None:
        return d, min(set(field.elements()) - powers)
    a = field._check(a_or_alpha)
    if a in powers:
        raise ValueError(f"{a} is a {d}-th power, not usable here")
    return d, a


def pp_product(field: Field, n: int, variant: str,
               g: MultiPoly | None = None, fy: MultiPoly | None = None,
               a_or_alpha: int | None = None) -> MultiPoly:
    """(g(x_1..x_n)^d - a) * f(y) family in n+1 variables, degree (n+1)(q-1)-1.

    QNR: d=2, q odd, a a quadratic non-residue.  NONCUBE: d=3, q=2^r with r
    even, a not a cube.  MERSENNE: the factor is x_1^{q-1}..x_n^{q-1} + alpha
    with alpha outside {0, 1}, for q = 2^r with r odd > 1, and takes no g
    (ValueError).  In every variant f(y) defaults to the 0/1 transposition
    t, a PP of degree q-2.  A g or f(y) over another field raises
    FieldMismatch before any degree is read.

    The default g is x_1^{(q-1)/d}..x_n^{(q-1)/d}, so every default factor
    is x_1^{q-1}..x_n^{q-1} + c with c = alpha or -a.  The factor and f(y)
    share no variable, so the product is an outer product of their
    coefficients and of their values, and holds both domains.
    """
    q = field.q
    d, a = _product_constant(field, variant, a_or_alpha)
    if any(h is not None and h.field != field for h in (g, fy)):
        raise FieldMismatch("g and f(y) must lie over the given field")
    if d is None and g is not None:
        raise ValueError("the MERSENNE variant takes no g")
    if fy is None:
        fy = t_poly(field)
    else:
        if (fy.n != 1 or lead_degree(fy.leading_terms(q - 2)) != q - 2
                or not is_univariate_pp(fy)):
            raise BadDegree("f(y) must be a univariate PP of degree q-2")
    if g is not None:
        if g.n != n:
            raise BadDegree(f"g must have {n} variables")
        want = n * (q - 1) // d
        if lead_degree(g.leading_terms(want)) != want:
            raise BadDegree(f"g must have total degree {want}")
    _guard(field, n, 1)
    c = a if d is None else field.neg(a)
    if g is None:
        factor = _head_tail(field, n, _univariate(field, [q - 1]),
                            _univariate(field, [0], c))
    else:
        # g^d - a, the univariate x^d - a applied to g's values
        shift = _univariate(field, [d]) + _univariate(field, [0], c)
        factor = compose_univariate(shift, g)
    mul_t = field.mul_t
    return MultiPoly(field, n + 1, mul_t[factor.coeffs[..., None], fy.coeffs],
                     FuncTable(field, n + 1,
                               mul_t[factor._values()[:, None], fy._values()]))


# ---------------------------------------------------------------------------
# local permutation families

def lpp_beta(field: Field, n: int) -> MultiPoly:
    """Sum of all monomials with every exponent in [1, q-2], plus
    x_1 + .. + x_n; an LPP of degree n(q-2) for q = 2^r > 2."""
    q = field.q
    if field.p != 2 or q <= 2:
        raise UnsupportedField("this family needs q = 2^r > 2")
    _guard(field, n)
    return _prod_sum(field, n, _univariate(field, range(1, q - 1)),
                     _univariate(field, [1]))


def lpp_power(field: Field, b: int, k: int = 1) -> MultiPoly:
    """Block-power construction in b^k variables, degree b^k(q-2).

    Seed (y_1+..+y_b)^b with y_i = x_i^{q-2}; at each level sum b shifted
    copies and raise to the b-th power.  Needs 1 < b < p-1 and
    gcd(b, q-1) = 1.  x^{q-2} is the inverse map on F_q (0 to 0), and ring
    operations act pointwise on value tables, so inverting the coordinates
    in the seed gives the function that substituting y_i := x_i^{q-2} into
    the finished polynomial would.
    """
    p, q = field.p, field.q
    if not (isinstance(b, int) and 1 < b < p - 1):
        raise NoValidB(f"b={b} violates 1 < b < p-1 (p={p})")
    if gcd(b, q - 1) != 1:
        raise NoValidB(f"gcd({b}, {q - 1}) != 1")
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("k must be a positive integer")
    _guard(field, b)
    f = _prod_sum(field, b, _univariate(field, []),
                  _univariate(field, [q - 2]))**b
    for level in range(1, k):
        m = b**level
        nv = b * m
        s = extend(f, nv, 0)
        for j in range(1, b):
            s = s + extend(f, nv, j * m)
        f = s**b
    return f


def lpp_restrict(f: MultiPoly) -> MultiPoly:
    """Drop the first variable of a maximum-degree LPP by substituting the
    smallest constant that keeps the degree at (n-1)(q-2)."""
    field, n, q = f.field, f.n, f.field.q
    if n < 2:
        raise NotMaxLpp("need at least two variables to restrict")
    degree = lead_degree(f.leading_terms(n * (q - 2)))
    if degree != n * (q - 2):
        raise NotMaxLpp(f"degree {degree} is not the maximum {n * (q - 2)}")
    if not is_lpp(f).ok:
        raise NotMaxLpp("input is not a local permutation polynomial")
    target = (n - 1) * (q - 2)
    for alpha in field.elements():
        g = f.substitute(0, alpha)
        if lead_degree(g.leading_terms(target)) == target:
            return g
    raise NotMaxLpp("no restriction achieves the maximum degree")


def indicator_poly(field: Field) -> MultiPoly:
    """Univariate indicator of Z = {0, 1, .., p-2, z}: value 1 on Z, else 0.
    Z has p elements whose sum of values is 0 mod p while sum(a*1) != 0,
    so the interpolant has degree exactly q-2."""
    p, q = field.p, field.q
    if field.r < 2 or p == 2:
        raise UnsupportedField("needs an odd-characteristic extension field")
    vals = np.zeros(q, dtype=np.int64)
    vals[:p - 1] = 1
    vals[p] = 1
    return interpolate(FuncTable(field, 1, vals))


def lpp_indicator(field: Field, n: int) -> MultiPoly:
    """prod_i p(x_i) + sum_i t_beta(x_i) for odd p, q = p^r > 3: an LPP of
    degree n(q-2).  For prime q the same degree is reached through the
    block-power construction with b = p-2, restricted down to n variables.

    That route needs q^(b^k) >= q^(p-2) points, so under the default point
    cap a prime q builds only q = 5 with n <= 3 and q = 7 with n <= 5; for
    q >= 11 every n raises CapExceeded (11^9 points at q = 11)."""
    p, q = field.p, field.q
    if p == 2 or q <= 3:
        raise UnsupportedField("needs odd p and q > 3")
    _guard(field, n)
    if field.r == 1:
        b = p - 2
        k = 1
        while b**k < n:
            k += 1
        f = lpp_power(field, b, k)
        while f.n > n:
            f = lpp_restrict(f)
        return f
    beta = p  # smallest rank outside the prime subfield
    return _prod_sum(field, n, indicator_poly(field),
                     transposition(field, beta, p - 1))


def lpp_chain(field: Field, n: int) -> MultiPoly:
    """The recurrence f_1 = x_1, f_i = t(f_{i-1}^{q-2} + x_i^{q-2}): an LPP
    for every q > 3; maximum degree n(q-2) proven only for small n, odd p."""
    q = field.q
    if q <= 3:
        raise UnsupportedField("the recurrence needs q > 3")
    _guard(field, n)
    t = t_poly(field)
    inv_mono = _univariate(field, [q - 2])
    f = extend(_univariate(field, [1]), n, 0)
    for i in range(1, n):
        g = compose_univariate(inv_mono, f) + extend(inv_mono, n, i)
        f = compose_univariate(t, g)
    return f


def lpp_three(field: Field, variant: str) -> MultiPoly:
    """Three-variable LPP families, one per characteristic: A for p >= 5 and
    B for q = 3^r > 3 reach degree 3(q-2); C accepts q = 2^r > 2 and reaches
    3(q-2) for q >= 8.  At q = 4, C returns the degree-2 LPP
    1 + x1^2 + x2 + x3^2: every permutation of F_4 is F_2-affine, so no
    composition of the shape C uses can exceed degree 2."""
    q = field.q
    p = field.p
    variant = variant.upper()
    t = t_poly(field)

    def mono3(i: int, e: int) -> MultiPoly:
        return extend(_univariate(field, [e]), 3, i)

    if variant == "A":
        if p in (2, 3):
            raise UnsupportedField("variant A needs p >= 5")
        f2 = compose_univariate(t, mono3(0, q - 2) + mono3(1, q - 2))
        return compose_univariate(t, f2 + mono3(2, q - 2))
    if variant == "B":
        if p != 3 or q <= 3:
            raise UnsupportedField("variant B needs q = 3^r > 3")
        fbar2 = compose_univariate(t, mono3(0, q - 4) + mono3(1, q - 2))
        return compose_univariate(t, fbar2 + mono3(2, q - 2))
    if variant == "C":
        if p != 2 or q <= 2:
            raise UnsupportedField("variant C needs q = 2^r > 2")
        s = (q - 2) // 2
        h2 = compose_univariate(t, mono3(0, q - 2) + mono3(1, s))
        inv_mono = _univariate(field, [q - 2])
        return compose_univariate(inv_mono, h2 + mono3(2, s))
    raise ValueError(f"unknown variant {variant!r}")


def lpp_linear(field: Field, n: int) -> MultiPoly:
    """x_1 + .. + x_n: for q in {2, 3} every LPP is linear, so this is the
    canonical maximal one."""
    if field.q not in (2, 3):
        raise UnsupportedField("reserved for q in {2, 3}")
    _guard(field, n)
    return _prod_sum(field, n, _univariate(field, []),
                     _univariate(field, [1]))


def lpp_max(field: Field, n: int) -> MultiPoly:
    """A maximum-degree LPP for any field: linear for q <= 3, the dense
    char-2 family for q = 2^r > 2, the indicator/power route otherwise."""
    if field.q in (2, 3):
        return lpp_linear(field, n)
    if field.p == 2:
        return lpp_beta(field, n)
    return lpp_indicator(field, n)


# ---------------------------------------------------------------------------
# registry for the CLI and the suite runner

FAMILY_TAGS = ("pp_hn", "pp_monomial", "pp_dickson", "pp_alpha4", "pp_qnr",
               "pp_noncube", "pp_mersenne", "lpp_beta", "lpp_power",
               "lpp_indicator", "lpp_chain", "lpp_3var_a", "lpp_3var_b",
               "lpp_3var_c", "lpp_linear")


def build_family(tag: str, field: Field, n: int | None = None,
                 b: int | None = None, k: int | None = None,
                 variant: str | None = None,
                 alpha_rank: int | None = None) -> tuple[MultiPoly, dict]:
    """Dispatch a family tag to its builder; returns (poly, resolved params).

    Raises ValueError for unusable flag combinations and the family's own
    errors for predicate failures.
    """
    tag = tag.lower()
    if tag == "pp_product":
        if variant is None:
            raise ValueError("pp_product needs variant qnr|noncube|mersenne")
        tag = "pp_" + variant.lower()
    if tag == "lpp_three":
        if variant is None:
            raise ValueError("lpp_three needs variant a|b|c")
        tag = "lpp_3var_" + variant.lower()
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family {tag!r}")

    def need_n() -> int:
        if n is None:
            raise ValueError(f"family {tag} needs --n")
        return n

    if tag in ("pp_hn", "pp_monomial", "pp_dickson", "pp_alpha4", "lpp_beta",
               "lpp_indicator", "lpp_chain", "lpp_linear"):
        builder = globals()[tag]
        return builder(field, need_n()), {}
    if tag in ("pp_qnr", "pp_noncube", "pp_mersenne"):
        var = tag[3:]
        f = pp_product(field, need_n(), var, a_or_alpha=alpha_rank)
        d, a = _product_constant(field, var, alpha_rank)
        return f, {"variant": var, ("alpha" if d is None else "a"): a}
    if tag == "lpp_power":
        if b is None:
            raise ValueError("lpp_power needs --b")
        kk = 1 if k is None else k
        # |b|^k >= 2^(k (bit_length(b) - 1)) > |n| once that exponent
        # reaches bit_length(n), so b^k is built only when it is near n;
        # k < 1 is left to lpp_power to refuse
        if n is not None and kk >= 1 and (
                kk * (abs(b).bit_length() - 1) >= n.bit_length()
                or n != b**kk):
            raise ValueError(f"lpp_power with b={b}, k={kk} has b^k "
                             f"variables, not {n}")
        return lpp_power(field, b, kk), {"b": b, "k": kk}
    # lpp_3var_a / _b / _c
    if n is not None and n != 3:
        raise ValueError(f"family {tag} is fixed at 3 variables")
    return lpp_three(field, tag[-1]), {"variant": tag[-1]}
