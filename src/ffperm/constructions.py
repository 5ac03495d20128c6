"""Builders for the permutation and local-permutation families, and the
univariate gadgets (t, h and hbar, transpositions, Dickson polynomials)
they are made from.

Every builder is deterministic: free choices (a non-residue, the element
beta outside the prime subfield, restriction constants) are always resolved
to the smallest rank that works, so a given (q, n) yields one fixed
polynomial.  Applicability predicates raise UnsupportedField (or the more
specific error named in the docstring) instead of returning wrong output.
Each family reads n with mvpoly._check_points after its field checks,
refusing n < 1 and an n over the point cap before anything of size q^n is
built; pp_product also checks its n + 1 variables, lpp_power the b
variables of its seed and the variables of each level, and lpp_three its
three variables.

A family table that gains variables (the chain, the block powers, Theorem
5.4's compositions, prod a(x_i) + sum b(x_i) and the product PPs) gains
each one through a q x q table, in one routine, _grow.
"""

from math import gcd

import numpy as np

from . import _kernels
from .errors import (BadDegree, EqualPoints, FieldMismatch, NotMaxLpp,
                     NoValidB, UnsupportedField, VariableCountMismatch)
from .gf import Field, exact_int
from .mvpoly import MultiPoly, _check_points, compose_univariate, poly_build


def _univariate(field: Field, exps, c: int = 1) -> MultiPoly:
    """c * sum of x^e over the distinct exponents e < q in exps, written
    straight into the coefficient vector."""
    vec = np.zeros(field.q, dtype=np.int64)
    vec[list(exps)] = c
    return MultiPoly(field, 1, vec)


def _head_tail(field: Field, n: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1} a(x_n) + b(x_n) for univariate a and b: a's
    coefficients fill the x_n row at x_1 = .. = x_{n-1} = q-1, and b's are
    added to the x_n row at the origin (the same row when n = 1).  Only
    the coefficients are built: a table made here as well gained no
    benchmark workload time and raised construct's peak RSS."""
    q = field.q
    out = np.zeros((q,) * n, dtype=np.int64)
    out[(q - 1,) * (n - 1)] = a.coeffs
    tail = (0,) * (n - 1)
    out[tail] = field.add_t[out[tail], b.coeffs]
    return MultiPoly(field, n, out)


def _grow(start: np.ndarray, steps) -> np.ndarray:
    """The table start with one variable appended per q x q table rows in
    steps, as a new flat array in point-rank order.  Each new variable is
    the last (least significant) coordinate, and the entry at (u, v), for
    u an entry of the table so far, is rows[u, v]: each step is one row
    gather, copying the one contiguous row of rows that every entry so far
    selects.  Every family table that gains variables is grown here."""
    out = np.array(start).reshape(-1)
    for rows in steps:
        out = rows.take(out, axis=0).reshape(-1)
    return out


def _prod_sum(field: Field, n: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """prod_i a(x_i) + sum_i b(x_i) for univariate a and b, born in both
    domains, each outer product grown one variable at a time (_grow).

    Coefficients: the outer product of a's through mul_t, with b's added
    along each axis at the origin.  Values: P + S, where P is the outer
    product of a's values through mul_t and S the Kronecker sum of b's
    values through add_t.  S splits as S'(x_1..x_(n-1)) + b(x_n), and each
    part is added to P in place through add_t, so no q^n array beyond the
    coefficients and the table is made."""
    q, add_t, mul_t = field.q, field.add_t, field.mul_t
    out = _grow(a.coeffs, [mul_t[:, a.coeffs]] * (n - 1)).reshape((q,) * n)
    for i in range(n):
        axis = (0,) * i + (slice(None),) + (0,) * (n - 1 - i)
        out[axis] = add_t[out[axis], b.coeffs]
    av, bv = a._values(), b._values()
    P = _grow(av, [mul_t[:, av]] * (n - 1)).reshape(-1, q)
    head = _grow(bv, [add_t[:, bv]] * (n - 2))[:, None] if n > 1 else 0
    for part in (head, bv):
        P *= q
        P += part
        add_t.ravel().take(P, out=P, mode="clip")
    return MultiPoly(field, n, out, values=P)


# ---------------------------------------------------------------------------
# univariate gadgets

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
    return MultiPoly(field, 1, values=vals)


def dickson(field: Field, k: int, a: int) -> MultiPoly:
    """Degree-k Dickson polynomial g_k(x, a) with parameter a, satisfying
    g_k(y + a/y) = y^k + (a/y)^k; g_0 = 2.  Its table is read pointwise
    from g_0 = 2, g_1 = x and g_j = x g_{j-1} - a g_{j-2}: (g_(k+1), g_k)
    is M^k (x, 2) for the 2 x 2 matrix M = ((x, -a), (1, 0)) of q-entry
    tables, raised by squaring, so any k costs O(q log k)."""
    k = exact_int(k, "k")
    if k < 0:
        raise ValueError("Dickson degree must be nonnegative")
    a = field._check(a)
    q, add_t, mul_t = field.q, field.add_t, field.mul_t

    def times(A, B):    # [i, l, j, point] products, summed over l
        prods = mul_t[A[:, :, None], B[None]]
        return add_t[prods[:, 0], prods[:, 1]]

    x = np.arange(q)
    one, zero = np.ones_like(x), np.zeros_like(x)
    M = np.array([[x, one * field.neg(a)], [one, zero]])
    R = np.array([[one, zero], [zero, one]])
    while k:
        if k & 1:
            R = times(R, M)
        M, k = times(M, M), k >> 1
    two = mul_t[R[1, 1], field.from_int(2)]
    return MultiPoly(field, 1, values=add_t[mul_t[R[1, 0], x], two])


def is_univariate_pp(f: MultiPoly) -> bool:
    """True when the univariate f permutes F_q: its table, one line, passes
    _kernels.lpp_scan, the test is_lpp applies to every line."""
    if f.n != 1:
        raise VariableCountMismatch("expected a univariate polynomial")
    _check_points(f.field, f.n)
    return _kernels.lpp_scan(f._values(), 1, f.field.q)[0] < 0


# ---------------------------------------------------------------------------
# permutation families

def pp_hn(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}(t(x_n) - x_n) + x_n: a PP for every q whose
    degree is n(q-1)-1 whenever q > 2."""
    n = _check_points(field, n, 1, "n")
    # t(x) - x = 1 + x + .. + x^{q-2}
    below_top = _univariate(field, range(field.q - 1))
    return _head_tail(field, n, below_top, _univariate(field, [1]))


def pp_monomial(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}x_n^{q-2} + x_n^{q-2}, a PP for odd p."""
    if field.p == 2:
        raise UnsupportedField("this family needs odd characteristic")
    n = _check_points(field, n, 1, "n")
    inv_mono = _univariate(field, [field.q - 2])
    return _head_tail(field, n, inv_mono, inv_mono)


def pp_dickson(field: Field, n: int) -> MultiPoly:
    """x_1^{q-1}..x_{n-1}^{q-1}(x_n^{q-2} + m(x_n)) + x_n^2 over q = 4^s > 4,
    where m collects the middle terms of the Dickson polynomial g_{q-2}(x, 1)
    = x^{q-2} + m(x) + x^2."""
    q = field.q
    if field.p != 2 or field.r % 2 or q <= 4:
        raise UnsupportedField("this family needs q = 4^s > 4")
    n = _check_points(field, n, 1, "n")
    square = _univariate(field, [2])
    return _head_tail(field, n, dickson(field, q - 2, 1) - square, square)


def pp_alpha4(field: Field, n: int) -> MultiPoly:
    """Over F_4: the sum of all monomials with per-variable exponent <= 3 and
    total degree <= 3n-1, plus x_1.  A PP of degree 3n-1."""
    if field.q != 4:
        raise UnsupportedField("this family lives over F_4")
    n = _check_points(field, n, 1, "n")
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
        power = "a square" if d == 2 else "a cube"
        raise ValueError(f"{a} is {power}, not usable here")
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
    is x_1^{q-1}..x_n^{q-1} + c with c = alpha or -a: its coefficients are
    written head and tail (_head_tail), and its values are c plus the
    n-fold outer product of the indicator of F_q^* through mul_t, so no
    transform evaluates it.  The factor and f(y) share no variable, so the
    product is an outer product of their coefficients and of their values,
    and holds both domains.  Every outer product is grown by _grow: y is
    appended to the factor through the q x q table u * f(y) of mul_t, so
    each entry u copies one contiguous run of q products.
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
        if (fy.n != 1 or fy.total_degree != q - 2
                or not is_univariate_pp(fy)):
            raise BadDegree("f(y) must be a univariate PP of degree q-2")
    n = _check_points(field, n, 1, "n")
    _check_points(field, n + 1)
    if g is not None:
        if g.n != n:
            raise BadDegree(f"g must have {n} variables")
        want = n * (q - 1) // d
        if g.total_degree != want:
            raise BadDegree(f"g must have total degree {want}")
    c = a if d is None else field.neg(a)
    mul_t = field.mul_t
    if g is None:
        # x^{q-1} is the indicator of F_q^*, so the factor's values are
        # the outer product of that indicator through mul_t, plus c
        ind = np.minimum(np.arange(q), 1)
        head = _head_tail(field, n, _univariate(field, [q - 1]),
                          _univariate(field, [0], c))
        factor = MultiPoly(field, n, head.coeffs, values=field.add_t[c].take(
            _grow(ind, [mul_t[:, ind]] * (n - 1))))
    else:
        # g^d - a, the univariate x^d - a applied to g's values
        shift = _univariate(field, [d]) + _univariate(field, [0], c)
        factor = compose_univariate(shift, g)
    coeffs = _grow(factor.coeffs, [mul_t[:, fy.coeffs]])
    values = _grow(factor._values(), [mul_t[:, fy._values()]])
    return MultiPoly(field, n + 1, coeffs, values=values)


# ---------------------------------------------------------------------------
# local permutation families

def lpp_beta(field: Field, n: int) -> MultiPoly:
    """Sum of all monomials with every exponent in [1, q-2], plus
    x_1 + .. + x_n; an LPP of degree n(q-2) for q = 2^r > 2."""
    q = field.q
    if field.p != 2 or q <= 2:
        raise UnsupportedField("this family needs q = 2^r > 2")
    n = _check_points(field, n, 1, "n")
    return _prod_sum(field, n, _univariate(field, range(1, q - 1)),
                     _univariate(field, [1]))


def block_sizes(field: Field) -> list[int]:
    """The block sizes lpp_power takes on field, smallest first: every b
    with 1 < b < p-1 and gcd(b, q-1) = 1."""
    return [b for b in range(2, field.p - 1) if gcd(b, field.q - 1) == 1]


def lpp_power(field: Field, b: int, k: int = 1) -> MultiPoly:
    """Block-power construction in b^k variables, degree b^k(q-2).

    Seed (y_1+..+y_b)^b with y_i = x_i^{q-2}; at each level sum b shifted
    copies and raise to the b-th power.  Needs 1 < b < p-1 and
    gcd(b, q-1) = 1.  x^{q-2} is the inverse map on F_q (0 to 0), and ring
    operations act pointwise on value tables, so inverting the coordinates
    gives the function that substituting y_i := x_i^{q-2} into the finished
    polynomial would.  The seed is level 0 of the loop, on the values v of
    x^{q-2}: a level's sum of b copies of v, each on its own block of
    variables, is v grown through the q x q table add_t[:, v] b-1 times
    (_grow), so each level writes only its new table, and no matrix is
    applied; the result holds its table only.
    """
    p, q = field.p, field.q
    b, k = exact_int(b, "b"), exact_int(k, "k")
    if not 1 < b < p - 1:
        raise NoValidB(f"b={b} violates 1 < b < p-1 (p={p})")
    if gcd(b, q - 1) != 1:
        raise NoValidB(f"gcd({b}, {q - 1}) != 1")
    if k < 1:
        raise ValueError("k must be a positive integer")
    n, v = 1, field.powers(np.arange(q), q - 2)
    for _ in range(k):
        n = _check_points(field, b * n)
        v = field.powers(_grow(v, [field.add_t[:, v]] * (b - 1)), b)
    return MultiPoly(field, n, values=v)


def lpp_restrict(f: MultiPoly) -> MultiPoly:
    """Drop the first variable of a maximum-degree LPP by substituting the
    smallest constant that keeps the degree at (n-1)(q-2)."""
    field, n, q = f.field, f.n, f.field.q
    if n < 2:
        raise NotMaxLpp("need at least two variables to restrict")
    degree = f.total_degree
    if degree != n * (q - 2):
        raise NotMaxLpp(f"degree {degree} is not the maximum {n * (q - 2)}")
    # the line scan is_lpp runs: a nonnegative axis holds a failing line
    _check_points(field, n)
    if _kernels.lpp_scan(f._values(), n, q)[0] >= 0:
        raise NotMaxLpp("input is not a local permutation polynomial")
    target = (n - 1) * (q - 2)
    for alpha in field.elements():
        g = f.substitute(0, alpha)
        if g.total_degree == target:
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
    return MultiPoly(field, 1, values=vals)


def lpp_indicator(field: Field, n: int) -> MultiPoly:
    """prod_i p(x_i) + sum_i t_beta(x_i) for odd p, q = p^r > 3: an LPP of
    degree n(q-2).  For prime q the same degree is reached through the
    block-power construction with the smallest block size b (see
    block_sizes; p-2 always qualifies), restricted down to n variables.

    That route needs q^b points, and q^(b^k) >= q^9 once n > b, which no
    q >= 5 fits under the default point cap.  So a prime q builds n <= b
    when q^b fits and raises CapExceeded for every n otherwise: n <= 3 at
    q = 5, 11 and 17, n <= 5 at q = 7 and 13, nothing at q = 19 (19^5
    points) or q = 31 (31^7)."""
    p, q = field.p, field.q
    if p == 2 or q <= 3:
        raise UnsupportedField("needs odd p and q > 3")
    n = _check_points(field, n, 1, "n")
    if field.r == 1:
        b = block_sizes(field)[0]
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
    for every q > 3; maximum degree n(q-2) proven only for small n, odd p.

    The chain is x_1 grown n-1 times through the q x q table step[u, v] =
    t(u^{q-2} + v^{q-2}) (_grow): every entry of f_{i-1} selects one row of
    it, so step i writes q^i entries and nothing of size q^n is made but the
    result, which holds its table only."""
    q = field.q
    if q <= 3:
        raise UnsupportedField("the recurrence needs q > 3")
    n = _check_points(field, n, 1, "n")
    inv = field.powers(np.arange(q), q - 2)
    step = t_poly(field)._values()[field.add_t[np.ix_(inv, inv)]]
    return MultiPoly(field, n, values=_grow(np.arange(q), [step] * (n - 1)))


# Theorem 5.4's variants, each sigma(t(x1^a + x2^b) + x3^c): the field test
# on (p, q), its refusal, (a, b, c) from q, and sigma from the field
_THREE = {
    "A": (lambda p, q: p >= 5, "variant A needs p >= 5",
          lambda q: (q - 2, q - 2, q - 2), t_poly),
    "B": (lambda p, q: p == 3 and q > 3, "variant B needs q = 3^r > 3",
          lambda q: (q - 4, q - 2, q - 2), t_poly),
    "C": (lambda p, q: p == 2 and q > 2, "variant C needs q = 2^r > 2",
          lambda q: (q - 2, q // 2 - 1, q // 2 - 1),
          lambda field: _univariate(field, [field.q - 2])),
}


def lpp_three(field: Field, variant: str) -> MultiPoly:
    """Three-variable LPP families, one per characteristic, all of the shape
    sigma(t(x1^a + x2^b) + x3^c) with t the 0 <-> 1 swap (_THREE holds each
    variant's field test, exponents and sigma): A for p >= 5 and B for
    q = 3^r > 3 reach degree 3(q-2); C accepts q = 2^r > 2 and reaches
    3(q-2) for q >= 8.  At q = 4, C returns the degree-2 LPP
    1 + x1^2 + x2 + x3^2: every permutation of F_4 is F_2-affine, so no
    composition of this shape can exceed degree 2.

    The table is x1^a grown by two q x q tables (_grow): t(u + x2^b) gives
    the q^2 inner values, and sigma(u + x3^c) the q^3 result, which holds
    its table only."""
    variant = variant.upper()
    if variant not in _THREE:
        raise ValueError(f"unknown variant {variant!r}")
    fits, refusal, exps, sigma = _THREE[variant]
    if not fits(field.p, field.q):
        raise UnsupportedField(refusal)
    _check_points(field, 3)
    q, add_t = field.q, field.add_t
    v1, v2, v3 = (field.powers(np.arange(q), e) for e in exps(q))
    return MultiPoly(field, 3, values=_grow(v1, [
        t_poly(field)._values()[add_t[:, v2]],
        sigma(field)._values()[add_t[:, v3]]]))


def lpp_linear(field: Field, n: int) -> MultiPoly:
    """x_1 + .. + x_n: for q in {2, 3} every LPP is linear, so this is the
    canonical maximal one."""
    if field.q not in (2, 3):
        raise UnsupportedField("reserved for q in {2, 3}")
    n = _check_points(field, n, 1, "n")
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
                 alpha_rank: int | None = None) -> tuple[MultiPoly, dict]:
    """Dispatch a family tag to its builder; returns (poly, resolved params).

    Raises ValueError for unusable flag combinations and the family's own
    errors for predicate failures.
    """
    tag = tag.lower()
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
        b = exact_int(b, "b")
        kk = 1 if k is None else exact_int(k, "k")
        if n is not None:
            n = exact_int(n, "n")
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
