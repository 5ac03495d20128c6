"""Dense polynomials over F_q[x_1..x_n] reduced modulo x_i^q - x_i.

A reduced polynomial and the function F_q^n -> F_q it defines determine
each other, so a MultiPoly lives in two domains and holds either or both:

- the coefficient domain, a (q, ..., q) int64 tensor whose axis i carries
  the exponent of x_{i+1}, so the C-order flat index of a term is its rank
  with the x_1 exponent most significant;
- the value-table domain, a FuncTable listing f at every point of F_q^n in
  the same rank order.

Whichever is missing is computed on first use (one transform per axis: a
DFT over F_q^*, or the dense q x q gather that is its one-stage plan; on a
tensor of at least _SPARSE_MIN entries the axes go densest first and only
the nonzero columns of each are transformed, which spares most of the
work on a sparse polynomial such as pp_hn; see _transform) and cached.
This module alone knows the interpolation formula: _dense_matrix makes
both one-stage matrices, or the columns of them an axis reads, from the
field's exp and log on each call, and _dft runs the same maps stage by
stage.  Ring
operations, substitution, extension and composition act pointwise on value
tables and return table-only polynomials, and evaluate reads the table;
poly_build, terms, degrees and JSON work on coefficients; leading_terms
scans only the top corner of the coefficient tensor that can hold its
answer.  Exponents
e >= q fold to ((e - 1) mod (q - 1)) + 1, which keeps x^0 and x^{q-1}
distinct and makes the correspondence one-to-one.

Raw terms (poly_build, poly_from_json) are read into an exponent array and
a coefficient rank array, with no Python object per term, and one array
routine (_sum_terms) checks, folds and sums them.
"""

import itertools
from operator import itemgetter

import numpy as np

from . import _kernels
from .caps import point_cap
from .errors import (CapExceeded, FieldMismatch, IndexOutOfRange,
                     VariableCountMismatch)
from .gf import Field, field_from_json, fold_exp


def _exponents(nz: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(len(nz), len(shape)) exponent rows of the C-order flat indices nz."""
    if not shape:  # a constant in 0 variables; unravel_index refuses ()
        return np.zeros((nz.size, 0), dtype=np.int64)
    return np.stack(np.unravel_index(nz, shape), axis=1)


def lead_degree(lead: list[tuple[tuple[int, ...], int]]) -> int:
    """Total degree of a leading_terms list; -1 (the zero polynomial) when
    it is empty."""
    return sum(lead[0][0]) if lead else -1


# int64 holds exactly the integers in [-_WIDE, _WIDE)
_WIDE = 1 << 63


def _check_points(field: Field, n: int, cap: int | None = None) -> int:
    """q^n for a variable count n whose q^n points fit under the point cap;
    raises before anything of that size is allocated."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    limit = point_cap(cap)
    # q >= 2, so n >= bit_length(limit) puts q^n over the cap without
    # building a huge q^n first
    if n >= limit.bit_length() or field.q**n > limit:
        raise CapExceeded(f"{field.q}^{n} points exceed the point cap")
    return field.q**n


def _need_a_variable(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one variable")


class MultiPoly:
    """Immutable reduced polynomial holding its coefficient tensor, its value
    table, or both; build via poly_build, interpolate or the helpers.

    ``coeffs`` is interpolated from the table on first access, and the table
    is evaluated from ``coeffs`` on first use; both are then cached.
    """

    __slots__ = ("field", "n", "_coeffs", "_table")

    def __init__(self, field: Field, n: int, coeffs: np.ndarray | None = None,
                 table: "FuncTable | None" = None):
        self.field = field
        self.n = n
        self._coeffs = None
        self._table = table
        if coeffs is not None:
            arr = np.ascontiguousarray(coeffs, dtype=np.int64)
            arr = arr.reshape((field.q,) * n)
            arr.setflags(write=False)
            self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient tensor of shape (q,)*n."""
        if self._coeffs is None:
            field = self.field
            arr = self._table.values.reshape((field.q,) * self.n)
            arr = _transform(field, arr, True, self.n)
            arr.setflags(write=False)
            self._coeffs = arr
        return self._coeffs

    def _values(self) -> np.ndarray:
        """Flat value table in point-rank order, evaluated on first use."""
        if self._table is None:
            field = self.field
            vals = _transform(field, self._coeffs, False, self.n)
            self._table = FuncTable(field, self.n, vals)
        return self._table.values

    # -- metadata ----------------------------------------------------------

    def _nonzero(self, low: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The exponent rows and coefficient ranks of the nonzero terms whose
        every exponent is >= low, in ascending term rank."""
        corner = self.coeffs[(slice(low, None),) * self.n]
        flat = corner.reshape(-1)
        nz = np.flatnonzero(flat)
        return _exponents(nz, corner.shape) + low, flat[nz]

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Nonzero (exponents, coefficient rank) pairs in ascending term rank."""
        exps, ranks = self._nonzero()
        return list(zip(map(tuple, exps.tolist()), ranks.tolist()))

    def degrees(self) -> tuple[int, tuple[int, ...]]:
        """(total degree, per-variable degrees); the zero poly reports -1."""
        exps, ranks = self._nonzero()
        if ranks.size == 0:
            return -1, (-1,) * self.n
        return int(exps.sum(axis=1).max()), tuple(exps.max(axis=0).tolist())

    @property
    def total_degree(self) -> int:
        return self.degrees()[0]

    def leading_terms(self, at_least: int = 0
                      ) -> list[tuple[tuple[int, ...], int]]:
        """Terms attaining the total degree, in ascending term rank.

        ``at_least`` is a guess of the total degree (a claim's expected
        degree); it changes the cost, never the result.  A term of total
        degree >= n(q-1) - k has every exponent >= q-1-k, so with
        k = min(q-1, max(0, n(q-1) - at_least)) those terms all lie in the
        (k+1)^n top corner coeffs[q-1-k:, ..., q-1-k:], and only that corner
        is scanned.  When it holds no term of degree >= n(q-1) - k, the
        leading terms may lie outside it and the whole tensor is scanned.
        A table-only polynomial interpolates (and caches) its full
        coefficient tensor first; use lead_degree for the total degree.
        """
        q, n = self.field.q, self.n
        k = min(q - 1, max(0, n * (q - 1) - at_least))
        lead = self._corner_leads(q - 1 - k)
        if k < q - 1 and lead_degree(lead) < n * (q - 1) - k:
            return self._corner_leads(0)
        return lead

    def _corner_leads(self, low: int) -> list[tuple[tuple[int, ...], int]]:
        """The highest-degree terms among those whose every exponent is
        >= low, in ascending term rank; [] when there are none."""
        exps, ranks = self._nonzero(low)
        if ranks.size == 0:
            return []
        degs = exps.sum(axis=1)
        top = degs == degs.max()
        return list(zip(map(tuple, exps[top].tolist()), ranks[top].tolist()))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- ring operations: pointwise on value tables ---------------------------

    def _compat(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch("operands live in different fields")
        if self.n != other.n:
            raise VariableCountMismatch(
                f"operands have {self.n} and {other.n} variables")

    def _tabled(self, values, n: int | None = None) -> "MultiPoly":
        n = self.n if n is None else n
        return MultiPoly(self.field, n, table=FuncTable(self.field, n, values))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        return self._tabled(self.field.add_t[self._values(), other._values()])

    def __neg__(self) -> "MultiPoly":
        return self._tabled(self.field.neg_t[self._values()])

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        field = self.field
        return self._tabled(
            field.add_t[self._values(), field.neg_t[other._values()]])

    def scale(self, c: int) -> "MultiPoly":
        """Multiply every coefficient by the element of rank c."""
        c = self.field._check(c)
        return self._tabled(self.field.mul_t[c, self._values()])

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        return self._tabled(self.field.mul_t[self._values(), other._values()])

    def __pow__(self, k: int) -> "MultiPoly":
        return self._tabled(self.field.powers(self._values(), k))

    def __eq__(self, other) -> bool:
        # tables and reduced polynomials correspond one to one
        return (isinstance(other, MultiPoly) and self.field == other.field
                and self.n == other.n
                and np.array_equal(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash((self.field, self.n, self._values().tobytes()))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, i: int, value) -> "MultiPoly":
        """Replace x_{i+1} (0-based slot i) by a field element rank or a
        univariate MultiPoly; constants drop the variable, polynomials keep n."""
        field = self.field
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"variable index {i} outside [0, {self.n})")
        tensor = self._values().reshape((field.q,) * self.n)
        if isinstance(value, MultiPoly):
            if value.field != field:
                raise FieldMismatch("substituted polynomial field differs")
            if value.n != 1:
                raise VariableCountMismatch(
                    "substituted polynomial must be univariate")
            return self._tabled(np.take(tensor, value._values(), axis=i))
        s = field._check(value)
        return self._tabled(np.take(tensor, s, axis=i), self.n - 1)

    def evaluate(self, pt) -> int:
        """Value at a point given as a sequence of n element ranks."""
        field = self.field
        pt = [field._check(a) for a in pt]
        if len(pt) != self.n:
            raise VariableCountMismatch(
                f"point has {len(pt)} coordinates, poly has {self.n}")
        return int(self._values().reshape((field.q,) * self.n)[tuple(pt)])

    def __repr__(self) -> str:
        # counts terms only when they are held: repr never interpolates
        held = ("table only" if self._coeffs is None
                else f"terms={np.count_nonzero(self._coeffs)}")
        return f"MultiPoly(q={self.field.q}, n={self.n}, {held})"


# ---------------------------------------------------------------------------
# constructors

def _sum_terms(field: Field, n: int, exps: np.ndarray,
               ranks: np.ndarray) -> MultiPoly:
    """Sum the terms given as an (N, n) int64 exponent array and an (N,)
    coefficient rank array into reduced form; exps is folded in place.
    The caller has checked n and the arity with _exponent_array.

    Terms whose slots are all distinct are written as they are.  Otherwise
    the distinct slots are numbered in the result tensor itself, so no other
    q^n-sized array is made, and like terms add as digit vectors: digit j of
    every term goes through one weighted bincount over the slot numbers,
    exact since N * (p - 1) < 2^53, and the sums are taken mod p and
    recombined with p_pows.
    """
    q, p = field.q, field.p
    # as unsigned a negative value is huge, so one comparison finds both
    # the exponents to fold and the negative ones
    high = exps.view(np.uint64) >= q
    if high.any():
        if exps.min() < 0:
            raise ValueError("exponents must be nonnegative")
        exps[high] = (exps[high] - 1) % (q - 1) + 1
    bad = ranks.view(np.uint64) >= q
    if bad.any():
        raise ValueError(f"rank {ranks[bad.argmax()]} outside field of "
                         f"order {q}")
    # the C-order slot of each term; a matrix product also serves n = 0
    slots = exps @ q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    del exps, high  # a caller that kept no reference frees them here
    out = np.zeros(q**n, dtype=np.int64)
    out[slots] = 1
    used = out.nonzero()[0]
    if used.size == slots.size:
        out[slots] = ranks
        return MultiPoly(field, n, out)
    out[used] = np.arange(used.size)
    slots = out[slots]
    acc = np.zeros(used.size)
    for pj in field.p_pows.tolist():
        digit = ranks // pj
        digit %= p
        sums = np.bincount(slots, weights=digit, minlength=used.size)
        np.fmod(sums, p, out=sums)
        sums *= pj
        acc += sums
    out[used] = acc
    return MultiPoly(field, n, out)


def _int64s(values, count: int, wide) -> np.ndarray:
    """The count integers of the iterable values() as an int64 array.

    values is called again when one of them does not fit in int64: the
    second pass maps every value through wide, which returns an int64 of
    the same meaning or raises ValueError, so huge input stays a usage
    error instead of an OverflowError.
    """
    try:
        return np.fromiter(values(), np.int64, count)
    except OverflowError:
        return np.fromiter(map(wide, values()), np.int64, count)


def _exponent_array(field: Field, n: int, rows: list) -> np.ndarray:
    """The exponent sequences rows as an (N, n) int64 array; an exponent
    beyond int64 is folded first (or made -1 when negative).  n is checked
    first, so a huge n is refused and never shapes an array."""
    _check_points(field, n)
    if not set(map(len, rows)) <= {n}:
        bad = next(k for k in map(len, rows) if k != n)
        raise VariableCountMismatch(
            f"term has {bad} exponents, expected {n}")

    def wide(e):
        e = int(e)
        if -_WIDE <= e < _WIDE:
            return e
        return fold_exp(e, field.q) if e > 0 else -1

    return _int64s(lambda: itertools.chain.from_iterable(rows),
                   len(rows) * n, wide).reshape(len(rows), n)


def _rank_array(field: Field, values, count: int) -> np.ndarray:
    """count coefficient ranks read from the iterable values() as int64."""
    def wide(c):
        c = int(c)
        if -_WIDE <= c < _WIDE:
            return c
        raise ValueError(f"rank {c} outside field of order {field.q}")

    return _int64s(values, count, wide)


def poly_build(field: Field, n: int, terms) -> MultiPoly:
    """Sum raw (exponents, coefficient rank) terms into reduced form.

    Exponents may be arbitrarily large nonnegative integers; like terms
    combine in the field.  terms may be any iterable; its exponents and
    ranks are read as int() reads them into two int64 arrays, and
    _sum_terms checks, folds and sums those.
    """
    terms = list(terms)
    exps = _exponent_array(field, n,
                           list(map(tuple, map(itemgetter(0), terms))))
    ranks = _rank_array(field, lambda: map(itemgetter(1), terms), len(terms))
    return _sum_terms(field, n, exps, ranks)


def zero(field: Field, n: int) -> MultiPoly:
    return poly_build(field, n, [])


def constant(field: Field, n: int, c: int) -> MultiPoly:
    return poly_build(field, n, [((0,) * n, c)])


def variable(field: Field, n: int, i: int) -> MultiPoly:
    """The monomial x_{i+1} (0-based slot i) in n variables."""
    if not 0 <= i < n:
        raise IndexOutOfRange(f"variable index {i} outside [0, {n})")
    exps = [0] * n
    exps[i] = 1
    return poly_build(field, n, [(tuple(exps), 1)])


def monomial(field: Field, n: int, exps, c: int = 1) -> MultiPoly:
    return poly_build(field, n, [(tuple(exps), c)])


def extend(f: MultiPoly, n: int, offset: int) -> MultiPoly:
    """Embed f into n >= f.n variables, its old x_{j} becoming x_{offset+j}."""
    if offset < 0 or offset + f.n > n:
        raise IndexOutOfRange(
            f"cannot place {f.n} variables at offset {offset} inside {n}")
    _check_points(f.field, n)
    q = f.field.q
    shape = (1,) * offset + (q,) * f.n + (1,) * (n - offset - f.n)
    return f._tabled(np.broadcast_to(f._values().reshape(shape), (q,) * n), n)


# ---------------------------------------------------------------------------
# value tables

class FuncTable:
    """Values of a function F_q^n -> F_q listed in point-rank order
    (the x_1 coordinate most significant)."""

    __slots__ = ("field", "n", "values")

    def __init__(self, field: Field, n: int, values):
        self.field = field
        self.n = n
        vals = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
        if vals.size != field.q**n:
            raise ValueError(f"expected {field.q**n} values, got {vals.size}")
        if vals.size and (vals.min() < 0 or vals.max() >= field.q):
            raise ValueError("table values must be element ranks")
        vals.setflags(write=False)
        self.values = vals

    def __eq__(self, other) -> bool:
        return (isinstance(other, FuncTable) and self.field == other.field
                and self.n == other.n
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"FuncTable(q={self.field.q}, n={self.n})"


def points(field: Field, n: int):
    """All points of F_q^n in rank order."""
    return itertools.product(field.elements(), repeat=n)


# The multi-stage plan runs only where it saves at least this many lookups
# over the dense gather (q per nonzero row and column): below that, its
# fixed cost of 40-80 us per stage outweighs the saving.  Timed per dense
# axis on a 2-core x86 VM, the plan breaks even near R = 100 at q = 16 and
# near R = 20 at q = 27, and wins at R = 1 from q = 64 on; this value puts
# the switch at R = 128, 26 and 2 there, and keeps every axis with R = 1
# at q <= 64 on the gather.
_DFT_MIN = 1 << 12
# What a stage of the plan costs beyond its p x p matrix (twiddle gather,
# rotating copy, and a share of the entry and exit gathers), in rows of the
# dense gather: a plan over the radices costs sum(p + _STAGE_ROWS) rows.
# Fitted on whole dense axes, where it keeps q = 7, 9, 13 and 17 (radices
# of 2 and 3 only) on the gather, which was as fast or faster there.
_STAGE_ROWS = 3
# _transform orders the axes and skips zero columns only on tensors of at
# least this many entries: on smaller ones the reductions that find them
# cost more than they save.
_SPARSE_MIN = 1 << 14
# From this q on, a dense gather whose axis has at most q / 4 nonzero rows
# makes only the matrix columns it reads; at smaller q making the whole
# matrix costs less than the extra calls.
_PARTIAL_Q = 64


def _radices(m: int) -> list[int]:
    """The prime factors of m >= 1, smallest first, with multiplicity."""
    out, d = [], 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    return out + [m] if m > 1 else out


def _dense_matrix(field: Field, inverse: bool,
                  cols: np.ndarray | None = None) -> np.ndarray:
    """The evaluation matrix E (inverse False) or interpolation matrix L,
    or only its columns cols (a sorted rank array), made from exp and log on
    each call and never cached.

    E[c, e] = c^e, with 0^0 = 1: the values of f at the points c are
    E @ coeffs.  Coefficient e of the interpolant of the values f(c) is
    sum_c L[e, c] f(c): the basis poly 1 - (x - c)^(q-1) vanishing off c
    has coefficient delta_(e,0) - C(q-1, e) (-c)^(q-1-e) = delta_(e,0) -
    c^(q-1-e), as C(q-1, e) = (-1)^e mod p, so L is E reflected and
    negated, with 1 added to row 0."""
    q = field.q
    at = np.arange(q) if cols is None else cols
    if inverse:
        M = np.multiply.outer(np.arange(q - 1, -1, -1), field.log[at])
    else:
        M = np.multiply.outer(field.log, at)
    M %= q - 1
    M = field.exp[M]
    # log[0] = 0 made every power of 0 a 1; 0^k = 0 for k > 0
    if inverse:
        M[:-1, at == 0] = 0
        M = field.neg_t[M]
        M[0] = field.add_t[1, M[0]]
    else:
        M[0, at != 0] = 0
    return M


def _dft(field: Field, A: np.ndarray, inverse: bool,
         radices: list[int]) -> np.ndarray:
    """The full evaluation (inverse False) or interpolation matrix applied
    to the (q, R) array A, as a mixed-radix DFT of length q-1 over F_q^*;
    radices multiply to q-1.  Equal to mat_apply of _dense_matrix.

    With g the generator and exp[i] = g^i, evaluation at g^k is
    c_0 + sum_(j<q-1) c'_j g^(jk) where c'_0 = c_(q-1) and c'_j = c_j
    otherwise; c_0 rides in c'_0, as it adds to every value.  Interpolation
    is the DFT X in g^(-1) of the values f(g^j): c_0 = f(0),
    c_e = -X[e] for 0 < e < q-1 and c_(q-1) = -(f(0) + X[0]).

    With w the root (g or g^(-1)), the stage of radix p splits the index
    it works on as j = j_p * m + j' (m the product of the later radices,
    P of the earlier ones), contracts the leading digit j_p with the p x p
    matrix w^((q-1)/p * j_p * k_p) in one mat_apply, multiplies by the
    twiddles w^(P * j' * k_p) in place through mul_t, and rotates the
    digit k_p to the back; frequency k is the sum of k_p * P.  No stage
    reorders its input; one gather at the end reads each output row from
    where its frequency landed, and the only other copies are the entry
    gather (rows in DFT order) and one rotation per stage."""
    q, N = field.q, field.q - 1
    add_f, mul_f = field.add_t.ravel(), field.mul_t.ravel()
    exp = field.exp[:N]
    sign = -1 if inverse else 1
    if inverse:
        t = A[exp]
    else:
        t = A[np.r_[N, 1:N]]
        t[0] = add_f[q * t[0] + A[0]]
    done = 1
    for n in radices:
        k = np.arange(n)
        M = exp[sign * (N // n) * np.outer(k, k) % N]
        rest = N // (done * n)
        if inverse and rest == 1:
            M = field.neg_t[M]      # the last stage negates every X[e]
        t = _kernels.mat_apply(M, t.reshape(n, -1), field.add_t, field.mul_t)
        if rest > 1:
            v = t.reshape(n, rest, -1)
            v *= q
            v += exp[sign * done * np.outer(k, np.arange(rest)) % N, None]
            mul_f.take(v, out=v, mode="clip")
            del v                   # so that no stage holds three arrays
            t = np.ascontiguousarray(t.reshape(n, -1).T)
        done *= n
    # t holds (k_s, R, k_1, ..., k_(s-1)) in C order
    if inverse:
        freq = np.r_[0, 1:N, 0]
    else:
        freq = np.zeros(q, dtype=np.int64)
        freq[exp] = np.arange(N)
    pos, place = np.zeros_like(freq), 1
    for n in radices[:-1]:
        pos = pos * n + freq // place % n
        place *= n
    out = t.reshape(radices[-1], A.shape[1], place)[freq // place, :, pos]
    out[0] = A[0]
    if inverse:
        out[N] = add_f[q * field.neg_t[A[0]] + out[N]]
    return out


def _densest_first(arr: np.ndarray, k: int) -> list[int]:
    """The first k axes of arr, those with the most nonzero rows first and
    ties in axis order."""
    live = arr.any(axis=tuple(range(k, arr.ndim)))
    rows = [np.count_nonzero(live.any(axis=tuple(j for j in range(k)
                                                 if j != i)))
            for i in range(k)]
    return sorted(range(k), key=lambda i: -rows[i])


def _few_columns(t: np.ndarray) -> np.ndarray | None:
    """The flat indices of the nonzero columns of t (axis 0 its rows, the
    other axes its columns in C order) when they are under a quarter of
    the columns; None otherwise, and always for a lone column (t 1-D)."""
    live = t.any(axis=0)
    if live.ndim and 4 * np.count_nonzero(live) < live.size:
        return np.flatnonzero(live)
    return None


def _transform(field: Field, arr: np.ndarray, inverse: bool,
               nvars: int | None = None) -> np.ndarray:
    """Apply the evaluation matrix (inverse False) or the interpolation
    matrix of _dense_matrix along the first nvars axes of a
    (q,)*nvars + batch tensor; returns the batch + (q,)*nvars result.

    Each step transforms one axis, as a (q, R) array A whose rows are the
    axis and whose columns are all other entries, and moves it to the back.
    A zero column of A stays zero under any per-axis map, so on a tensor
    of at least _SPARSE_MIN entries the steps take the axes densest first
    (most nonzero rows, ties in axis order), and a step whose nonzero
    columns are under a quarter of R transforms only those and scatters
    them into zeros.  Smaller tensors take the axes in order and every
    column, as the reductions would cost more than they save.

    An axis runs as the mixed-radix DFT _dft when q-1 is composite and the
    DFT saves at least _DFT_MIN lookups: the dense gather costs q per
    nonzero row and column of A (of the columns transformed), the DFT
    sum(p + _STAGE_ROWS) rows over its radices p.  Otherwise the axis
    takes one dense mat_apply: of the whole matrix, made at most once per
    call, or, when q >= _PARTIAL_Q and at most q / 4 rows of A are
    nonzero, of only the matrix columns those rows meet.  The one copy at
    the end puts the transformed axes back in their original order."""
    k = arr.ndim if nvars is None else nvars
    batch = arr.shape[k:]
    q = field.q
    radices = _radices(q - 1)
    cost = sum(radices) + _STAGE_ROWS * len(radices)
    dense = None

    def step(A):
        nonlocal dense
        live = A.any(axis=1)
        nz = np.count_nonzero(live)
        if len(radices) > 1 and (nz - cost) * A.size >= _DFT_MIN:
            return _dft(field, A, inverse, radices)
        if q >= _PARTIAL_Q and 4 * nz <= q:
            at = np.flatnonzero(live)
            return _kernels.mat_apply(_dense_matrix(field, inverse, at),
                                      A[at], field.add_t, field.mul_t)
        if dense is None:
            dense = _dense_matrix(field, inverse)
        return _kernels.mat_apply(dense, A, field.add_t, field.mul_t)

    sparse = arr.size >= _SPARSE_MIN
    order = _densest_first(arr, k) if sparse and k > 1 else list(range(k))
    t = arr.transpose(order + list(range(k, arr.ndim)))
    for _ in range(k):
        rest = t.shape[1:]
        cols = _few_columns(t) if sparse else None
        if cols is not None:
            vals = step(t[(slice(None),) + np.unravel_index(cols, rest)])
            del t               # so that old and new never coexist
            t = np.zeros(rest + (q,), dtype=np.int64)
            t.reshape(-1, q)[cols] = vals.T
            continue
        t = step(t.reshape(q, -1)).T.reshape(rest + (q,))
    back = list(range(len(batch))) + [len(batch) + order.index(i)
                                      for i in range(k)]
    return np.ascontiguousarray(t.transpose(back)).reshape(batch + (q,) * k)


def to_table(f: MultiPoly, cap: int | None = None) -> FuncTable:
    """Exhaustively evaluate f at every point of F_q^n."""
    _check_points(f.field, f.n, cap)
    f._values()  # fills the cache
    return f._table


def interpolate(tbl: FuncTable) -> MultiPoly:
    """The unique reduced polynomial realizing the table; its coefficients
    are computed when first read."""
    return MultiPoly(tbl.field, tbl.n, table=tbl)


def compose_univariate(g: MultiPoly, f: MultiPoly) -> MultiPoly:
    """g(f) for univariate g, as the reduced polynomial of the composed
    function (identical to substituting f into g formally)."""
    if g.n != 1:
        raise VariableCountMismatch("outer polynomial must be univariate")
    if g.field != f.field:
        raise FieldMismatch("operands live in different fields")
    return f._tabled(g._values()[f._values()])


# ---------------------------------------------------------------------------
# JSON forms

def poly_to_json(f: MultiPoly) -> dict:
    """Canonical JSON: terms sorted by rank, coefficients as digit vectors."""
    field = f.field
    exps, ranks = f._nonzero()
    digits = (ranks[:, None] // field.p_pows % field.p).tolist()
    return {
        "field": field.to_json(),
        "n": f.n,
        "terms": [{"exps": e, "coeff": d}
                  for e, d in zip(exps.tolist(), digits)],
    }


_INTS = (int, np.integer)


def _is_int(x) -> bool:
    return isinstance(x, _INTS) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _all_types(values, kinds) -> bool:
    """Whether every value is an instance of kinds but not a bool, checked
    once per distinct type."""
    return all(issubclass(t, kinds) and not issubclass(t, bool)
               for t in set(map(type, values)))


_TERM_SHAPE = ('each term must be {"exps": [int, ...], '
               '"coeff": int or [int, ...]}')


def _at(terms: list, key: str):
    """The value of every term dict at key, None where it is missing."""
    return map(dict.get, terms, itertools.repeat(key))


def _vectors(terms: list):
    """The coefficients of the terms that are digit vectors (lists)."""
    return itertools.compress(
        _at(terms, "coeff"),
        map(isinstance, _at(terms, "coeff"), itertools.repeat(list)))


def _check_poly_json(data) -> None:
    """Raise ValueError unless data has the shape of a polynomial document."""
    if not isinstance(data, dict):
        raise ValueError("polynomial JSON must be an object")
    fdoc = data.get("field")
    if not isinstance(fdoc, dict):
        raise ValueError('"field" must be an object')
    if not _is_int(fdoc.get("p")) or not _is_int(fdoc.get("r", 1)):
        raise ValueError('"field" needs an integer "p" and an optional '
                         'integer "r"')
    if fdoc.get("modulus") is not None and not _is_int_list(fdoc["modulus"]):
        raise ValueError('"modulus" must be a list of integers')
    if not _is_int(data.get("n")):
        raise ValueError('"n" must be an integer')
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError('"terms" must be a list')
    chain = itertools.chain.from_iterable
    if not (_all_types(terms, dict)
            and _all_types(_at(terms, "exps"), list)
            and _all_types(chain(_at(terms, "exps")), _INTS)
            and _all_types(_at(terms, "coeff"), _INTS + (list,))
            and _all_types(chain(_vectors(terms)), _INTS)):
        raise ValueError(_TERM_SHAPE)


def _json_ranks(field: Field, terms: list) -> np.ndarray:
    """Coefficient ranks of checked JSON terms: an int coefficient is a
    rank, a list holds the r digits of one, constant first."""
    p, r = field.p, field.r
    if not set(map(len, _vectors(terms))) <= {r}:
        raise ValueError(f"coefficient vector must have length {r}")
    is_vec = np.fromiter(map(isinstance, _at(terms, "coeff"),
                             itertools.repeat(list)), bool, len(terms))
    n_vec = int(is_vec.sum())

    def wide(d):
        if -_WIDE <= d < _WIDE:
            return d
        raise ValueError(f"coefficient {d} outside [0, {p})")

    digits = _int64s(lambda: itertools.chain.from_iterable(_vectors(terms)),
                     n_vec * r, wide)
    bad = digits.view(np.uint64) >= p
    if bad.any():
        raise ValueError(f"coefficient {digits[bad.argmax()]} outside "
                         f"[0, {p})")
    ranks = np.empty(len(terms), dtype=np.int64)
    ranks[is_vec] = digits.reshape(n_vec, r) @ field.p_pows
    ranks[~is_vec] = _rank_array(
        field, lambda: itertools.compress(_at(terms, "coeff"), ~is_vec),
        len(terms) - n_vec)
    return ranks


def poly_from_json(data: dict) -> MultiPoly:
    """Accepts unreduced exponents and unsorted terms; extra keys ignored.

    Raises ValueError when the document has the wrong shape.  Exponents and
    coefficient digits stream from the document into arrays, with no
    object per term, and _sum_terms adds them up."""
    _check_poly_json(data)
    field = field_from_json(data["field"])
    n = int(data["n"])
    terms = data["terms"]
    ranks = _json_ranks(field, terms)
    return _sum_terms(field, n,
                      _exponent_array(field, n, list(_at(terms, "exps"))),
                      ranks)
