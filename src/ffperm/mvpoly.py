"""Dense polynomials over F_q[x_1..x_n] reduced modulo x_i^q - x_i.

A reduced polynomial and the function F_q^n -> F_q it defines determine
each other, so a MultiPoly lives in two domains and holds either or both,
each as a read-only array:

- the coefficient domain, a (q, ..., q) int64 tensor whose axis i carries
  the exponent of x_{i+1}, so the C-order flat index of a term is its rank
  with the x_1 exponent most significant;
- the value-table domain, a flat int64 array listing f at every point of
  F_q^n in the same rank order.

Whichever is missing is computed on first use (one transform per axis: a
DFT over F_q^*, or the dense q x q gather that is its one-stage plan; on a
tensor of at least _SPARSE_MIN entries only its support box, the product of
each axis's nonzero rows, is transformed, largest support first, and of
each step only the nonzero columns, which spares most of the work on a
sparse polynomial such as pp_hn; see _transform) and cached.
This module alone knows the interpolation formula: _dense_matrix makes
both one-stage matrices, or the columns of them an axis reads, from the
field's exp and log on each call, and _dft runs the same maps stage by
stage.  Ring
operations, substitution, extension and composition act pointwise on value
tables and return table-only polynomials, and evaluate reads the table;
poly_build, terms, degrees and JSON work on coefficients; leading_terms
and total_degree scan top corners of the coefficient tensor, growing them
until one must hold the answer.  Exponents
e >= q fold to ((e - 1) mod (q - 1)) + 1, which keeps x^0 and x^{q-1}
distinct and makes the correspondence one-to-one.

Raw terms (poly_build, poly_from_json) are read into an exponent array and
a coefficient rank array, with no Python object per term, and one array
routine (_sum_terms) checks, folds and sums them.  JSON text whose terms are
written in the form `ffperm construct` or json.dump gives them is read
straight from its bytes (_read_text); json.loads parses everything else.

Every variable count that sizes work, here and in the families and
checkers, is read by _check_points: exactly (2.0 and numpy integers pass,
2.5 does not), with a least value of 0 or 1, and under the point cap
before anything of size q^n exists.  to_table checks the cap again before
it evaluates, and so does the first read of a held table's coefficients
before it interpolates, since the cap may have been tightened since the
build.  Neither FuncTable, which checks only that the values it is given
are element ranks that fit its n, nor points, which reads its n exactly
and makes the points one at a time, is capped.  A FuncTable is made only
at the public edge: to_table wraps a polynomial's cached values through
FuncTable's checks on each call, and interpolate holds a FuncTable's
values without a copy.  Tables that ffperm computes itself through the
field's tables are ranks by construction and stay plain arrays.
"""

import itertools
import json
from operator import itemgetter

import numpy as np

from . import _kernels
from .caps import point_cap
from .errors import (CapExceeded, FFPermError, FieldMismatch,
                     IndexOutOfRange, VariableCountMismatch)
from .gf import Field, exact_int, field_from_json, fold_exp


def _exponents(nz: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(len(nz), len(shape)) exponent rows of the C-order flat indices nz."""
    if not shape:  # a constant in 0 variables; unravel_index refuses ()
        return np.zeros((nz.size, 0), dtype=np.int64)
    return np.stack(np.unravel_index(nz, shape), axis=1)


# int64 holds exactly the integers in [-_WIDE, _WIDE)
_WIDE = 1 << 63


def _check_points(field: Field, n, least: int = 0,
                  what: str = "variable count") -> int:
    """The variable count n read exactly (as what), after refusing n < least
    (least is 0 or 1) and q^n points over the point cap; it raises before
    anything of size q^n is allocated.  Every count is read here."""
    n = exact_int(n, what)
    if n < least:
        raise ValueError("need at least one variable" if least
                         else "variable count must be nonnegative")
    limit = point_cap()
    # q >= 2, so n >= bit_length(limit) puts q^n over the cap without
    # building a huge q^n first
    if n >= limit.bit_length() or field.q**n > limit:
        raise CapExceeded(f"{field.q}^{n} points exceed the point cap")
    return n


def _frozen(arr, shape) -> np.ndarray:
    """arr as a read-only contiguous int64 array of the given shape, copied
    only when it is not one already."""
    arr = np.ascontiguousarray(arr, dtype=np.int64).reshape(shape)
    arr.setflags(write=False)
    return arr


class MultiPoly:
    """Immutable reduced polynomial holding its coefficient tensor, its value
    table, or both, as read-only int64 arrays; build via poly_build,
    interpolate or the helpers.

    ``coeffs`` is a (q,)*n tensor and ``values`` a flat table in point-rank
    order; neither is checked, so both must hold element ranks.  ``coeffs``
    is interpolated from the table on first access, and the table is
    evaluated from ``coeffs`` on first use; both are then cached.
    """

    __slots__ = ("field", "n", "_coeffs", "_vals")

    def __init__(self, field: Field, n: int, coeffs: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        self.field = field
        self.n = n
        shape = (field.q,) * n
        self._coeffs = None if coeffs is None else _frozen(coeffs, shape)
        self._vals = None if values is None else _frozen(values, -1)

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient tensor of shape (q,)*n."""
        if self._coeffs is None:
            field, n = self.field, self.n
            _check_points(field, n)
            shape = (field.q,) * n
            self._coeffs = _frozen(
                _transform(field, self._vals.reshape(shape), True, n), shape)
        return self._coeffs

    def _values(self) -> np.ndarray:
        """Flat value table in point-rank order, evaluated on first use."""
        if self._vals is None:
            self._vals = _frozen(
                _transform(self.field, self._coeffs, False, self.n), -1)
        return self._vals

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
        lead = self.leading_terms()
        return sum(lead[0][0]) if lead else -1

    def leading_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms attaining the total degree, in ascending term rank; [] for
        the zero polynomial.

        A term of total degree >= n(q-1) - k has every exponent >= q-1-k,
        so it lies in the (k+1)^n top corner coeffs[q-1-k:, ..., q-1-k:].
        On a tensor of at least _SPARSE_MIN entries the corners k = 0, 1,
        3, 7, ... (capped at q-1) are scanned in turn, up to the first that
        holds a term of degree >= n(q-1) - k: every term of the total degree
        lies in that corner.  Smaller tensors are scanned whole at once.  A
        table-only polynomial interpolates (and caches) its full coefficient
        tensor first.
        """
        q, n = self.field.q, self.n
        k = 0 if self.coeffs.size >= _SPARSE_MIN else q - 1
        while True:
            exps, ranks = self._nonzero(q - 1 - k)
            degs = exps.sum(axis=1)
            top = degs.max(initial=-1)
            if top >= n * (q - 1) - k or k == q - 1:
                at = degs == top
                return list(zip(map(tuple, exps[at].tolist()),
                                ranks[at].tolist()))
            k = min(2 * k + 1, q - 1)

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
        return MultiPoly(self.field, self.n if n is None else n,
                         values=values)

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
        i = exact_int(i, "variable index")
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

def _sum_terms(field: Field, exps: np.ndarray,
               ranks: np.ndarray) -> MultiPoly:
    """Sum the terms given as an (N, n) int64 exponent array and an (N,)
    coefficient rank array into a polynomial in n variables, in reduced
    form; exps is folded in place.  The caller has read n with
    _check_points (through _exponent_array or itself).

    Terms whose slots are all distinct are written as they are.  Otherwise
    the distinct slots are numbered in the result tensor itself, so no other
    q^n-sized array is made, and like terms add as digit vectors: digit j of
    every term goes through one weighted bincount over the slot numbers,
    exact since N * (p - 1) < 2^53, and the sums are taken mod p and
    recombined with p_pows.
    """
    q, p, n = field.q, field.p, exps.shape[1]
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


def _exponent_array(field: Field, n, rows: list) -> np.ndarray:
    """The exponent sequences rows as an (N, n) int64 array; an exponent
    beyond int64 is folded first (or made -1 when negative).  n is read
    first, so a huge n is refused and never shapes an array."""
    n = _check_points(field, n)
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
    return _sum_terms(field, exps, ranks)


def monomial(field: Field, n: int, exps, c: int = 1) -> MultiPoly:
    return poly_build(field, n, [(tuple(exps), c)])


def extend(f: MultiPoly, n: int, offset: int) -> MultiPoly:
    """Embed f into n >= f.n variables, its old x_{j} becoming x_{offset+j}."""
    n, offset = _check_points(f.field, n), exact_int(offset, "offset")
    if offset < 0 or offset + f.n > n:
        raise IndexOutOfRange(
            f"cannot place {f.n} variables at offset {offset} inside {n}")
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
        self.n = n = exact_int(n, "variable count")
        vals = _integral(values)
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        # q >= 2, so q^n outgrows the table once n > bit_length(size): such
        # an n is refused without building q^n
        want = field.q**n if n <= vals.size.bit_length() else f"{field.q}^{n}"
        if want != vals.size:
            raise ValueError(f"expected {want} values, got {vals.size}")
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


def _integral(values) -> np.ndarray:
    """values as a flat contiguous int64 array, refusing any value that
    int64 would change (1.5, '1', nan, 10**30), as gf.exact_int does;
    integers, bools and integral floats such as 5.0 pass."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return np.ascontiguousarray(arr, dtype=np.int64).reshape(-1)
    if arr.dtype.kind in "fO":
        try:
            with np.errstate(invalid="ignore"):
                vals = arr.astype(np.int64)
            if np.array_equal(vals, arr):
                return np.ascontiguousarray(vals).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError("table values must be element ranks")


def points(field: Field, n: int):
    """All points of F_q^n in rank order, made as they are read."""
    return itertools.product(field.elements(),
                             repeat=exact_int(n, "variable count"))


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
# _transform slices the support box and skips zero columns, and
# leading_terms grows its corner from the top, only on tensors of at least
# this many entries: on smaller ones the reductions cost more than they save.
_SPARSE_MIN = 1 << 14


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


def _support(arr: np.ndarray, k: int) -> list[np.ndarray]:
    """The nonzero rows of each of the first k axes of arr, read from one
    bool mask with the other axes reduced away."""
    live = arr.any(axis=tuple(range(k, arr.ndim)))
    return [np.flatnonzero(live.any(axis=tuple(j for j in range(k) if j != i)))
            for i in range(k)]


def _few_columns(t: np.ndarray) -> np.ndarray | None:
    """The flat indices of the nonzero columns of t (axis 0 its rows, the
    other axes its columns in C order) when they are under a quarter of
    the columns; None otherwise, so always for one nonzero column (t 1-D,
    which _transform never hands in all zero)."""
    live = t.any(axis=0)
    cols = np.flatnonzero(live)
    return cols if 4 * cols.size < live.size else None


def _transform(field: Field, arr: np.ndarray, inverse: bool,
               nvars: int | None = None) -> np.ndarray:
    """Apply the evaluation matrix (inverse False) or the interpolation
    matrix of _dense_matrix along the first nvars axes of a
    (q,)*nvars + batch tensor; returns the batch + (q,)*nvars result.

    Each step transforms one axis, seen as an (s, R) array A: its rows are
    the s rows of the axis taken, its columns all other entries.  The step
    writes the q rows of the result and moves the axis to the back.  A zero
    row of A adds nothing and a zero column stays zero, so on a tensor of
    at least _SPARSE_MIN entries the steps start from the support box: one
    bool mask gives each axis's nonzero rows (_support), the tensor is
    sliced to their product (np.ix_; batch axes stay whole), and the axes
    are taken largest support first, ties in axis order.  The tensor then
    grows only as each axis fills, and as each axis map is invertible, a
    row taken stays nonzero.  A step whose nonzero columns are under a
    quarter of R transforms only those and scatters them into zeros, as
    interpolating a dense table can turn it sparse mid-transform.  Smaller
    tensors take the axes in order and every row and column, as the
    reductions would cost more than they save.  An all-zero tensor maps to
    zeros.

    An axis runs as the mixed-radix DFT _dft when q-1 is composite and the
    DFT saves at least _DFT_MIN lookups: the dense gather costs q per row
    and column of A (of the columns transformed), the DFT
    sum(p + _STAGE_ROWS) rows over its radices p, and it runs on A with
    the missing rows filled with zeros.  Otherwise the axis takes one dense
    mat_apply: of the whole matrix when s = q, made at most once per call,
    or of the s matrix columns its rows meet.  The one copy at the end puts
    the transformed axes back in their original order."""
    k = arr.ndim if nvars is None else nvars
    batch = arr.shape[k:]
    q = field.q
    radices = _radices(q - 1)
    cost = sum(radices) + _STAGE_ROWS * len(radices)
    dense = []                  # the whole matrix, made on first use

    def step(A, at):
        s, R = A.shape
        if len(radices) > 1 and (s - cost) * q * R >= _DFT_MIN:
            if s < q:
                full = np.zeros((q, R), dtype=np.int64)
                full[at] = A
                A = full
            return _dft(field, A, inverse, radices)
        if s == q and not dense:
            dense.append(_dense_matrix(field, inverse))
        M = dense[0] if s == q else _dense_matrix(field, inverse, at)
        return _kernels.mat_apply(M, A, field.add_t, field.mul_t)

    sparse = arr.size >= _SPARSE_MIN
    rows = _support(arr, k) if sparse else [np.arange(q)] * k
    if any(at.size == 0 for at in rows):        # arr is all zero
        return np.zeros(batch + (q,) * k, dtype=np.int64)
    if any(at.size < q for at in rows):
        arr = arr[np.ix_(*rows)]
    order = sorted(range(k), key=lambda i: -arr.shape[i])
    t = arr.transpose(order + list(range(k, arr.ndim)))
    for at in [rows[i] for i in order]:
        s, rest = t.shape[0], t.shape[1:]
        cols = _few_columns(t) if sparse else None
        if cols is not None:
            vals = step(t[(slice(None),) + np.unravel_index(cols, rest)], at)
            del t               # so that old and new never coexist
            t = np.zeros(rest + (q,), dtype=np.int64)
            t.reshape(-1, q)[cols] = vals.T
            continue
        t = step(t.reshape(s, -1), at).T.reshape(rest + (q,))
    back = [*range(len(batch)), *(len(batch) + np.array(order).argsort())]
    return np.ascontiguousarray(t.transpose(back)).reshape(batch + (q,) * k)


def to_table(f: MultiPoly) -> FuncTable:
    """Exhaustively evaluate f at every point of F_q^n, under the point cap.

    f caches its values, so each call returns a new FuncTable, equal to the
    last and sharing its values, made through FuncTable's checks."""
    _check_points(f.field, f.n)
    return FuncTable(f.field, f.n, f._values())


def interpolate(tbl: FuncTable) -> MultiPoly:
    """The unique reduced polynomial realizing the table; it holds the
    table's values without a copy, and its coefficients are computed when
    first read."""
    return MultiPoly(tbl.field, tbl.n, values=tbl.values)


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


_TERMS = '"terms": ['
_JSON_SPACE = " \t\n\r"
_DIGITS = b"0123456789"
# every byte but a digit becomes a space
_DIGIT_RUNS = bytes(c if c in _DIGITS else 32 for c in range(256))
# a slot opens with "[" or " " and closes with "," or "]"
_SLOT_EDGES = bytes.maketrans(b"[]", b" ,")
# a run of 18 digits fits in int64; strtoll clamps a longer one
_RUN_LIMIT = 10**18


def _skeletons(n: int, r: int) -> tuple[bytes, bytes]:
    """One term with its digits deleted: coeff first, as `ffperm construct`
    writes it (sort_keys), and exps first, as json.dump writes the dict
    {"exps": ..., "coeff": ...}."""
    coeff = '"coeff": [' + ", " * (r - 1) + "]"
    exps = '"exps": [' + ", " * (n - 1) + "]"
    return f"{{{coeff}, {exps}}}".encode(), f"{{{exps}, {coeff}}}".encode()


def _read_text(text: str) -> MultiPoly | None:
    """The polynomial of a JSON text whose terms are its last key and all
    written in one of the _skeletons forms with unsigned integers of at
    most 18 digits, no leading zero and coefficient digits below p; None
    for any other text, valid or not, and for a header (everything but
    the terms) that poly_from_json would refuse.

    The header alone goes through json.loads.  The terms' bytes with their
    digits deleted must be the skeleton repeated, no slot may be empty,
    and one np.fromstring reads every integer, one row per term.  The
    digit count the values imply must equal the digits in the text, which
    a leading zero or a clamped run would break.  The arrays handed to
    _sum_terms hold what the dict path's would, so the result is the same.
    """
    cut = text.find(_TERMS)
    end = len(text.rstrip(_JSON_SPACE))
    if cut < 0 or not text.startswith("]}", end - 2):
        return None
    # a header that parses with an empty terms list put in at the cut shows
    # that the cut is a key of the top object, not text in a string or a
    # nested object
    try:
        doc = json.loads(text[:cut] + _TERMS + "]}")
        _check_poly_json(doc)
        field = field_from_json(doc["field"])
        n = _check_points(field, doc["n"])
    except (ValueError, FFPermError, RecursionError):
        return None
    body = text[cut + len(_TERMS) - 1:end - 1]  # from "[" through "]"
    if not body.isascii():
        return None
    body = body.encode()
    bare = body.translate(None, _DIGITS)
    forms = _skeletons(n, field.r)
    size = len(forms[0]) + 2  # a term and ", "
    count, rest = divmod(len(bare), size)
    form = bare[1:size - 1]
    # n = 0 writes "exps": [], which the empty-slot test refuses
    if (rest or form not in forms
            or not bare.startswith((form + b", ") * (count - 1), 1)
            or not bare.endswith(form + b"]")
            or b" ," in body.translate(_SLOT_EDGES)):
        return None
    digits = len(body) - len(bare)
    del bare
    body = body.translate(_DIGIT_RUNS)
    values = np.fromstring(body, np.int64, sep=" ")
    del body
    width = n + field.r
    if values.size != count * width:
        return None
    top = int(values.max())
    if top >= _RUN_LIMIT or digits != values.size + sum(
            int(np.count_nonzero(values >= 10**k))
            for k in range(1, len(str(top)))):
        return None
    rows = values.reshape(count, width)
    if form.startswith(b'{"coeff"'):
        coeff, exps = rows[:, :field.r], rows[:, field.r:]
    else:
        exps, coeff = rows[:, :n], rows[:, n:]
    if coeff.max() >= field.p:  # the general path words the error
        return None
    return _sum_terms(field, exps, coeff @ field.p_pows)


def poly_from_json(data: dict | str) -> MultiPoly:
    """Accepts unreduced exponents and unsorted terms; extra keys ignored.

    data is a document or its JSON text.  Raises ValueError when the text
    is not JSON or the document has the wrong shape.  Text that _read_text
    reads never meets json.loads; any other is parsed and read as a
    document: exponents and coefficient digits stream from it into
    arrays, with no object per term, and _sum_terms adds them up."""
    if isinstance(data, str):
        poly = _read_text(data)
        if poly is not None:
            return poly
        try:
            data = json.loads(data)
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None
    _check_poly_json(data)
    field = field_from_json(data["field"])
    terms = data["terms"]
    ranks = _json_ranks(field, terms)
    return _sum_terms(
        field, _exponent_array(field, data["n"], list(_at(terms, "exps"))),
        ranks)
