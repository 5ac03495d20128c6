"""Dense polynomials over F_q[x_1..x_n] reduced modulo x_i^q - x_i.

A reduced polynomial and the function F_q^n -> F_q it defines determine
each other, so a MultiPoly lives in two domains and holds either or both:

- the coefficient domain, a (q, ..., q) int64 tensor whose axis i carries
  the exponent of x_{i+1}, so the C-order flat index of a term is its rank
  with the x_1 exponent most significant;
- the value-table domain, a FuncTable listing f at every point of F_q^n in
  the same rank order.

Whichever is missing is computed on first use (one q x q field matrix per
axis, see _transform) and cached.  Ring operations, substitution,
extension and composition act pointwise on value tables and return
table-only polynomials, and evaluate reads the table; poly_build, terms,
degrees and JSON work on coefficients.  Exponents e >= q fold to
((e - 1) mod (q - 1)) + 1, which keeps x^0 and x^{q-1} distinct and makes
the correspondence one-to-one.
"""

import itertools

import numpy as np

from . import _kernels
from .caps import point_cap
from .errors import (CapExceeded, FieldMismatch, IndexOutOfRange,
                     VariableCountMismatch)
from .gf import Field


def fold_exp(e: int, q: int) -> int:
    """Reduce a single exponent modulo the relation x^q = x."""
    return e if e < q else (e - 1) % (q - 1) + 1


def _check_points(field: Field, n: int, cap: int | None = None) -> int:
    limit = point_cap(cap)
    # q >= 2, so n >= bit_length(limit) puts q^n over the cap without
    # building a huge q^n first
    if n >= limit.bit_length() or field.q**n > limit:
        raise CapExceeded(f"{field.q}^{n} points exceed the point cap")
    return field.q**n


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
            arr = _transform(field, arr, field.lagr_t, self.n)
            arr.setflags(write=False)
            self._coeffs = arr
        return self._coeffs

    def _values(self) -> np.ndarray:
        """Flat value table in point-rank order, evaluated on first use."""
        if self._table is None:
            field = self.field
            vals = _transform(field, self._coeffs, field.pow_t, self.n)
            self._table = FuncTable(field, self.n, vals)
        return self._table.values

    # -- metadata ----------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Nonzero (exponents, coefficient rank) pairs in ascending term rank."""
        flat = self.coeffs.reshape(-1)
        out = []
        for idx in np.flatnonzero(flat):
            exps = np.unravel_index(int(idx), self.coeffs.shape)
            out.append((tuple(int(e) for e in exps), int(flat[idx])))
        return out

    def degrees(self) -> tuple[int, tuple[int, ...]]:
        """(total degree, per-variable degrees); the zero poly reports -1."""
        flat = self.coeffs.reshape(-1)
        nz = np.flatnonzero(flat)
        if nz.size == 0:
            return -1, (-1,) * self.n
        exps = np.stack(np.unravel_index(nz, self.coeffs.shape), axis=1)
        total = int(exps.sum(axis=1).max())
        return total, tuple(int(m) for m in exps.max(axis=0))

    @property
    def total_degree(self) -> int:
        return self.degrees()[0]

    def leading_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms attaining the total degree, in ascending term rank."""
        total = self.total_degree
        return [(e, c) for e, c in self.terms() if sum(e) == total]

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
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # a^k == a^fold(k) for every a in F_q, and pow_t[a, 0] == 1
        return self._tabled(
            self.field.pow_t[self._values(), fold_exp(k, self.field.q)])

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
        return (f"MultiPoly(q={self.field.q}, n={self.n}, "
                f"terms={len(np.flatnonzero(self.coeffs))})")


# ---------------------------------------------------------------------------
# constructors

def poly_build(field: Field, n: int, terms) -> MultiPoly:
    """Sum raw (exponents, coefficient rank) terms into reduced form.

    Exponents may be arbitrarily large nonnegative integers; like terms
    combine in the field.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    _check_points(field, n)
    q = field.q
    arr = np.zeros((q,) * n, dtype=np.int64)
    for exps, c in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != n:
            raise VariableCountMismatch(
                f"term has {len(exps)} exponents, expected {n}")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        c = field._check(c)
        idx = tuple(fold_exp(e, q) for e in exps)
        arr[idx] = field.add(int(arr[idx]), c)
    return MultiPoly(field, n, arr)


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


def _transform(field: Field, arr: np.ndarray, M: np.ndarray,
               nvars: int | None = None) -> np.ndarray:
    """Apply the q x q field matrix M along the first nvars axes of a
    (q,)*nvars [+ batch] tensor; transforms on distinct axes commute, so
    ordering is immaterial."""
    t = arr
    k = arr.ndim if nvars is None else nvars
    for axis in range(k):
        moved = np.moveaxis(t, axis, 0)
        flat = np.ascontiguousarray(moved).reshape(field.q, -1)
        res = _kernels.mat_apply(M, flat, field.add_t, field.mul_t)
        t = np.moveaxis(res.reshape(moved.shape), 0, axis)
    return np.ascontiguousarray(t)


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
    return {
        "field": field.to_json(),
        "n": f.n,
        "terms": [{"exps": list(e), "coeff": field.coeffs_of(c)}
                  for e, c in f.terms()],
    }


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


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
    for t in terms:
        if not (isinstance(t, dict) and _is_int_list(t.get("exps"))
                and (_is_int(t.get("coeff")) or _is_int_list(t.get("coeff")))):
            raise ValueError('each term must be {"exps": [int, ...], '
                             '"coeff": int or [int, ...]}')


def poly_from_json(data: dict) -> MultiPoly:
    """Accepts unreduced exponents and unsorted terms; extra keys ignored.

    Raises ValueError when the document has the wrong shape."""
    from .gf import field_from_json
    _check_poly_json(data)
    field = field_from_json(data["field"])
    n = int(data["n"])
    terms = []
    for t in data["terms"]:
        coeff = t["coeff"]
        rank = field.rank_of(coeff) if isinstance(coeff, list) else coeff
        terms.append((t["exps"], rank))
    return poly_build(field, n, terms)
