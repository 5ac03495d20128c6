"""Exhaustive verification of permutation properties, degree bounds and the
supporting identities, with machine-checkable reports."""

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .caps import scan_cap
from .errors import CapExceeded, UnsupportedField
from .gf import Field
from .mvpoly import (MultiPoly, _check_points, _dense_matrix, _exponents,
                     _need_a_variable, _transform, compose_univariate,
                     lead_degree, monomial, to_table)
from .univ import h_polys, t_poly, transposition


@dataclass
class VerifyReport:
    kind: str                      # PP | LPP | DEGREE | IDENTITY | SCAN | CONJECTURE
    ok: bool
    witness: dict | None = None
    stats: dict = dc_field(default_factory=dict)
    label: str = "theorem"
    detail: dict | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "verdict": "pass" if self.ok else "fail",
            "witness": self.witness,
            "stats": self.stats,
            "label": self.label,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _finish(report: VerifyReport, points: int, t0: float) -> VerifyReport:
    report.stats = {"points": int(points), "ms": int((time.perf_counter() - t0) * 1000)}
    return report


def preimage_counts(f: MultiPoly, cap: int | None = None) -> dict[int, int]:
    """Map each field element to its number of preimages under f."""
    vals = to_table(f, cap).values
    counts = np.bincount(vals, minlength=f.field.q)
    return {int(a): int(c) for a, c in enumerate(counts)}


def is_pp(f: MultiPoly, cap: int | None = None) -> VerifyReport:
    """Pass iff every value has exactly q^(n-1) preimages."""
    t0 = time.perf_counter()
    q, n = f.field.q, f.n
    _need_a_variable(n)
    vals = to_table(f, cap).values
    counts = np.bincount(vals, minlength=q)
    want = q ** (n - 1)
    bad = np.flatnonzero(counts != want)
    if bad.size == 0:
        return _finish(VerifyReport("PP", True), q**n, t0)
    # witness: the most over-represented value (lowest rank on ties), so a
    # constant polynomial reports its value with count q^n
    v = int(bad[np.argmax(counts[bad])])
    witness = {"value": v, "count": int(counts[v]), "expected": want}
    return _finish(VerifyReport("PP", False, witness), q**n, t0)


def is_lpp(f: MultiPoly, cap: int | None = None) -> VerifyReport:
    """Pass iff fixing any n-1 variables leaves a univariate bijection.

    The scan walks coordinates in order and assignments in rank order, so a
    failing report always carries the lowest-rank witness: the coordinate
    (1-based), the assignment to the other variables, and a colliding pair.
    """
    t0 = time.perf_counter()
    q, n = f.field.q, f.n
    _need_a_variable(n)
    tbl = to_table(f, cap).values
    axis, lo, hi = _kernels.lpp_scan(tbl, n, q)
    if axis < 0:
        return _finish(VerifyReport("LPP", True), q**n, t0)
    R = q ** (n - 1 - axis)
    row = tbl[lo * q * R + hi::R][:q]
    seen: dict[int, int] = {}
    pair = None
    for a, v in enumerate(row.tolist()):
        if v in seen:
            pair = (seen[v], a, v)
            break
        seen[v] = a
    assignment = _exponents(np.array([lo * R + hi]),
                            (q,) * (n - 1))[0].tolist()
    witness = {
        "coordinate": axis + 1,
        "assignment": assignment,
        "colliding": [pair[0], pair[1]],
        "value": pair[2],
    }
    return _finish(VerifyReport("LPP", False, witness), q**n, t0)


def assert_degree(f: MultiPoly, expected: int) -> VerifyReport:
    """Compare the total degree against expected; always reports the leading
    terms so coefficient claims can be read off.

    One ``f.leading_terms(expected)`` call gives both.  When f has a term
    of degree >= expected it scans only the top corner of the coefficient
    tensor that holds such terms (2^n coefficients at the PP bound
    n(q-1)-1); otherwise it scans the full tensor.  The report is the same
    either way.  The zero polynomial measures -1."""
    t0 = time.perf_counter()
    lead = f.leading_terms(expected)
    total = lead_degree(lead)
    leading = [{"exps": list(e), "coeff": f.field.coeffs_of(c)}
               for e, c in lead]
    detail = {"measured": total, "expected": int(expected),
              "leading_terms": leading}
    ok = total == expected
    witness = None if ok else {"measured": total, "expected": int(expected)}
    return _finish(VerifyReport("DEGREE", ok, witness, detail=detail), 0, t0)


def _balanced_tables(q: int, n: int):
    """Yield every balanced value table of F_q^n in lexicographic order."""
    size = q**n
    part = q ** (n - 1)
    arr = np.empty(size, dtype=np.int64)

    def fill(remaining: tuple[int, ...], v: int):
        if v == q - 1:
            for i in remaining:
                arr[i] = v
            yield arr
            return
        for combo in itertools.combinations(remaining, part):
            for i in combo:
                arr[i] = v
            chosen = set(combo)
            rest = tuple(i for i in remaining if i not in chosen)
            yield from fill(rest, v + 1)

    yield from fill(tuple(range(size)), 0)


def _balanced_count(size: int, part: int, cap: int) -> int:
    """The number size! / (part!)^(size/part) of balanced tables, or
    CapExceeded over cap.  It is the product of C(m, part) over m = size,
    size - part, ..., 2*part, each built as C(m, i+1) = C(m, i)(m-i)/(i+1).
    As i < part <= m/2 the product never falls, so it stops once past
    max(cap, 10^30) and names the exact count only when complete."""
    limit, total = max(cap, 10**30), 1
    for m in range(size, part, -part):
        for i in range(part):
            total = total * (m - i) // (i + 1)
            if total > limit:
                raise CapExceeded(f"more than {limit} balanced tables "
                                  "exceed the scan cap")
    if total > cap:
        raise CapExceeded(f"{total} balanced tables exceed the scan cap")
    return total


def scan_pp_degree_bound(field: Field, n: int, cap: int | None = None,
                         table_cap: int | None = None) -> VerifyReport:
    """Interpolate every balanced table of F_q^n and confirm the degree
    bound n(q-1)-1; reports the PP count and the degree histogram.

    ``cap`` overrides the point cap, ``table_cap`` the balanced-table cap.
    """
    t0 = time.perf_counter()
    _need_a_variable(n)
    q = field.q
    size = _check_points(field, n, cap)
    total = _balanced_count(size, size // q, scan_cap(table_cap))
    bound = n * (q - 1) - 1
    tables = np.stack([t.copy() for t in _balanced_tables(q, n)])
    # interpolate all tables at once, one coefficient row per table
    coeffs = _transform(field, tables.T.reshape((q,) * n + (total,)),
                        True, n).reshape(total, size)
    degsum = np.indices((q,) * n).sum(axis=0).reshape(-1)
    degs = np.where(coeffs != 0, degsum, -1).max(axis=1)
    hist = {int(d): int(c) for d, c in
            zip(*np.unique(degs, return_counts=True))}
    detail = {"tables": int(total), "pp_count": int(total),
              "max_degree": int(degs.max()), "bound": bound,
              "degree_histogram": hist}
    bad = np.flatnonzero(degs > bound)
    if bad.size == 0:
        return _finish(VerifyReport("SCAN", True, detail=detail),
                       total * size, t0)
    i = int(bad[0])
    witness = {"table": [int(v) for v in tables[i]], "degree": int(degs[i]),
               "bound": bound}
    return _finish(VerifyReport("SCAN", False, witness, detail=detail),
                   total * size, t0)


def lemma_sums(field: Field, tables: np.ndarray) -> np.ndarray:
    """The (2, count) array of sum(alpha_a) and sum(a * alpha_a) for each
    row alpha of ``tables`` (count, q); ranks add digit by digit mod p."""
    p, place = field.p, field.p_pows
    pair = np.stack([tables, field.mul_t[np.arange(field.q), tables]])
    return (pair[..., None] // place % p).sum(axis=2) % p @ place


def check_lemma_deg(field: Field) -> VerifyReport:
    """Lemma 4.5, exactly at every q: the interpolant of the values alpha_a
    at the points a has degree q-2 iff sum(alpha_a) = 0 and
    sum(a * alpha_a) != 0.

    Interpolation is linear, so coefficient e of alpha's interpolant is
    sum_a L[e, a] * alpha_a for the interpolation matrix L of
    ``mvpoly._dense_matrix``, and for e >= 1 L is the power table
    reflected and negated, L[e, a] = -a^(q-1-e).  So row q-1 is all
    -a^0 = -1 and row q-2 is -a, c_(q-1) = -sum(alpha_a) and c_(q-2) =
    -sum(a * alpha_a) for all q^q tables, and the lemma follows.
    For q >= 3 the check reads these 2q entries (detail {"mode": "exact"});
    a failure names the first (row, rank) that differs.  At q = 2 row q-2
    is row 0, the indicator 1 + a of a = 0, so q = 2 rests on the
    enumeration of all q^q tables, which runs as a cross-check for q <= 5
    (detail {"mode": "exhaustive"}): it interpolates every table in full
    and reads coefficients q-2 and q-1.
    """
    t0 = time.perf_counter()
    q = field.q
    detail, witness, points = {"mode": "exact"}, None, 2 * q
    got = _dense_matrix(field, True)[q - 2:]
    want = np.stack([field.neg_t, np.full(q, field.neg_t[1])])
    bad = np.argwhere(got != want) if q >= 3 else ()
    if len(bad):
        i, a = bad[0].tolist()
        witness = {"row": q - 2 + i, "rank": a, "entry": int(got[i, a]),
                   "expected": int(want[i, a])}
    elif q <= 5:
        tables = np.array(list(itertools.product(range(q), repeat=q)),
                          dtype=np.int64)
        # coefficients q-2 and q-1 of every table's interpolant
        low, top = _transform(field, tables.T, True, 1)[:, q - 2:].T
        # degree q-2 iff the x^{q-1} coefficient vanishes and x^{q-2}'s not
        is_deg = (top == 0) & (low != 0)
        sum_alpha, sum_a_alpha = lemma_sums(field, tables)
        criterion = (sum_alpha == 0) & (sum_a_alpha != 0)
        agree = is_deg == criterion
        detail = {"checked": len(tables),
                  "degree_q_minus_2": int(np.count_nonzero(is_deg)),
                  "mode": "exhaustive"}
        points = len(tables) * q
        if not agree.all():
            i = int(np.argmin(agree))
            witness = {"table": [int(v) for v in tables[i]],
                       "degree_is_q_minus_2": bool(is_deg[i]),
                       "criterion_holds": bool(criterion[i])}
    return _finish(VerifyReport("IDENTITY", witness is None, witness,
                                detail=detail), points, t0)


def check_identities(field: Field) -> VerifyReport:
    """Exact reduced-polynomial identities tying h, hbar and t together:
    h(x^{q-2}) = hbar, hbar(t(x)) = hbar, and t equals the interpolated
    transposition of 0 and 1."""
    t0 = time.perf_counter()
    q = field.q
    h, hbar = h_polys(field)
    t = t_poly(field)
    inv_mono = monomial(field, 1, (q - 2,))
    checks = {
        "h_of_inverse_power": compose_univariate(h, inv_mono) == hbar,
        "hbar_of_t": compose_univariate(hbar, t) == hbar,
        "t_is_transposition": t == transposition(field, 0, 1),
    }
    failed = [k for k, v in checks.items() if not v]
    witness = None if not failed else {"failed": failed}
    return _finish(VerifyReport("IDENTITY", not failed, witness,
                                detail={k: bool(v) for k, v in checks.items()}),
                   3 * q, t0)


def conjecture_fn(field: Field, n: int) -> VerifyReport:
    """Build the chain recurrence f_n and compare its degree to n(q-2).
    Evidence only: the result is labeled accordingly and never asserted;
    lpp_chain refuses an n over the point cap before it builds anything."""
    from .constructions import lpp_chain
    t0 = time.perf_counter()
    q = field.q
    if field.p == 2 or q <= 3:
        raise UnsupportedField("the conjecture concerns odd q > 3")
    f = lpp_chain(field, n)
    expected = n * (q - 2)
    measured = lead_degree(f.leading_terms(expected))
    detail = {"measured": measured, "expected": expected}
    witness = None if measured == expected else detail.copy()
    return _finish(VerifyReport("CONJECTURE", measured == expected, witness,
                                label="conjecture evidence", detail=detail),
                   q**n, t0)
