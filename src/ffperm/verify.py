"""Exhaustive verification of permutation properties, degree bounds and the
supporting identities, with machine-checkable reports."""

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .caps import scan_cap
from .constructions import h_polys, lpp_chain, t_poly, transposition
from .errors import CapExceeded, UnsupportedField
from .gf import Field, exact_int
from .mvpoly import (MultiPoly, _check_points, _dense_matrix, _exponents,
                     _lead_degree, _transform, compose_univariate, monomial)


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


def preimage_counts(f: MultiPoly) -> dict[int, int]:
    """Map each field element to its number of preimages under f."""
    counts = np.bincount(f._values(), minlength=f.field.q)
    return {int(a): int(c) for a, c in enumerate(counts)}


def is_pp(f: MultiPoly) -> VerifyReport:
    """Pass iff every value has exactly q^(n-1) preimages."""
    t0 = time.perf_counter()
    q, n = f.field.q, f.n
    counts = np.bincount(f._values(1), minlength=q)
    want = q ** (n - 1)
    bad = np.flatnonzero(counts != want)
    if bad.size == 0:
        return _finish(VerifyReport("PP", True), q**n, t0)
    # witness: the most over-represented value (lowest rank on ties), so a
    # constant polynomial reports its value with count q^n
    v = int(bad[np.argmax(counts[bad])])
    witness = {"value": v, "count": int(counts[v]), "expected": want}
    return _finish(VerifyReport("PP", False, witness), q**n, t0)


def is_lpp(f: MultiPoly) -> VerifyReport:
    """Pass iff fixing any n-1 variables leaves a univariate bijection.

    The scan walks coordinates in order and assignments in rank order, so a
    failing report always carries the lowest-rank witness: the coordinate
    (1-based), the assignment to the other variables, and a colliding pair.
    """
    t0 = time.perf_counter()
    q, n = f.field.q, f.n
    tbl = f._values(1)
    axis, lo, hi = _kernels.lpp_scan(tbl, n, q)
    if axis < 0:
        return _finish(VerifyReport("LPP", True), q**n, t0)
    R = q ** (n - 1 - axis)
    row = tbl[lo * q * R + hi::R][:q]
    # the first point whose value came earlier, and where it came first
    _, first, which = np.unique(row, return_index=True, return_inverse=True)
    a = int(np.flatnonzero(first[which] != np.arange(q))[0])
    assignment = _exponents(np.array([lo * R + hi]),
                            (q,) * (n - 1))[0].tolist()
    witness = {
        "coordinate": axis + 1,
        "assignment": assignment,
        "colliding": [int(first[which[a]]), a],
        "value": int(row[a]),
    }
    return _finish(VerifyReport("LPP", False, witness), q**n, t0)


def assert_degree(f: MultiPoly, expected: int) -> VerifyReport:
    """Compare the total degree against expected; always reports the leading
    terms so coefficient claims can be read off.

    One ``f.leading_terms()`` call gives both; expected plays no part in
    reading them (a PP of degree n(q-1)-1 is found in the 2^n top corner
    of a large tensor).  The zero polynomial measures -1."""
    t0 = time.perf_counter()
    expected = exact_int(expected, "expected degree")
    lead = f.leading_terms()
    total = _lead_degree(lead)
    leading = [{"exps": list(e), "coeff": f.field.coeffs_of(c)}
               for e, c in lead]
    detail = {"measured": total, "expected": expected,
              "leading_terms": leading}
    ok = total == expected
    witness = None if ok else {"measured": total, "expected": expected}
    return _finish(VerifyReport("DEGREE", ok, witness, detail=detail), 0, t0)


def _combinations(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) in lexicographic order, one per row."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    return np.fromiter(flat, np.int64).reshape(-1, k)


def _balanced_tables(q: int, n: int, total: int) -> np.ndarray:
    """Every balanced value table of F_q^n, one per row, in lexicographic
    order; total is their count, as _balanced_count gives it.

    Value v takes part = q^(n-1) of the positions the values below it left
    free, as a combination of their relative indices; the tables are the
    product of those choices, value 0 outermost, and q-1 takes the rest.
    Each value is written into all the rows of a prefix at once, so only
    the free positions of each prefix are held beside the result."""
    size = q**n
    part = size // q
    out = np.full((total, size), q - 1, dtype=np.int64)
    free = np.arange(size)[None]    # one row per prefix: its free positions
    for v in range(q - 1):
        m = free.shape[1]
        chosen = _combinations(m, part)
        rows = len(free) * len(chosen)
        # the flat offset of every row, grouped by prefix
        at = np.arange(0, out.size, size).reshape(rows, -1, 1)
        np.put(out, at + free.take(chosen, axis=1).reshape(rows, 1, part), v)
        # taking complements reverses the lexicographic order
        rest = _combinations(m, m - part)[::-1]
        free = free.take(rest, axis=1).reshape(rows, -1)
    return out


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


def scan_pp_degree_bound(field: Field, n: int) -> VerifyReport:
    """Interpolate every balanced table of F_q^n and confirm the degree
    bound n(q-1)-1; reports the PP count and the degree histogram."""
    t0 = time.perf_counter()
    n = _check_points(field, n, 1)
    q = field.q
    size = q**n
    total = _balanced_count(size, size // q, scan_cap())
    bound = n * (q - 1) - 1
    tables = _balanced_tables(q, n, total)
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
    h(x^{q-2}) = hbar, hbar(t(x)) = hbar, and t's coefficients equal those
    interpolated from the transposition of 0 and 1 (t_poly reads its table
    from that transposition, so comparing tables would test nothing).  At
    q = 2, h is the empty sum and both identities fail, so F_2 raises
    UnsupportedField."""
    t0 = time.perf_counter()
    q = field.q
    if q < 3:
        raise UnsupportedField("Lemma 2.2 needs q >= 3")
    h, hbar = h_polys(field)
    t = t_poly(field)
    inv_mono = monomial(field, 1, (q - 2,))
    checks = {
        "h_of_inverse_power": compose_univariate(h, inv_mono) == hbar,
        "hbar_of_t": compose_univariate(hbar, t) == hbar,
        "t_is_transposition": np.array_equal(
            t.coeffs, transposition(field, 0, 1).coeffs),
    }
    failed = [k for k, v in checks.items() if not v]
    witness = None if not failed else {"failed": failed}
    return _finish(VerifyReport("IDENTITY", not failed, witness,
                                detail={k: bool(v) for k, v in checks.items()}),
                   3 * q, t0)


def conjecture_fn(field: Field, n: int) -> VerifyReport:
    """Build the chain recurrence f_n and compare its degree to n(q-2).
    Evidence only: the result is labeled accordingly and never asserted;
    lpp_chain reads n exactly, as f.n, and refuses an n over the point cap
    before it builds anything."""
    t0 = time.perf_counter()
    q = field.q
    if field.p == 2 or q <= 3:
        raise UnsupportedField("the conjecture concerns odd q > 3")
    f = lpp_chain(field, n)
    expected = f.n * (q - 2)
    measured = f.total_degree
    detail = {"measured": measured, "expected": expected}
    witness = None if measured == expected else detail.copy()
    return _finish(VerifyReport("CONJECTURE", measured == expected, witness,
                                label="conjecture evidence", detail=detail),
                   q**f.n, t0)
