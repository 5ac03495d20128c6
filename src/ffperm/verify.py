"""Exhaustive verification of permutation properties, degree bounds and the
supporting identities, with machine-checkable reports."""

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .caps import scan_cap
from .errors import CapExceeded
from .gf import Field
from .mvpoly import (FuncTable, MultiPoly, _check_points, _transform,
                     compose_univariate, interpolate, monomial, to_table)
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


def _point_of_rank(q: int, n: int, rank: int) -> list[int]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        rank, out[i] = divmod(rank, q)
    return out


def is_lpp(f: MultiPoly, cap: int | None = None) -> VerifyReport:
    """Pass iff fixing any n-1 variables leaves a univariate bijection.

    The scan walks coordinates in order and assignments in rank order, so a
    failing report always carries the lowest-rank witness: the coordinate
    (1-based), the assignment to the other variables, and a colliding pair.
    """
    t0 = time.perf_counter()
    q, n = f.field.q, f.n
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
    assignment = _point_of_rank(q, n - 1, lo * R + hi)
    witness = {
        "coordinate": axis + 1,
        "assignment": assignment,
        "colliding": [pair[0], pair[1]],
        "value": pair[2],
    }
    return _finish(VerifyReport("LPP", False, witness), q**n, t0)


def assert_degree(f: MultiPoly, expected: int) -> VerifyReport:
    """Compare the total degree against expected; always reports the leading
    terms so coefficient claims can be read off."""
    t0 = time.perf_counter()
    total = f.total_degree
    leading = [{"exps": list(e), "coeff": f.field.coeffs_of(c)}
               for e, c in f.leading_terms()]
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
            rest = tuple(i for i in remaining if i not in set(combo))
            yield from fill(rest, v + 1)

    yield from fill(tuple(range(size)), 0)


def scan_pp_degree_bound(field: Field, n: int, cap: int | None = None,
                         table_cap: int | None = None) -> VerifyReport:
    """Interpolate every balanced table of F_q^n and confirm the degree
    bound n(q-1)-1; reports the PP count and the degree histogram.

    ``cap`` overrides the point cap, ``table_cap`` the balanced-table cap.
    """
    t0 = time.perf_counter()
    from math import factorial
    if n < 1:
        raise ValueError("need at least one variable")
    q = field.q
    size = _check_points(field, n, cap)
    total = factorial(size) // factorial(size // q) ** q
    if total > scan_cap(table_cap):
        raise CapExceeded(f"{total} balanced tables exceed the scan cap")
    bound = n * (q - 1) - 1
    tables = np.stack([t.copy() for t in _balanced_tables(q, n)])
    # interpolate all tables at once: shape (q,)*n + (count,)
    tensor = np.ascontiguousarray(tables.T).reshape((q,) * n + (total,))
    coeffs = _transform(field, tensor, field.lagr_t, n).reshape(size, total)
    degsum = np.array([sum(e) for e in itertools.product(range(q), repeat=n)],
                      dtype=np.int64)
    degs = np.where(coeffs != 0, degsum[:, None], -1).max(axis=0)
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


def check_lemma_deg(field: Field, trials: int = 10_000,
                    seed: int = 0) -> VerifyReport:
    """Degree-(q-2) criterion for univariate interpolants: with values
    alpha_i at the rank-ordered points a_i, the degree equals q-2 exactly
    when sum(alpha_i) = 0 and sum(a_i * alpha_i) != 0.

    Exhaustive over all q^q tables when q <= 5, otherwise `trials` seeded
    random tables.
    """
    t0 = time.perf_counter()
    q = field.q
    if q <= 5:
        tables = np.array(list(itertools.product(range(q), repeat=q)),
                          dtype=np.int64)
        mode = {"mode": "exhaustive"}
    else:
        rng = np.random.default_rng(seed)
        tables = rng.integers(0, q, size=(trials, q), dtype=np.int64)
        mode = {"mode": "random", "trials": int(trials), "seed": int(seed)}
    count = tables.shape[0]
    coeffs = _kernels.mat_apply(field.lagr_t, np.ascontiguousarray(tables.T),
                                field.add_t, field.mul_t)
    # degree == q-2 iff the x^{q-1} coefficient vanishes and x^{q-2}'s does not
    is_deg = (coeffs[q - 1] == 0) & (coeffs[q - 2] != 0)
    sum_alpha = np.zeros(count, dtype=np.int64)
    sum_a_alpha = np.zeros(count, dtype=np.int64)
    for a in range(q):
        col = tables[:, a]
        sum_alpha = field.add_t[sum_alpha, col]
        sum_a_alpha = field.add_t[sum_a_alpha, field.mul_t[a, col]]
    criterion = (sum_alpha == 0) & (sum_a_alpha != 0)
    agree = is_deg == criterion
    detail = {"checked": int(count),
              "degree_q_minus_2": int(np.count_nonzero(is_deg)), **mode}
    if bool(agree.all()):
        return _finish(VerifyReport("IDENTITY", True, detail=detail),
                       count * q, t0)
    i = int(np.argmin(agree))
    witness = {"table": [int(v) for v in tables[i]],
               "degree_is_q_minus_2": bool(is_deg[i]),
               "criterion_holds": bool(criterion[i])}
    return _finish(VerifyReport("IDENTITY", False, witness, detail=detail),
                   count * q, t0)


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


def conjecture_fn(field: Field, n: int, cap: int | None = None) -> VerifyReport:
    """Build the chain recurrence f_n and compare its degree to n(q-2).
    Evidence only: the result is labeled accordingly and never asserted."""
    from .constructions import lpp_chain
    from .errors import UnsupportedField
    t0 = time.perf_counter()
    q = field.q
    if field.p == 2 or q <= 3:
        raise UnsupportedField("the conjecture concerns odd q > 3")
    _check_points(field, n, cap)
    f = lpp_chain(field, n)
    measured = f.total_degree
    expected = n * (q - 2)
    detail = {"measured": measured, "expected": expected}
    witness = None if measured == expected else detail.copy()
    return _finish(VerifyReport("CONJECTURE", measured == expected, witness,
                                label="conjecture evidence", detail=detail),
                   q**n, t0)
