"""Named verification suites: one row per (family, q, n) cell.

A suite is data: a list of specs, each a family, its default (p, r, n)
cells and how its rows pass, and one runner turns cells into rows.  A
family row builds its polynomial through `constructions.build_family`,
reads its degree and leading terms, runs the PP and LPP checks, and fails
when the degree differs, the spec's gated verdict fails, or the spec's
leading-term check fails.  The expected degree follows from the family:
(variables)(q-1)-1 for a PP, n(q-2) for an LPP, where the product families
pp_qnr/pp_noncube/pp_mersenne have n+1 variables.  A report row (the
prop3.1 scan, the lemma checks, the thm4.4 indicator criterion and the
conjecture) runs one check function instead.

An override (p, r, n|None) picks, for each family, its default cells on
F_{p^r} (only those with n = N when N is given); a family with no default
cell there gets one cell there, with n = N or its first default n.  Rows
about a field alone (lemma2.2, lemma4.5, the thm4.4 indicator) keep n = 1.
Under an override a family the field does not admit gives no row, and an
override that leaves no row is an error.

Rows labeled "theorem" gate the exit code; rows at a cell no theorem
covers (the conjecture, and lpp_chain beyond thm5.2's n = 2 and thm5.3's
n = 3 and q=5 n=4) are labeled "conjecture evidence" and never do.  Cells
whose workload exceeds a cap are reported as skipped, not failed.
"""

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from math import factorial

from . import constructions as cons
from . import verify as vf
from .errors import CapExceeded, FFPermError, NoValidB, UnsupportedField
from .gf import Field, make_field
from .mvpoly import MultiPoly, _lead_degree


@dataclass
class Row:
    suite: str
    family: str
    q: int
    n: int
    expected_deg: int | None = None
    measured_deg: int | None = None
    pp: str = "-"
    lpp: str = "-"
    label: str = "theorem"
    status: str = "pass"
    reason: str = ""
    extra: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        parts = [f"suite={self.suite}", f"family={self.family}",
                 f"q={self.q}", f"n={self.n}",
                 f"expected_deg={'-' if self.expected_deg is None else self.expected_deg}",
                 f"measured_deg={'-' if self.measured_deg is None else self.measured_deg}",
                 f"pp={self.pp}", f"lpp={self.lpp}"]
        tail = f"{self.label}: {self.status}"
        if self.reason:
            tail += f" ({self.reason})"
        parts.append(tail)
        return " ".join(parts)

    @property
    def gates(self) -> bool:
        return self.label == "theorem" and self.status == "fail"


@dataclass(frozen=True)
class Spec:
    """One family of a suite.  gate names the verdict ("pp" or "lpp") a
    family row must also pass; lead(field, row, params) gives the
    coefficient of the row's only leading term x_1^(q-2)..x_n^(q-2), or
    None where the theorem states none; then, if set, runs on the
    polynomial of a passing row.  report(field, n) makes this a report
    row: it returns (ok, measured degree, extra, reason if not ok).
    proved(q, n), if set, is False at the cells the theorem does not
    cover; their rows are labeled "conjecture evidence"."""
    family: str
    cells: tuple
    gate: str | None = None
    lead: Callable | None = None
    then: "Spec | None" = None
    report: Callable | None = None
    proved: Callable | None = None


_PRODUCTS = ("pp_qnr", "pp_noncube", "pp_mersenne")
_FIELD_ONLY = ("identities", "degree_criterion", "indicator_p")


def _expected(family: str, q: int, n: int) -> int | None:
    if family in ("identities", "degree_criterion"):
        return None
    if family.startswith("lpp") or family == "indicator_p":
        return n * (q - 2)
    return (n + (family in _PRODUCTS)) * (q - 1) - 1


def _verdict(report: vf.VerifyReport) -> str:
    return "pass" if report.ok else "fail"


def _build(spec: Spec, field: Field, n: int, prev: MultiPoly | None):
    """The row's polynomial and its build parameters: the family member,
    or for lpp_restrict the restriction of the previous row's polynomial.
    The suites' power cells take k = 1, so b = n."""
    if spec.family == "lpp_restrict":
        return cons.lpp_restrict(prev), {}
    if spec.family != "lpp_power":
        return cons.build_family(spec.family, field, n=n)
    try:
        return cons.build_family(spec.family, field, n=n, b=n)
    except NoValidB as e:
        # an override's n is the block size, so name the n this field admits
        fits = cons.block_sizes(field)
        hint = (f"try --n {fits[0]}" if fits
                else f"no n fits 1 < n < {field.p - 1}")
        raise NoValidB(f"{e}: {spec.family} cells take b = n; on "
                       f"F_{field.q} {hint}") from e


def _fill(row: Row, spec: Spec, field: Field, prev: MultiPoly | None):
    """Run one row's checks into it; returns the polynomial it checked
    (None for a report row)."""
    if spec.report is not None:
        ok, row.measured_deg, row.extra, reason = spec.report(field, row.n)
        if not ok:
            row.status, row.reason = "fail", reason
        return None
    f, params = _build(spec, field, row.n, prev)
    lead = f.leading_terms()
    row.measured_deg = _lead_degree(lead)
    pp_rep, lpp_rep = vf.is_pp(f), vf.is_lpp(f)
    row.pp, row.lpp = _verdict(pp_rep), _verdict(lpp_rep)
    failures = []
    if row.measured_deg != row.expected_deg:
        failures.append(f"degree {row.measured_deg} != {row.expected_deg}")
    if spec.gate == "pp" and not pp_rep.ok:
        failures.append("not a PP")
    if spec.gate == "lpp" and not lpp_rep.ok:
        failures.append("not an LPP")
    coeff = None if spec.lead is None else spec.lead(field, row, params)
    if coeff is not None:
        want = [((field.q - 2,) * row.n, coeff)]
        if lead != want:
            failures.append(f"leading terms {lead} != {want}")
    if failures:
        row.status, row.reason = "fail", "; ".join(failures)
    return f


# ---------------------------------------------------------------------------
# leading coefficients and report rows

def _power_lead(field: Field, row: Row, params: dict) -> int:
    """Theorem 4.3: (b!)^((b^k - 1)/(b - 1)), recorded with b and k."""
    b, k = params["b"], params["k"]
    c = field.pow(field.from_int(factorial(b)), (b**k - 1) // (b - 1))
    row.extra = {**params, "leading_coeff": c}
    return c


def _chain_lead(field: Field, row: Row, params: dict) -> int | None:
    """Theorem 5.3: f_3 leads with -4 x_1^(q-2) x_2^(q-2) x_3^(q-2); it
    states no coefficient for other n."""
    return field.from_int(-4) if row.n == 3 else None


def _scan(field: Field, n: int):
    rep = vf.scan_pp_degree_bound(field, n)
    return (rep.ok, rep.detail["max_degree"], rep.detail,
            "degree bound violated")


def _identities(field: Field, n: int):
    rep = vf.check_identities(field)
    return rep.ok, None, {}, str(rep.witness)


def _degree_criterion(field: Field, n: int):
    rep = vf.check_lemma_deg(field)
    return rep.ok, None, rep.detail, str(rep.witness)


def _indicator(field: Field, n: int):
    """The thm4.4 indicator has degree q-2, and its values meet Lemma 4.5's
    criterion: they sum to 0 while their sum weighted by a does not."""
    q = field.q
    ind = cons.indicator_poly(field)
    measured = ind.total_degree
    vals = ind._values()[None]
    s_alpha, s_a_alpha = vf.lemma_sums(field, vals)[:, 0].tolist()
    crit = s_alpha == 0 and s_a_alpha != 0
    extra = {"sum_alpha": s_alpha, "sum_a_alpha": s_a_alpha,
             "criterion": crit}
    return (measured == q - 2 and crit, measured, extra,
            "indicator degree criterion failed")


def _conjecture(field: Field, n: int):
    rep = vf.conjecture_fn(field, n)
    return rep.ok, rep.detail["measured"], {}, ""


# ---------------------------------------------------------------------------
# the suites

def _cells(fields, ns) -> tuple:
    return tuple((p, r, n) for p, r in fields for n in ns)


_SMALL = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))

SUITES = {
    "prop3.1": [Spec("scan", ((2, 1, 2), (2, 1, 3), (3, 1, 2)),
                     report=_scan)],
    "thm3.2": [Spec("pp_hn", _cells(_SMALL, (1, 2, 3)) + ((5, 1, 4),),
                    gate="pp")],
    "remark3": [
        Spec("pp_monomial", _cells(((3, 1), (5, 1), (7, 1), (3, 2)), (2, 3)),
             gate="pp"),
        Spec("pp_alpha4", _cells(((2, 2),), (1, 2, 3)), gate="pp"),
        Spec("pp_dickson", _cells(((2, 4),), (1, 2)), gate="pp"),
        Spec("pp_qnr", _cells(((5, 1), (3, 2)), (1, 2)), gate="pp"),
        Spec("pp_noncube", ((2, 4, 1),), gate="pp"),
        Spec("pp_mersenne", _cells(((2, 3),), (1, 2)), gate="pp"),
    ],
    "thm4.1": [Spec("lpp_beta", _cells(((2, 2), (2, 3), (2, 4)), (1, 2, 3)),
                    gate="lpp")],
    "thm4.3": [Spec("lpp_power", ((5, 1, 3), (7, 1, 5), (11, 1, 3)),
                    gate="lpp", lead=_power_lead,
                    then=Spec("lpp_restrict", (), gate="lpp"))],
    "thm4.4": [
        Spec("lpp_indicator", ((3, 2, 2), (5, 2, 2), (3, 3, 2), (3, 2, 3)),
             gate="lpp"),
        Spec("indicator_p", _cells(((3, 2), (5, 2), (3, 3)), (1,)),
             report=_indicator),
    ],
    "lemma2.2": [Spec("identities",
                      _cells(_SMALL + ((11, 1), (2, 4)), (1,)),
                      report=_identities)],
    "lemma4.5": [Spec("degree_criterion", _cells(_SMALL, (1,)),
                      report=_degree_criterion)],
    "thm5.2": [Spec("lpp_chain", _cells(((5, 1), (7, 1), (3, 2), (11, 1)),
                                        (2,)),
                    proved=lambda q, n: n == 2)],
    "thm5.3": [
        Spec("lpp_chain", _cells(((5, 1), (7, 1), (3, 2)), (3,)),
             gate="lpp", lead=_chain_lead, proved=lambda q, n: n == 3),
        Spec("lpp_chain", ((5, 1, 4),), proved=lambda q, n: (q, n) == (5, 4)),
    ],
    "thm5.4": [
        Spec("lpp_3var_a", _cells(((5, 1), (7, 1)), (3,)), gate="lpp"),
        Spec("lpp_3var_b", _cells(((3, 2), (3, 3)), (3,)), gate="lpp"),
        Spec("lpp_3var_c", _cells(((2, 2), (2, 3), (2, 4)), (3,)),
             gate="lpp"),
    ],
    "conjecture": [Spec("lpp_chain", ((5, 1, 5), (7, 1, 4)),
                        report=_conjecture, proved=lambda q, n: False)],
}

SUITE_NAMES = tuple(SUITES)


def _plan(specs: list[Spec], override) -> list[tuple]:
    """(spec, p, r, n) for every cell to run: the defaults, or the cells
    an override picks (see the module docstring)."""
    cells = [(s, *c) for s in specs for c in s.cells]
    if override is None:
        return cells
    p, r, n = override
    plan = []
    for family in dict.fromkeys(s.family for s in specs):
        # a family's cells may span specs (thm5.3 gates n=3, not n=4)
        mine = [c for c in cells if c[0].family == family]
        if n is not None and family not in _FIELD_ONLY:
            mine = ([c for c in mine if c[3] == n]
                    or [(mine[0][0], p, r, n)])
        plan += ([c for c in mine if c[1:3] == (p, r)]
                 or [(mine[0][0], p, r, mine[0][3])])
    return plan


def run_suite(name: str, override=None) -> list[Row]:
    """Run one named suite; override = (p, r, n|None) restricts it to one
    field (see the module docstring)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    rows, refused = [], []
    for spec, p, r, n in _plan(SUITES[name], override):
        field = make_field(p, r)
        f = None
        while spec is not None:
            proved = spec.proved is None or spec.proved(field.q, n)
            row = Row(name, spec.family, field.q, n,
                      _expected(spec.family, field.q, n),
                      label="theorem" if proved else "conjecture evidence")
            try:
                f = _fill(row, spec, field, f)
            except CapExceeded as e:
                row.status, row.reason = "skipped", f"cap: {e}"
            except UnsupportedField as e:
                if override is None:
                    raise
                refused.append(f"{spec.family}: {e}")
                break
            rows.append(row)
            if row.status != "pass":
                break
            # the follow-up row restricts f, dropping one variable
            spec, n = spec.then, n - 1
    if not rows:
        p, r, n = override
        where = f"F_{p**r}" + ("" if n is None else f" with n={n}")
        raise FFPermError(f"suite {name} has no row on {where} "
                          f"({'; '.join(refused)})")
    return rows


def run_all() -> list[Row]:
    rows = []
    for name in SUITE_NAMES:
        rows.extend(run_suite(name))
    return rows
