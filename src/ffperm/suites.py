"""Named verification suites: one row per (family, q, n) cell.

Each suite bundles the cells a family's degree/permutation claims cover,
runs the exhaustive checks, and reports rows that the CLI prints and the
test suite asserts.  Rows labeled "theorem" gate the exit code; rows
labeled "conjecture evidence" never do.  Cells whose workload exceeds a cap
are reported as skipped, not failed.
"""

from dataclasses import dataclass, field as dc_field
from math import factorial

from . import constructions as cons
from . import verify as vf
from .errors import CapExceeded, UnsupportedField
from .gf import Field, make_field
from .mvpoly import lead_degree, to_table

SUITE_NAMES = ("prop3.1", "thm3.2", "remark3", "thm4.1", "thm4.3", "thm4.4",
               "lemma2.2", "lemma4.5", "thm5.2", "thm5.3", "thm5.4",
               "conjecture")


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


def _verdict(report: vf.VerifyReport) -> str:
    return "pass" if report.ok else "fail"


def _family_row(suite: str, family: str, builder, field: Field, n: int,
                expected_deg: int, gate_pp: bool = False,
                gate_lpp: bool = False, gate_deg: bool = True,
                extra_check=None, label: str = "theorem") -> Row:
    """Build one family cell, measure, and verify the gated claims.
    extra_check, if given, gets the leading terms and returns an error
    message or None."""
    row = Row(suite, family, field.q, n, expected_deg, label=label)
    try:
        f = builder()
        tbl = to_table(f)  # cached on f; all checks below reuse it
    except CapExceeded as e:
        row.status = "skipped"
        row.reason = f"cap: {e}"
        return row
    # the expected degree keeps the readout to the corner that holds it
    lead = f.leading_terms(expected_deg or 0)
    row.measured_deg = lead_degree(lead)
    pp_rep = vf.is_pp(f)
    row.pp = _verdict(pp_rep)
    lpp_rep = vf.is_lpp(f)
    row.lpp = _verdict(lpp_rep)
    failures = []
    if expected_deg is not None and gate_deg and row.measured_deg != expected_deg:
        failures.append(f"degree {row.measured_deg} != {expected_deg}")
    if gate_pp and not pp_rep.ok:
        failures.append("not a PP")
    if gate_lpp and not lpp_rep.ok:
        failures.append("not an LPP")
    if extra_check is not None:
        err = extra_check(lead)
        if err:
            failures.append(err)
    if failures:
        row.status = "fail"
        row.reason = "; ".join(failures)
    return row


def _grid(cells, override):
    """Replace a default (p, r, n) grid with the user's single cell."""
    if override is None:
        return list(cells)
    p, r, n = override
    return [(p, r, n)] if n is not None else [(p, r, c[2]) for c in cells
                                              if (c[0], c[1]) == (p, r)] or [(p, r, cells[0][2])]


# ---------------------------------------------------------------------------
# individual suites

def suite_thm32(override=None) -> list[Row]:
    cells = [(p, r, n)
             for p, r in ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
             for n in (1, 2, 3)]
    cells.append((5, 1, 4))
    rows = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        rows.append(_family_row("thm3.2", "pp_hn",
                                lambda f=field, m=n: cons.pp_hn(f, m),
                                field, n, n * (q - 1) - 1, gate_pp=True))
    return rows


def suite_remark3(override=None) -> list[Row]:
    rows = []

    def cell(family, p, r, n, expected, builder):
        field = make_field(p, r)
        if override is not None:
            op, orr, on = override
            if (op, orr) != (p, r) or (on is not None and on != n):
                return
        rows.append(_family_row("remark3", family, builder, field, n,
                                expected, gate_pp=True))

    for p, r in ((3, 1), (5, 1), (7, 1), (3, 2)):
        q = p**r
        for n in (2, 3):
            cell("pp_monomial", p, r, n, n * (q - 1) - 1,
                 lambda f=make_field(p, r), m=n: cons.pp_monomial(f, m))
    for n in (1, 2, 3):
        cell("pp_alpha4", 2, 2, n, 3 * n - 1,
             lambda f=make_field(2, 2), m=n: cons.pp_alpha4(f, m))
    for n in (1, 2):
        cell("pp_dickson", 2, 4, n, n * 15 - 1,
             lambda f=make_field(2, 4), m=n: cons.pp_dickson(f, m))
    # product families: row n is the construction parameter; the polynomial
    # itself has n + 1 variables (x_1 .. x_n, y)
    for p, r in ((5, 1), (3, 2)):
        q = p**r
        for n in (1, 2):
            cell("pp_qnr", p, r, n, (n + 1) * (q - 1) - 1,
                 lambda f=make_field(p, r), m=n: cons.pp_product(f, m, "QNR"))
    cell("pp_noncube", 2, 4, 1, 29,
         lambda: cons.pp_product(make_field(2, 4), 1, "NONCUBE"))
    for n in (1, 2):
        cell("pp_mersenne", 2, 3, n, (n + 1) * 7 - 1,
             lambda m=n: cons.pp_product(make_field(2, 3), m, "MERSENNE"))
    return rows


def suite_prop31(override=None) -> list[Row]:
    cells = [(2, 1, 2), (2, 1, 3), (3, 1, 2)]
    rows = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        row = Row("prop3.1", "scan", q, n, n * (q - 1) - 1)
        try:
            rep = vf.scan_pp_degree_bound(field, n)
        except CapExceeded as e:
            row.status = "skipped"
            row.reason = f"cap: {e}"
            rows.append(row)
            continue
        row.measured_deg = rep.detail["max_degree"]
        row.extra = rep.detail
        if not rep.ok:
            row.status = "fail"
            row.reason = "degree bound violated"
        rows.append(row)
    return rows


def suite_thm41(override=None) -> list[Row]:
    cells = [(2, r, n) for r in (2, 3, 4) for n in (1, 2, 3)]
    rows = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        rows.append(_family_row("thm4.1", "lpp_beta",
                                lambda f=field, m=n: cons.lpp_beta(f, m),
                                field, n, n * (q - 2), gate_lpp=True))
    return rows


def suite_thm43(override=None) -> list[Row]:
    cells = [(5, 3, 1), (7, 5, 1), (11, 3, 1)]
    rows = []
    for q, b, k in cells:
        if override is not None and override[0] != q:
            continue
        field = make_field(q, 1)
        nvars = b**k
        lead_coeff = pow(factorial(b) % q, (b**k - 1) // (b - 1), q)

        def check_lead(leads, want=lead_coeff, e=(q - 2,) * nvars):
            if [(e, want)] != leads:
                return f"leading terms {leads} != [({e}, {want})]"
            return None

        row = _family_row("thm4.3", "lpp_power",
                          lambda f=field, bb=b, kk=k: cons.lpp_power(f, bb, kk),
                          field, nvars, nvars * (q - 2), gate_lpp=True,
                          extra_check=check_lead)
        row.extra = {"b": b, "k": k, "leading_coeff": lead_coeff}
        rows.append(row)
        if row.status != "pass":
            continue
        rest = Row("thm4.3", "lpp_restrict", q, nvars - 1,
                   (nvars - 1) * (q - 2))
        try:
            g = cons.lpp_restrict(cons.lpp_power(field, b, k))
            rest.measured_deg = lead_degree(g.leading_terms(rest.expected_deg))
            rest.pp = _verdict(vf.is_pp(g))
            rest.lpp = _verdict(vf.is_lpp(g))
            if rest.measured_deg != rest.expected_deg or rest.lpp != "pass":
                rest.status = "fail"
                rest.reason = "restriction lost the maximum degree"
        except CapExceeded as e:
            rest.status = "skipped"
            rest.reason = f"cap: {e}"
        rows.append(rest)
    return rows


def suite_thm44(override=None) -> list[Row]:
    cells = [(3, 2, 2), (5, 2, 2), (3, 3, 2), (3, 2, 3)]
    rows = []
    seen_fields = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        rows.append(_family_row("thm4.4", "lpp_indicator",
                                lambda f=field, m=n: cons.lpp_indicator(f, m),
                                field, n, n * (q - 2), gate_lpp=True))
        if field.r >= 2 and field not in seen_fields:
            seen_fields.append(field)
    for field in seen_fields:
        q = field.q
        row = Row("thm4.4", "indicator_p", q, 1, q - 2)
        ind = cons.indicator_poly(field)
        row.measured_deg = lead_degree(ind.leading_terms(q - 2))
        vals = to_table(ind).values
        s_alpha, s_a_alpha = 0, 0
        for a in field.elements():
            s_alpha = field.add(s_alpha, int(vals[a]))
            s_a_alpha = field.add(s_a_alpha, field.mul(a, int(vals[a])))
        crit = s_alpha == 0 and s_a_alpha != 0
        row.extra = {"sum_alpha": s_alpha, "sum_a_alpha": s_a_alpha,
                     "criterion": crit}
        if row.measured_deg != q - 2 or not crit:
            row.status = "fail"
            row.reason = "indicator degree criterion failed"
        rows.append(row)
    return rows


def suite_lemma22(override=None) -> list[Row]:
    cells = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (2, 4)]
    rows = []
    for p, r in cells if override is None else [override[:2]]:
        field = make_field(p, r)
        rep = vf.check_identities(field)
        row = Row("lemma2.2", "identities", field.q, 1)
        if not rep.ok:
            row.status = "fail"
            row.reason = str(rep.witness)
        rows.append(row)
    return rows


def suite_lemma45(override=None) -> list[Row]:
    cells = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    rows = []
    for p, r in cells if override is None else [override[:2]]:
        field = make_field(p, r)
        rep = vf.check_lemma_deg(field, trials=10_000, seed=0)
        row = Row("lemma4.5", "degree_criterion", field.q, 1,
                  extra=rep.detail)
        if not rep.ok:
            row.status = "fail"
            row.reason = str(rep.witness)
        rows.append(row)
    return rows


def suite_thm52(override=None) -> list[Row]:
    cells = [(5, 1, 2), (7, 1, 2), (3, 2, 2), (11, 1, 2)]
    rows = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        rows.append(_family_row("thm5.2", "lpp_chain",
                                lambda f=field: cons.lpp_chain(f, 2),
                                field, 2, 2 * (q - 2)))
    return rows


def suite_thm53(override=None) -> list[Row]:
    rows = []
    for p, r in ((5, 1), (7, 1), (3, 2)) if override is None else [override[:2]]:
        field = make_field(p, r)
        q = field.q

        def check_lead(got, fld=field, qq=q):
            want = [((qq - 2,) * 3, fld.from_int(-4))]
            if got != want:
                return f"leading terms {got} != {want}"
            return None

        rows.append(_family_row("thm5.3", "lpp_chain",
                                lambda f=field: cons.lpp_chain(f, 3),
                                field, 3, 3 * (q - 2), gate_lpp=True,
                                extra_check=check_lead))
    if override is None or override[:2] == (5, 1):
        field = make_field(5, 1)
        rows.append(_family_row("thm5.3", "lpp_chain",
                                lambda f=field: cons.lpp_chain(f, 4),
                                field, 4, 4 * 3))
    return rows


def suite_thm54(override=None) -> list[Row]:
    plan = [("lpp_3var_a", "A", ((5, 1), (7, 1))),
            ("lpp_3var_b", "B", ((3, 2), (3, 3))),
            ("lpp_3var_c", "C", ((2, 2), (2, 3), (2, 4)))]
    rows = []
    for family, variant, cells in plan:
        for p, r in cells if override is None else [override[:2]]:
            field = make_field(p, r)
            q = field.q
            try:
                rows.append(_family_row(
                    "thm5.4", family,
                    lambda f=field, v=variant: cons.lpp_three(f, v),
                    field, 3, 3 * (q - 2), gate_lpp=True))
            except UnsupportedField:
                # under an override, run only the variants this field admits
                if override is None:
                    raise
    return rows


def suite_conjecture(override=None) -> list[Row]:
    cells = [(5, 1, 5), (7, 1, 4)]
    rows = []
    for p, r, n in _grid(cells, override):
        field = make_field(p, r)
        q = field.q
        row = Row("conjecture", "lpp_chain", q, n, n * (q - 2),
                  label="conjecture evidence")
        try:
            rep = vf.conjecture_fn(field, n)
        except CapExceeded as e:
            row.status = "skipped"
            row.reason = f"cap: {e}"
            rows.append(row)
            continue
        row.measured_deg = rep.detail["measured"]
        row.status = "pass" if rep.ok else "fail"
        rows.append(row)
    return rows


_RUNNERS = {
    "prop3.1": suite_prop31,
    "thm3.2": suite_thm32,
    "remark3": suite_remark3,
    "thm4.1": suite_thm41,
    "thm4.3": suite_thm43,
    "thm4.4": suite_thm44,
    "lemma2.2": suite_lemma22,
    "lemma4.5": suite_lemma45,
    "thm5.2": suite_thm52,
    "thm5.3": suite_thm53,
    "thm5.4": suite_thm54,
    "conjecture": suite_conjecture,
}


def run_suite(name: str, override=None) -> list[Row]:
    """Run one named suite; override = (p, r, n|None) restricts the grid."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _RUNNERS[name](override)


def run_all() -> list[Row]:
    rows = []
    for name in SUITE_NAMES:
        rows.extend(run_suite(name))
    return rows
