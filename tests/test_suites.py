"""Suite rows gate the claims they check, and their output is pinned."""

import hashlib

import pytest

from ffperm import cli, make_field, suites
from ffperm import constructions as cons
from ffperm.mvpoly import monomial, poly_build


def test_thm54_gates_variant_c_on_lpp(monkeypatch):
    # a variant C that stops being an LPP must fail its row, not just print
    # lpp=fail next to "theorem: pass"
    real = cons.lpp_three

    def spoiled(field, variant):
        f = real(field, variant)
        if variant.upper() == "C" and field.q == 16:
            f = f + monomial(field, 3, (1, 1, 0))
        return f

    monkeypatch.setattr(cons, "lpp_three", spoiled)
    rows = suites.run_suite("thm5.4")
    [row] = [r for r in rows if r.family == "lpp_3var_c" and r.q == 16]
    assert row.lpp == "fail"
    assert "theorem: fail" in row.line()
    assert "not an LPP" in row.reason
    assert row.gates


def test_failing_pp_and_report_rows_gate(monkeypatch):
    # a PP-gated row whose polynomial has the expected degree but is no PP,
    # and a report row whose check fails
    field = make_field(3)
    not_pp = poly_build(field, 2, [((2, 1), 1)])          # x1^2 x2
    monkeypatch.setattr(cons, "build_family", lambda *a, **k: (not_pp, {}))
    row = suites.Row("thm3.2", "pp_hn", 3, 2, 3)
    assert suites._fill(row, suites.Spec("pp_hn", (), gate="pp"), field,
                        None) is not_pp
    assert (row.measured_deg, row.pp, row.lpp) == (3, "fail", "fail")
    assert (row.status, row.reason, row.gates) == ("fail", "not a PP", True)

    def report(field, n):
        return False, 7, {"seen": n}, "check failed"

    row = suites.Row("lemma2.2", "identities", 3, 1)
    assert suites._fill(row, suites.Spec("identities", (), report=report),
                        field, None) is None
    assert (row.measured_deg, row.extra) == (7, {"seen": 1})
    assert (row.status, row.reason, row.gates) == ("fail", "check failed",
                                                   True)
    assert row.line().endswith("theorem: fail (check failed)")
    row.label = "conjecture evidence"
    assert not row.gates


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError) as err:
        suites.run_suite("nope")
    assert str(err.value) == (f"unknown suite 'nope'; choose from "
                              f"{suites.SUITE_NAMES}")


def test_thm53_checks_the_leading_coefficient_of_f3_only(monkeypatch):
    # Theorem 5.3 states the coefficient -4 for f_3 alone: a doubled chain
    # fails the n=3 row, and rows at other n check only the degree
    real = cons.lpp_chain

    def doubled(field, n):
        f = real(field, n)
        return f + f

    [row] = suites.run_suite("thm5.3", (7, 1, 5))
    assert row.status == "pass"
    monkeypatch.setattr(cons, "lpp_chain", doubled)
    rows = suites.run_suite("thm5.3", (5, 1, None))
    assert [(r.n, r.status) for r in rows] == [(3, "fail"), (4, "pass")]
    assert rows[0].reason.startswith("leading terms")
    assert rows[0].gates


def test_chain_rows_the_theorems_do_not_state_never_gate(monkeypatch, capsys):
    # Theorems 5.2 and 5.3 state f_2, f_3 and f_4 over F_5 only: a degree
    # miss elsewhere is a failed conjecture-evidence row, exit 0
    monkeypatch.setattr(cons, "lpp_chain",
                        lambda field, n: monomial(field, n, (1,) * n))
    for args, rc in [("thm5.2 --p 5 --n 5", 0), ("thm5.2 --p 5 --n 2", 1),
                     ("thm5.3 --p 7 --n 4", 0), ("thm5.3 --p 5 --n 4", 1),
                     ("thm5.3 --p 7 --n 3", 1)]:
        got, out, _ = _check(capsys, ["--suite", *args.split()])
        label = "theorem" if rc else "conjecture evidence"
        assert got == rc and f"{label}: fail (degree" in out, args


# -- pinned output ------------------------------------------------------------
# `ffperm check` output recorded before the suites became one table of
# specs; a change to any of it is a change of behaviour.

CHECK_ALL_SHA256 = (
    "516118c836847bc6dcc9abceade5ea31da6e9f6db69f828d3f436291e9334cd4")

# every run_all() row with a non-empty extra; all other rows have {}
PINNED_EXTRAS = {
    ("prop3.1", "scan", 2, 2):
        {"tables": 6, "pp_count": 6, "max_degree": 1, "bound": 1,
         "degree_histogram": {1: 6}},
    ("prop3.1", "scan", 2, 3):
        {"tables": 70, "pp_count": 70, "max_degree": 2, "bound": 2,
         "degree_histogram": {1: 14, 2: 56}},
    ("prop3.1", "scan", 3, 2):
        {"tables": 1680, "pp_count": 1680, "max_degree": 3, "bound": 3,
         "degree_histogram": {1: 24, 2: 144, 3: 1512}},
    ("thm4.3", "lpp_power", 5, 3):
        {"b": 3, "k": 1, "leading_coeff": 1},
    ("thm4.3", "lpp_power", 7, 5):
        {"b": 5, "k": 1, "leading_coeff": 1},
    ("thm4.3", "lpp_power", 11, 3):
        {"b": 3, "k": 1, "leading_coeff": 6},
    ("thm4.4", "indicator_p", 9, 1):
        {"sum_alpha": 0, "sum_a_alpha": 4, "criterion": True},
    ("thm4.4", "indicator_p", 25, 1):
        {"sum_alpha": 0, "sum_a_alpha": 6, "criterion": True},
    ("thm4.4", "indicator_p", 27, 1):
        {"sum_alpha": 0, "sum_a_alpha": 4, "criterion": True},
    ("lemma4.5", "degree_criterion", 3, 1):
        {"checked": 27, "degree_q_minus_2": 6, "mode": "exhaustive"},
    ("lemma4.5", "degree_criterion", 4, 1):
        {"checked": 256, "degree_q_minus_2": 48, "mode": "exhaustive"},
    ("lemma4.5", "degree_criterion", 5, 1):
        {"checked": 3125, "degree_q_minus_2": 500, "mode": "exhaustive"},
    ("lemma4.5", "degree_criterion", 7, 1): {"mode": "exact"},
    ("lemma4.5", "degree_criterion", 8, 1): {"mode": "exact"},
    ("lemma4.5", "degree_criterion", 9, 1): {"mode": "exact"},
}

# `ffperm check --suite ...` overrides: (exit code, stdout lines)
PINNED_OVERRIDES = {
    "thm4.1 --p 2 --r 3 --n 2": (0, [
        "suite=thm4.1 family=lpp_beta q=8 n=2 expected_deg=12 measured_deg=12 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm3.2 --p 11 --n 2": (0, [
        "suite=thm3.2 family=pp_hn q=11 n=2 expected_deg=19 measured_deg=19 pp=pass lpp=fail theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "remark3 --p 5": (0, [
        "suite=remark3 family=pp_monomial q=5 n=2 expected_deg=7 measured_deg=7 pp=pass lpp=fail theorem: pass",
        "suite=remark3 family=pp_monomial q=5 n=3 expected_deg=11 measured_deg=11 pp=pass lpp=fail theorem: pass",
        "suite=remark3 family=pp_qnr q=5 n=1 expected_deg=7 measured_deg=7 pp=pass lpp=fail theorem: pass",
        "suite=remark3 family=pp_qnr q=5 n=2 expected_deg=11 measured_deg=11 pp=pass lpp=fail theorem: pass",
        "rows=4 failed=0 skipped=0",
    ]),
    "remark3 --p 5 --n 2": (0, [
        "suite=remark3 family=pp_monomial q=5 n=2 expected_deg=7 measured_deg=7 pp=pass lpp=fail theorem: pass",
        "suite=remark3 family=pp_qnr q=5 n=2 expected_deg=11 measured_deg=11 pp=pass lpp=fail theorem: pass",
        "rows=2 failed=0 skipped=0",
    ]),
    "thm4.3 --p 7": (0, [
        "suite=thm4.3 family=lpp_power q=7 n=5 expected_deg=25 measured_deg=25 pp=pass lpp=pass theorem: pass",
        "suite=thm4.3 family=lpp_restrict q=7 n=4 expected_deg=20 measured_deg=20 pp=pass lpp=pass theorem: pass",
        "rows=2 failed=0 skipped=0",
    ]),
    "thm4.4 --p 3 --r 2": (0, [
        "suite=thm4.4 family=lpp_indicator q=9 n=2 expected_deg=14 measured_deg=14 pp=pass lpp=pass theorem: pass",
        "suite=thm4.4 family=lpp_indicator q=9 n=3 expected_deg=21 measured_deg=21 pp=pass lpp=pass theorem: pass",
        "suite=thm4.4 family=indicator_p q=9 n=1 expected_deg=7 measured_deg=7 pp=- lpp=- theorem: pass",
        "rows=3 failed=0 skipped=0",
    ]),
    "thm4.4 --p 5 --r 2 --n 3": (0, [
        "suite=thm4.4 family=lpp_indicator q=25 n=3 expected_deg=69 measured_deg=69 pp=pass lpp=pass theorem: pass",
        "suite=thm4.4 family=indicator_p q=25 n=1 expected_deg=23 measured_deg=23 pp=- lpp=- theorem: pass",
        "rows=2 failed=0 skipped=0",
    ]),
    "thm4.4 --p 7": (0, [
        "suite=thm4.4 family=lpp_indicator q=7 n=2 expected_deg=10 measured_deg=10 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.2 --p 13": (0, [
        "suite=thm5.2 family=lpp_chain q=13 n=2 expected_deg=22 measured_deg=22 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.3 --p 5": (0, [
        "suite=thm5.3 family=lpp_chain q=5 n=3 expected_deg=9 measured_deg=9 pp=pass lpp=pass theorem: pass",
        "suite=thm5.3 family=lpp_chain q=5 n=4 expected_deg=12 measured_deg=12 pp=pass lpp=pass theorem: pass",
        "rows=2 failed=0 skipped=0",
    ]),
    "thm5.3 --p 11": (0, [
        "suite=thm5.3 family=lpp_chain q=11 n=3 expected_deg=27 measured_deg=27 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.4 --p 11": (0, [
        "suite=thm5.4 family=lpp_3var_a q=11 n=3 expected_deg=27 measured_deg=27 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.4 --p 3 --r 2": (0, [
        "suite=thm5.4 family=lpp_3var_b q=9 n=3 expected_deg=21 measured_deg=21 pp=pass lpp=pass theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "lemma2.2 --p 13 --n 5": (0, [
        "suite=lemma2.2 family=identities q=13 n=1 expected_deg=- measured_deg=- pp=- lpp=- theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "lemma4.5 --p 13": (0, [
        "suite=lemma4.5 family=degree_criterion q=13 n=1 expected_deg=- measured_deg=- pp=- lpp=- theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "conjecture --p 11": (0, [
        "suite=conjecture family=lpp_chain q=11 n=5 expected_deg=45 measured_deg=45 pp=- lpp=- conjecture evidence: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "prop3.1 --p 5": (0, [
        "suite=prop3.1 family=scan q=5 n=2 expected_deg=7 measured_deg=- pp=- lpp=- theorem: skipped (cap: 623360743125120 balanced tables exceed the scan cap)",
        "rows=1 failed=0 skipped=1",
    ]),
    "prop3.1 --p 2 --n 16": (0, [
        "suite=prop3.1 family=scan q=2 n=16 expected_deg=15 measured_deg=- pp=- lpp=- theorem: skipped (cap: more than 1000000000000000000000000000000 balanced tables exceed the scan cap)",
        "rows=1 failed=0 skipped=1",
    ]),
    "lemma4.5 --p 2 --r 10": (0, [
        "suite=lemma4.5 family=degree_criterion q=1024 n=1 expected_deg=- measured_deg=- pp=- lpp=- theorem: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.2 --p 5 --n 5": (0, [
        "suite=thm5.2 family=lpp_chain q=5 n=5 expected_deg=15 measured_deg=15 pp=pass lpp=pass conjecture evidence: pass",
        "rows=1 failed=0 skipped=0",
    ]),
    "thm5.3 --p 7 --n 4": (0, [
        "suite=thm5.3 family=lpp_chain q=7 n=4 expected_deg=20 measured_deg=20 pp=pass lpp=pass conjecture evidence: pass",
        "rows=1 failed=0 skipped=0",
    ]),
}


def _check(capsys, argv):
    rc = cli.main(["check", *argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_all_stdout_is_pinned(capsys):
    rc, out, _ = _check(capsys, ["--all"])
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_SHA256
    assert rc == 1                        # the thm5.4 q=4 row


def test_run_all_rows_are_pinned(capsys):
    rows = suites.run_all()
    _, out, _ = _check(capsys, ["--all"])
    assert [r.line() for r in rows] == out.splitlines()[:-1]
    extras = {(r.suite, r.family, r.q, r.n): r.extra for r in rows if r.extra}
    assert extras == PINNED_EXTRAS
    assert len(rows) == 95


def test_run_all_makes_no_func_table(monkeypatch):
    # a FuncTable is made only at the public edge: the suites read the
    # tables the package computed as plain arrays
    from ffperm import mvpoly
    made = []
    real = mvpoly.FuncTable.__init__

    def counting(self, *args):
        made.append(args[:2])
        real(self, *args)

    monkeypatch.setattr(mvpoly.FuncTable, "__init__", counting)
    suites.run_all()
    assert made == []


@pytest.mark.parametrize("args", list(PINNED_OVERRIDES))
def test_override_output_is_pinned(capsys, args):
    rc, out, _ = _check(capsys, ["--suite", *args.split()])
    assert (rc, out.splitlines()) == PINNED_OVERRIDES[args]
