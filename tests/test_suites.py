"""Suite rows gate the claims they check."""

from ffperm import constructions as cons
from ffperm import suites
from ffperm.mvpoly import monomial


def test_thm54_gates_variant_c_on_lpp(monkeypatch):
    # a variant C that stops being an LPP must fail its row, not just print
    # lpp=fail next to "theorem: pass"
    real = cons.lpp_three

    def spoiled(field, variant):
        f = real(field, variant)
        if variant == "C" and field.q == 16:
            f = f + monomial(field, 3, (1, 1, 0))
        return f

    monkeypatch.setattr(cons, "lpp_three", spoiled)
    rows = suites.run_suite("thm5.4")
    [row] = [r for r in rows if r.family == "lpp_3var_c" and r.q == 16]
    assert row.lpp == "fail"
    assert "theorem: fail" in row.line()
    assert "not an LPP" in row.reason
    assert row.gates
