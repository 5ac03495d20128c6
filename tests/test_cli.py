"""End-to-end CLI contract: pipelines, exit codes, deterministic output."""

import argparse
import importlib
import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "ffperm"]
# child processes import the sources under test, with or without PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*args, input=None, env_extra=None, timeout=None):
    env = dict(ENV)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), input=input, env=env,
                          capture_output=True, text=True, timeout=timeout)


# -- construct ------------------------------------------------------------------

def test_construct_json_shape():
    res = run("construct", "--family", "pp_hn", "--p", "3", "--n", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["family"] == "pp_hn"
    assert doc["field"] == {"p": 3, "r": 1}
    assert doc["n"] == 2
    assert doc["terms"] == [{"coeff": [1], "exps": [0, 1]},
                            {"coeff": [1], "exps": [2, 0]},
                            {"coeff": [1], "exps": [2, 1]}]


def test_construct_text_order():
    res = run("construct", "--family", "pp_hn", "--p", "3", "--n", "2",
              "--format", "text")
    assert res.returncode == 0
    assert res.stdout.strip() == "x1^2*x2 + x1^2 + x2"


def test_construct_text_extension_field_coeffs():
    res = run("construct", "--family", "lpp_beta", "--p", "2", "--r", "2",
              "--n", "1", "--format", "text")
    assert res.stdout.strip() == "x1^2"


def test_format_poly_renders_zero_and_orders_terms():
    from ffperm import make_field, poly_build
    from ffperm.cli import format_poly
    F9 = make_field(3, 2)
    assert format_poly(poly_build(F9, 2, [])) == "0"
    f = poly_build(F9, 2, [((1, 2), 4), ((0, 0), 3), ((2, 0), 1)])
    assert format_poly(f) == "x1^2 + (z+1)*x1*x2^2 + z"


def test_construct_deterministic():
    a = run("construct", "--family", "lpp_indicator", "--p", "3", "--r", "2",
            "--n", "2")
    b = run("construct", "--family", "lpp_indicator", "--p", "3", "--r", "2",
            "--n", "2")
    assert a.stdout == b.stdout and a.returncode == 0


def test_construct_predicate_error_exit_2():
    res = run("construct", "--family", "pp_dickson", "--p", "3", "--n", "1")
    assert res.returncode == 2
    assert "error:" in res.stderr
    res = run("construct", "--family", "lpp_power", "--p", "7")
    assert res.returncode == 2


@pytest.mark.parametrize("argv,message", [
    (["pp_qnr", "--p", "5", "--alpha-rank", "4"],
     "4 is a square, not usable here"),
    (["pp_noncube", "--p", "2", "--r", "2", "--alpha-rank", "1"],
     "1 is a cube, not usable here")], ids=["square", "cube"])
def test_construct_power_constant_is_refused_by_name(argv, message):
    res = run("construct", "--family", *argv, "--n", "1")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {message}\n"


def test_construct_usage_error_exit_2():
    res = run("construct", "--family", "no_such_family", "--p", "5", "--n", "1")
    assert res.returncode == 2          # argparse rejects unknown choice
    # every variant has its own family tag, so there is no --variant flag
    res = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2",
              "--variant", "zzz")
    assert res.returncode == 2
    assert "unrecognized arguments: --variant zzz" in res.stderr


# every family whose size comes from --n, on a field it builds on
SIZED_BY_N = [("pp_hn", "5", "1"), ("pp_monomial", "5", "1"),
              ("pp_dickson", "2", "4"), ("pp_alpha4", "2", "2"),
              ("pp_qnr", "5", "1"), ("pp_noncube", "2", "2"),
              ("pp_mersenne", "2", "3"), ("lpp_beta", "2", "2"),
              ("lpp_indicator", "5", "1"), ("lpp_indicator", "3", "2"),
              ("lpp_chain", "5", "1"), ("lpp_linear", "3", "1")]


def test_sized_families_are_all_listed():
    from ffperm import FAMILY_TAGS
    fixed = {"lpp_power", "lpp_3var_a", "lpp_3var_b", "lpp_3var_c"}
    assert {t for t, _, _ in SIZED_BY_N} == set(FAMILY_TAGS) - fixed


@pytest.mark.parametrize("tag,p,r", SIZED_BY_N)
def test_construct_huge_n_is_a_cap_error(capsys, tag, p, r):
    # refused before anything n long is built: exit 2, never a MemoryError
    from ffperm import cli
    rc = cli.main(["construct", "--family", tag, "--p", p, "--r", r,
                   "--n", str(10**12)])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert "points exceed the point cap" in out.err


@pytest.mark.parametrize("tag,p,r", SIZED_BY_N)
@pytest.mark.parametrize("n", ["0", "-1"])
def test_construct_without_a_variable_exit_2(capsys, tag, p, r, n):
    # the builder's own size guard refuses n < 1
    from ffperm import cli
    rc = cli.main(["construct", "--family", tag, "--p", p, "--r", r,
                   "--n", n])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert "need at least one variable" in out.err


def test_construct_lpp_indicator_at_a_prime_over_ten(capsys):
    # F_11 takes block size 3, so one variable needs 11^3 points, not 11^9
    from ffperm import cli
    rc = cli.main(["construct", "--family", "lpp_indicator", "--p", "11",
                   "--n", "1"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    doc = json.loads(out.out)
    assert doc["n"] == 1 and doc["field"] == {"p": 11, "r": 1}
    assert max(t["exps"][0] for t in doc["terms"]) == 9     # degree q-2


@pytest.mark.parametrize("b,k", [("2", "1000000000000"), ("5", "100000000"),
                                 ("1000000000000000000000", "100000")])
def test_construct_lpp_power_huge_b_to_the_k_exit_2(b, k):
    # n is compared with b^k without building b^k, or printing it
    res = run("construct", "--family", "lpp_power", "--p", "7", "--b", b,
              "--k", k, "--n", "3", timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert f"b={b}, k={k}" in res.stderr
    assert len(res.stderr) < 200


@pytest.mark.parametrize("b", ["0", "1" + "0" * 400], ids=["zero", "huge"])
def test_construct_lpp_power_negative_k_exit_2(b):
    # b^k with k < 1 is never formed: 0^-1 and a huge b^-1 raise in Python
    res = run("construct", "--family", "lpp_power", "--p", "7", "--b", b,
              "--k", "-1", "--n", "3", timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "violates 1 < b < p-1" in res.stderr


# -- verify ----------------------------------------------------------------------

def test_construct_verify_pipeline_unmodified():
    built = run("construct", "--family", "lpp_beta", "--p", "2", "--r", "2",
                "--n", "2")
    assert built.returncode == 0
    for flag, expect in [("--lpp", 0), ("--pp", 0), ("--degree", None)]:
        if flag == "--degree":
            res = run("verify", "--input", "-", "--degree", "4",
                      input=built.stdout)
            assert res.returncode == 0
        else:
            res = run("verify", "--input", "-", flag, input=built.stdout)
            assert res.returncode == expect
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "pass"


def test_written_documents_are_read_from_their_bytes(capsys):
    """lpp_beta q=16 n=4 as `construct` writes it (coeff first) and as the
    bench's json.dump writes it (exps first) skips json.loads on its
    terms, and reads as the parsed document does."""
    from ffperm import cli, mvpoly
    assert cli.main(["construct", "--family", "lpp_beta", "--p", "2",
                     "--r", "4", "--n", "4"]) == 0
    written = capsys.readouterr().out
    doc = json.loads(written)
    dumped = json.dumps({"field": {"p": 2, "r": 4}, "n": 4,
                         "terms": [{"exps": t["exps"], "coeff": t["coeff"]}
                                   for t in doc["terms"]]})
    want = mvpoly.poly_from_json(doc)
    for text in (written, dumped):
        got = mvpoly._read_text(text)
        assert got is not None and got == want


def test_verify_from_file(tmp_path):
    built = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2")
    path = tmp_path / "poly.json"
    path.write_text(built.stdout)
    res = run("verify", "--input", str(path), "--pp")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "pass"


def test_verify_failure_exit_1():
    built = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2")
    res = run("verify", "--input", "-", "--lpp", input=built.stdout)
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "fail"
    assert set(doc["witness"]) == {"coordinate", "assignment", "colliding",
                                   "value"}


def test_verify_wrong_degree_exit_1():
    built = run("construct", "--family", "pp_hn", "--p", "3", "--n", "2")
    res = run("verify", "--input", "-", "--degree", "99", input=built.stdout)
    assert res.returncode == 1


ZERO_DOC = {"field": {"p": 5, "r": 1}, "n": 2, "terms": []}


@pytest.mark.parametrize("degree", ["-1", str(10**30), "0"])
def test_verify_degree_extremes_give_a_report(degree):
    built = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2")
    for text in (built.stdout, json.dumps(ZERO_DOC)):
        res = run("verify", "--input", "-", "--degree", degree, input=text)
        assert res.returncode in (0, 1), res.stderr
        assert "Traceback" not in res.stderr
        doc = json.loads(res.stdout)
        assert doc["detail"]["expected"] == int(degree)
        measured = doc["detail"]["measured"]
        assert measured == (7 if text == built.stdout else -1)
        assert res.returncode == (0 if measured == int(degree) else 1)


def test_verify_zero_variables():
    doc = {"field": {"p": 5, "r": 1}, "n": 0,
           "terms": [{"exps": [], "coeff": 3}]}
    res = run("verify", "--input", "-", "--degree", "0",
              input=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["detail"]["measured"] == 0
    for flag in ("--pp", "--lpp"):
        res = run("verify", "--input", "-", flag, input=json.dumps(doc))
        assert res.returncode == 2 and res.stdout == ""
        assert "Traceback" not in res.stderr
        assert "need at least one variable" in res.stderr


def test_verify_flag_validation():
    built = run("construct", "--family", "pp_hn", "--p", "3", "--n", "2")
    res = run("verify", "--input", "-", input=built.stdout)
    assert res.returncode == 2          # no property chosen
    res = run("verify", "--input", "-", "--pp", "--lpp", input=built.stdout)
    assert res.returncode == 2          # two properties chosen


def test_verify_bad_json_exit_2():
    res = run("verify", "--input", "-", "--pp", input="{not json")
    assert res.returncode == 2
    res = run("verify", "--input", "/nonexistent/poly.json", "--pp")
    assert res.returncode == 2
    # wrong shapes are usage errors, not a traceback that reads as exit 1
    good = {"field": {"p": 5, "r": 1}, "n": 1,
            "terms": [{"exps": [1], "coeff": 1}]}
    for doc in (dict(good, terms=5), None, [1, 2],
                dict(good, terms=[{"exps": [1], "coeff": {"a": 1}}])):
        res = run("verify", "--input", "-", "--pp", input=json.dumps(doc))
        assert res.returncode == 2, doc
        assert "Traceback" not in res.stderr
    res = run("verify", "--input", "-", "--pp", input="[" * 100000)
    assert res.returncode == 2 and "Traceback" not in res.stderr


def test_verify_huge_values():
    """Integers beyond int64 are read exactly: a huge exponent folds, and a
    huge negative exponent, rank or digit is a usage error, not a traceback."""
    field = {"p": 5, "r": 1}
    for e in (10**30 + 3, 2**63 + 1):       # fold to x^3 and x, both PPs
        doc = {"field": field, "n": 1, "terms": [{"exps": [e], "coeff": 1}]}
        res = run("verify", "--input", "-", "--pp", input=json.dumps(doc))
        assert res.returncode == 0, e
        assert json.loads(res.stdout)["verdict"] == "pass"
    for term in ({"exps": [-10**30], "coeff": 1},
                 {"exps": [1], "coeff": 10**30},
                 {"exps": [1], "coeff": [10**30]}):
        doc = {"field": field, "n": 1, "terms": [term]}
        res = run("verify", "--input", "-", "--pp", input=json.dumps(doc))
        assert res.returncode == 2, term
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr


def test_verify_point_cap_exit_2():
    built = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2")
    res = run("verify", "--input", "-", "--pp", input=built.stdout,
              env_extra={"FFPERM_POINT_CAP": "3"})
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: 5^2 points exceed the point cap\n"


# -- check -----------------------------------------------------------------------

def test_check_suite_pass_exit_0():
    res = run("check", "--suite", "thm4.1")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 10                       # 9 rows + summary
    assert all("theorem: pass" in l for l in lines[:-1])
    assert lines[-1] == "rows=9 failed=0 skipped=0"


def test_check_suite_override_cell():
    res = run("check", "--suite", "thm4.1", "--p", "2", "--r", "3", "--n", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2
    assert "q=8 n=2" in lines[0]


def test_check_conjecture_label():
    res = run("check", "--suite", "conjecture")
    assert res.returncode == 0
    assert "conjecture evidence: pass" in res.stdout


def test_check_thm54_exit_1_documented_degeneration():
    # the three-variable char-2 family collapses to degree 2 at q=4, so the
    # degree row fails while both q=8 and q=16 pass
    res = run("check", "--suite", "thm5.4")
    assert res.returncode == 1
    lines = res.stdout.strip().split("\n")
    bad = [l for l in lines if "theorem: fail" in l]
    assert len(bad) == 1
    assert "q=4" in bad[0] and "lpp_3var_c" in bad[0]
    assert "lpp=pass" in bad[0]                   # still an LPP there


def test_check_requires_suite_or_all():
    res = run("check")
    assert res.returncode == 2
    res = run("check", "--suite", "nonsense")
    assert res.returncode == 2


def test_check_cap_skips_are_not_failures():
    res = run("check", "--suite", "thm4.1",
              env_extra={"FFPERM_POINT_CAP": "100"})
    assert res.returncode == 0
    assert "skipped (cap" in res.stdout
    last = res.stdout.strip().split("\n")[-1]
    assert "failed=0" in last and "skipped=" in last


@pytest.mark.parametrize("var,value,args", [
    ("FFPERM_POINT_CAP", "abc",
     ("construct", "--family", "pp_hn", "--p", "5", "--n", "2")),
    ("FFPERM_SCAN_CAP", "1e6", ("scan", "--p", "2", "--n", "1")),
])
def test_unreadable_cap_variable_names_itself_exit_2(var, value, args):
    res = run(*args, env_extra={var: value})
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {var} must be an integer, got '{value}'\n"


def test_check_huge_n_is_a_skipped_row(capsys):
    rc, out, _ = check_main(capsys, "--suite", "thm3.2", "--p", "5",
                            "--n", str(10**12))
    row, last = out.splitlines()
    assert rc == 0
    assert "theorem: skipped (cap: 5^1000000000000 points exceed" in row
    assert last == "rows=1 failed=0 skipped=1"


def test_check_all_deterministic():
    a = run("check", "--all")
    b = run("check", "--all")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 1      # the q=4 row above


def check_main(capsys, *args):
    """`ffperm check ARGS` in process: (exit code, stdout, stderr)."""
    from ffperm import cli
    rc = cli.main(["check", *args])
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("args", [("thm5.4", "--p", "2"),
                                  ("thm4.3", "--p", "13"),
                                  ("thm4.1", "--p", "3", "--n", "2")])
def test_check_override_without_a_row_exit_2(capsys, args):
    # no family of the suite builds on the field: an error, not rows=0
    rc, out, err = check_main(capsys, "--suite", *args)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_lemma22_on_f2_has_no_row_exit_2(capsys):
    rc, out, err = check_main(capsys, "--suite", "lemma2.2", "--p", "2")
    assert (rc, out) == (2, "")
    assert err == ("error: suite lemma2.2 has no row on F_2 "
                   "(identities: Lemma 2.2 needs q >= 3)\n")


@pytest.mark.parametrize("p,n,hint", [("13", None, "try --n 5"),
                                      ("7", "3", "try --n 5"),
                                      ("3", None, "no n fits")])
def test_check_power_override_names_the_n_it_admits(capsys, p, n, hint):
    # thm4.3 builds lpp_power with b = n; a refused n names one that fits
    args = ("--suite", "thm4.3", "--p", p) + (("--n", n) if n else ())
    rc, out, err = check_main(capsys, *args)
    assert rc == 2 and out == "" and hint in err
    if hint.startswith("try "):
        rc, out, _ = check_main(capsys, "--suite", "thm4.3", "--p", p,
                                *hint.split()[1:])
        assert rc == 0 and out.endswith("failed=0 skipped=0\n")


def test_check_override_stays_on_its_field(capsys):
    rc, out, _ = check_main(capsys, "--suite", "thm4.3", "--p", "5",
                            "--r", "2")
    rows = out.splitlines()[:-1]
    assert " q=5 " not in out
    assert rc == 2 or (rows and all(" q=25 " in l for l in rows))


def test_check_override_gives_each_family_a_cell(capsys):
    rc, out, _ = check_main(capsys, "--suite", "remark3", "--p", "11")
    assert rc == 0
    lines = out.splitlines()
    assert [l.split(" expected_deg")[0] for l in lines[:-1]] == [
        "suite=remark3 family=pp_monomial q=11 n=2",
        "suite=remark3 family=pp_qnr q=11 n=1"]
    assert all("theorem: pass" in l for l in lines[:-1])
    assert lines[-1] == "rows=2 failed=0 skipped=0"


@pytest.mark.parametrize("args", [("--all", "--p", "5"),
                                  ("--all", "--r", "2"),
                                  ("--all", "--n", "2"),
                                  ("--all", "--suite", "thm4.1"),
                                  ("--suite", "thm4.1", "--n", "2"),
                                  ("--suite", "thm4.1", "--r", "3")])
def test_check_refuses_flags_it_would_ignore(capsys, args):
    rc, out, err = check_main(capsys, *args)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and args[-2] in err


# -- field / scan ------------------------------------------------------------------

def test_field_text():
    res = run("field", "--p", "2", "--r", "2")
    assert res.returncode == 0
    assert "q=4 p=2 r=2" in res.stdout
    assert "modulus=[1, 1, 1]" in res.stdout
    assert "generator=2 (z)" in res.stdout
    assert "  0 2 3 1" in res.stdout              # mul row of z


def test_field_text_prime_field():
    res = run("field", "--p", "5")
    assert res.returncode == 0
    assert "q=5 p=5 r=1" in res.stdout
    assert "modulus" not in res.stdout            # prime fields have none
    assert "generator=2 (2)" in res.stdout
    assert "  0 2 4 1 3" in res.stdout            # mul row of 2


def test_field_json():
    res = run("field", "--p", "3", "--r", "2", "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["p"] == 3 and doc["r"] == 2
    assert doc["modulus"] == [1, 0, 1]
    assert doc["generator"] == 4
    assert len(doc["mul"]) == 9
    assert doc["mul"][4][4] == 6          # (z+1)^2 = 2z with z^2 = -1


def test_scan_output_and_exit():
    res = run("scan", "--p", "2", "--n", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["detail"]["pp_count"] == 6
    assert doc["verdict"] == "pass"


def test_scan_cap_exit_2():
    res = run("scan", "--p", "5", "--n", "2")
    assert res.returncode == 2
    res = run("scan", "--p", "3", "--n", "2",
              env_extra={"FFPERM_SCAN_CAP": "10"})
    assert res.returncode == 2
    assert res.stderr == "error: 1680 balanced tables exceed the scan cap\n"
    # 2^20 points: the table count stops at 10^30 and stays readable
    res = run("scan", "--p", "2", "--n", "20")
    assert res.returncode == 2
    assert res.stderr == ("error: more than 1000000000000000000000000000000 "
                          "balanced tables exceed the scan cap\n")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_scan_needs_a_variable_exit_2(n):
    res = run("scan", "--p", "3", "--n", n)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "need at least one variable" in res.stderr


# -- the knobs ----------------------------------------------------------------------
# Each work limit has one knob, its environment variable.  These pins make
# any new option or parameter a deliberate edit here.

OPTIONS = {
    "construct": ["--alpha-rank", "--b", "--family", "--format", "--help",
                  "--k", "--n", "--p", "--r", "-h"],
    "verify": ["--degree", "--help", "--input", "--lpp", "--pp", "-h"],
    "check": ["--all", "--help", "--n", "--p", "--r", "--suite", "-h"],
    "field": ["--format", "--help", "--p", "--r", "-h"],
    "scan": ["--help", "--n", "--p", "--r", "-h"],
}

EMPTY = inspect.Parameter.empty
SIGNATURES = {
    "to_table": [("f", EMPTY)],
    "preimage_counts": [("f", EMPTY)],
    "is_pp": [("f", EMPTY)],
    "is_lpp": [("f", EMPTY)],
    "scan_pp_degree_bound": [("field", EMPTY), ("n", EMPTY)],
    "build_family": [("tag", EMPTY), ("field", EMPTY), ("n", None),
                     ("b", None), ("k", None), ("alpha_rank", None)],
}


def test_options_and_signatures_are_pinned():
    from ffperm import cli
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    ffperm = importlib.import_module("ffperm")
    for name, want in SIGNATURES.items():
        params = inspect.signature(getattr(ffperm, name)).parameters
        assert [(p.name, p.default) for p in params.values()] == want, name


WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"


def workflow_commands() -> list[list[str]]:
    """The arguments of every `python -m ffperm ...` command in the CI
    workflow, read by a text scan with shlex (CI installs no YAML parser):
    the words after `ffperm` up to the next pipe or `||`."""
    commands = []
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("#") or "-m ffperm" not in line:
            continue
        words = shlex.split(line)
        for i in range(len(words) - 2):
            if words[i:i + 3] == ["python", "-m", "ffperm"]:
                rest = words[i + 3:]
                stop = [j for j, w in enumerate(rest) if w in ("|", "||")]
                commands.append(rest[:stop[0]] if stop else rest)
    return commands


def test_ci_commands_parse(capsys):
    # the workflow's commands are checked by the parser they will meet,
    # so a renamed family or option fails here and not only on a runner
    from ffperm import cli
    parser = cli.build_parser()
    commands = workflow_commands()
    assert len(commands) >= 50
    assert {argv[0] for argv in commands} == {"construct", "verify", "scan",
                                              "check"}
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err}")


@pytest.mark.parametrize("argv", [
    ["verify", "--input", "-", "--pp", "--point-cap", "3"],
    ["scan", "--p", "3", "--scan-cap", "10"],
    ["scan", "--p", "3", "--point-cap", "3"],
])
def test_cap_flags_are_unrecognized_exit_2(capsys, argv):
    from ffperm import cli
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


def test_usage_errors_exit_2():
    assert run().returncode == 2
    assert run("frobnicate").returncode == 2
    assert run("construct", "--family", "pp_hn").returncode == 2   # no field


@pytest.mark.skipif(shutil.which("ffperm") is None,
                    reason="the `ffperm` console script is not on PATH "
                           "(the package is not installed)")
def test_installed_entry_point():
    res = subprocess.run(["ffperm", "check", "--suite", "lemma2.2"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.count("theorem: pass") == 8


def test_declared_entry_point_runs():
    # what the installed `ffperm` script runs, checked without installing it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ffperm"]
    assert target == "ffperm.cli:run"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    res = subprocess.run([sys.executable, "-c", script,
                          "check", "--suite", "lemma2.2"],
                         capture_output=True, text=True, env=ENV)
    assert res.returncode == 0
    assert res.stdout.count("theorem: pass") == 8
