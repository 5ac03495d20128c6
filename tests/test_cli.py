"""End-to-end CLI contract: pipelines, exit codes, deterministic output."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "ffperm"]


def run(*args, input=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), input=input, env=env,
                          capture_output=True, text=True)


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


def test_construct_usage_error_exit_2():
    res = run("construct", "--family", "no_such_family", "--p", "5", "--n", "1")
    assert res.returncode == 2          # argparse rejects unknown choice


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


def test_verify_point_cap_exit_2():
    built = run("construct", "--family", "pp_hn", "--p", "5", "--n", "2")
    res = run("verify", "--input", "-", "--pp", "--point-cap", "3",
              input=built.stdout)
    assert res.returncode == 2


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


def test_check_all_deterministic():
    a = run("check", "--all")
    b = run("check", "--all")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 1      # the q=4 row above


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
    res = run("scan", "--p", "3", "--n", "2", "--scan-cap", "10")
    assert res.returncode == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_scan_needs_a_variable_exit_2(n):
    res = run("scan", "--p", "3", "--n", n)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "need at least one variable" in res.stderr


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
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.count("theorem: pass") == 8
