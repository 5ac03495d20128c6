"""The exit contract of `ffperm verify` on generated JSON input: every
document ends in 0, 1 or 2, never in an exception, and 1 comes only with a
verdict on stdout.  Also: text that poly_from_json reads from its bytes
gives what json.loads and the document path give, byte for byte."""

import contextlib
import io
import json
import re
from unittest import mock

import pytest

from ffperm import cli, make_field, mvpoly

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10)


# integers anywhere in +-10**30, beyond int64 either way
huge = st.integers(-10**30, 10**30)


@st.composite
def shaped(draw):
    """A document of the right shape with values mostly in range: p may be
    4, which is not prime, exponents may exceed q, any value may be huge or
    negative, and up to 40 terms repeat one another."""
    p = draw(st.sampled_from([2, 3, 4, 5, 7]))
    r = draw(st.integers(1, 2))
    n = draw(st.integers(0, 3))
    digit = st.integers(0, p - 1)
    exp = st.integers(0, 12)
    if draw(st.booleans()):
        digit, exp = digit | huge, exp | huge
    coeff = digit | st.lists(digit, min_size=r, max_size=r)
    term = st.fixed_dictionaries(
        {"exps": st.lists(exp, min_size=n, max_size=n), "coeff": coeff})
    terms = draw(st.lists(term, min_size=1, max_size=20))
    return {"field": {"p": p, "r": r}, "n": n,
            "terms": terms + draw(st.lists(st.sampled_from(terms),
                                           max_size=20))}


SPOTS = [("field",), ("field", "p"), ("field", "r"), ("field", "modulus"),
         ("n",), ("terms",), ("terms", 0), ("terms", 0, "exps"),
         ("terms", 0, "exps", 0), ("terms", 0, "coeff")]


@st.composite
def spoiled(draw):
    """A shaped document with the value at one spot replaced by any JSON
    value (a missing list item is appended instead)."""
    doc = draw(shaped())
    *path, last = draw(st.sampled_from(SPOTS))
    node = doc
    for key in path:
        node = node[key]
    value = draw(json_value)
    if isinstance(node, list) and not node:
        node.append(value)
    else:
        node[last] = value
    return doc


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "poly.json"


def verify(path, flags):
    """(exit code, stdout, stderr) of `ffperm verify` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--input", str(path)] + flags)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(doc=shaped() | spoiled() | json_value)
def test_verify_exit_contract(input_path, doc):
    input_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = verify(input_path, ["--pp"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:")
    else:
        verdict = json.loads(out)["verdict"]
        assert verdict == ("pass" if code == 0 else "fail")


@st.composite
def written(draw):
    """A document's text as `ffperm construct` writes it (sort_keys, so
    "coeff" before "exps", with family and params) or as json.dump writes
    the dicts the bench builds ("exps" first)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(1, 2))
    n = draw(st.integers(0, 3))
    term = st.fixed_dictionaries({
        "exps": st.lists(st.integers(0, 12), min_size=n, max_size=n),
        "coeff": st.lists(st.integers(0, p - 1), min_size=r, max_size=r)})
    terms = draw(st.lists(term, max_size=12))
    if draw(st.booleans()):
        return json.dumps({"family": "lpp_beta", "params": {},
                           "field": make_field(p, r).to_json(), "n": n,
                           "terms": terms}, sort_keys=True)
    return json.dumps({"field": {"p": p, "r": r}, "n": n, "terms": terms})


# what a mutation may put in place of one integer of the text
NUMBERS = ["0", "00", "07", "-0", "-1", "1.0", "1e2", "", "1 2", "true",
           "9" * 18, "1" + "0" * 17, "9" * 19, "1" + "0" * 18,
           "9223372036854775807", "9223372036854775808", "9" * 20,
           "1" * 20]
# what may follow the closing "]}"
TAILS = ["\n", " \t\r\n", "\x0c", "\x0b", "\n\x0c", "x", "{}", "]", " 1",
         "]}", '"terms": [']
# inserted at the start of the top object
KEYS = ['"terms": [], ', '"terms": [{"coeff": [1], "exps": [1]}], ',
        '"params": {"terms": [1, 2]}, ', '"params": {"terms": []}, ',
        '"family": "\\"terms\\": [", ', '"terms": 5, ']


@st.composite
def mutated(draw):
    """Written text with up to three byte-level changes."""
    text = draw(written())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["space", "number", "tail", "key",
                                     "int coeff", "stray", "drop"]))
        at = draw(st.integers(0, len(text)))
        if kind == "space":
            text = text[:at] + draw(st.sampled_from(
                [" ", "\t", "\n", "\r", "  ", "\x0c"])) + text[at:]
        elif kind == "drop" and " " in text:
            spaces = [m.start() for m in re.finditer(" ", text)]
            at = spaces[at % len(spaces)]
            text = text[:at] + text[at + 1:]
        elif kind == "number":
            runs = list(re.finditer(r"\d+", text))
            if runs:
                m = runs[at % len(runs)]
                text = (text[:m.start()] + draw(st.sampled_from(NUMBERS))
                        + text[m.end():])
        elif kind == "tail":
            text += draw(st.sampled_from(TAILS))
        elif kind == "key":
            text = "{" + draw(st.sampled_from(KEYS)) + text[1:]
        elif kind == "int coeff":
            text = re.sub(r'"coeff": \[(\d+)(, \d+)*\]', r'"coeff": \1', text,
                          count=draw(st.integers(1, 3)))
        elif kind == "stray":
            text = text[:at] + '"terms": [' + text[at:]
    return text


def verify_both(path, flags):
    """verify's outcome as it is, and with the byte reader forced to fall
    back to json.loads; stats.ms, a timing, is left out of stdout."""
    outcomes = []
    for reader in (mvpoly._read_text, lambda text: None):
        with mock.patch.object(mvpoly, "_read_text", reader):
            code, out, err = verify(path, flags)
        if code != 2:
            report = json.loads(out)
            del report["stats"]["ms"]
            out = json.dumps(report, sort_keys=True)
        outcomes.append((code, out, err))
    return outcomes


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=mutated(), flags=st.sampled_from(
    [["--pp"], ["--lpp"], ["--degree", "3"]]))
def test_text_reader_agrees_with_json_loads(input_path, text, flags):
    input_path.write_text(text, encoding="utf-8")
    fast, general = verify_both(input_path, flags)
    assert fast == general
