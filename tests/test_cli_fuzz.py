"""The exit contract of `ffperm verify` on generated JSON input: every
document ends in 0, 1 or 2, never in an exception, and 1 comes only with a
verdict on stdout."""

import contextlib
import io
import json

import pytest

from ffperm import cli

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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(doc=shaped() | spoiled() | json_value)
def test_verify_exit_contract(input_path, doc):
    input_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--input", str(input_path), "--pp"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    else:
        verdict = json.loads(out.getvalue())["verdict"]
        assert verdict == ("pass" if code == 0 else "fail")
