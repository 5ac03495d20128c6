"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the expected outcome of every operation.

An operation's ``run()`` is the timed call into ffperm; ``observe(raw)``
turns its result into a plain outcome dict outside the timed region.  Every
outcome has a ``verdict`` (exit code, or the list of report verdicts) next
to the digests or text it is checked by.  Expectations of fixed inputs are
pinned in ``expected.json`` (see ``pin.py``); those of seeded inputs are
computed here with this module's own numpy code, never by ffperm.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
from math import comb

import numpy as np

import ffperm
from ffperm import cli

# bound before any tracing is installed, so digests add no spans
_to_table = ffperm.to_table

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


class Op:
    def __init__(self, name, run, observe, expected=None):
        self.name = name
        self.run = run
        self.observe = observe
        self.expected = expected


class Workload:
    """fields: the (p, r) pairs set-up time covers.  fresh_fields: clear
    make_field's cache before every op, as a new CLI process would start."""

    def __init__(self, name, fields, ops, fresh_fields):
        self.name = name
        self.fields = fields
        self.ops = ops
        self.fresh_fields = fresh_fields


def sha256(arr) -> str:
    data = np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def without_ms(report: dict) -> dict:
    report = copy.deepcopy(report)
    report.get("stats", {}).pop("ms", None)
    return report


def corrupt(expected: dict, kind: str) -> dict:
    """A wrong copy of an expectation: a flipped verdict, or a changed
    digest (or pinned output)."""
    e = copy.deepcopy(expected)
    if kind == "verdict":
        v = e["verdict"]
        e["verdict"] = [not v[0]] + v[1:] if isinstance(v, list) else 1 - v
    else:
        key = next(k for k in e if k != "verdict")
        e[key] = (e[key] + "0" if isinstance(e[key], str)
                  else {**e[key], "corrupted": True})
    return e


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# construct_frontier

# (family tag, p, r, n, expected total degree)
FRONTIER_CELLS = [
    ("lpp_chain", 7, 1, 6, 30),
    ("lpp_beta", 2, 4, 4, 56),
    ("lpp_3var_c", 2, 6, None, 186),
    ("pp_noncube", 2, 4, 4, 74),
]
FRONTIER_SMOKE = [
    ("lpp_chain", 7, 1, 3, 15),
    ("lpp_beta", 2, 2, 3, 6),
    ("lpp_3var_c", 2, 3, None, 18),
    ("pp_noncube", 2, 4, 1, 29),
]


def _cell_op(tag, p, r, n, degree):
    field = ffperm.make_field(p, r)

    def run():
        f, _ = ffperm.build_family(tag, field, n=n)
        return f, [ffperm.is_pp(f), ffperm.is_lpp(f),
                   ffperm.assert_degree(f, degree)]

    def observe(raw):
        f, reports = raw
        docs = [without_ms(rep.to_json()) for rep in reports]
        text = json.dumps(docs, sort_keys=True).encode()
        return {"verdict": [rep.ok for rep in reports],
                "coeffs_sha256": sha256(f.coeffs),
                "table_sha256": sha256(_to_table(f).values),
                "reports_sha256": hashlib.sha256(text).hexdigest()}

    name = f"{tag}_q{p ** r}" + ("" if n is None else f"_n{n}")
    return Op(name, run, observe)


def construct_frontier(smoke):
    cells = FRONTIER_SMOKE if smoke else FRONTIER_CELLS
    ops = [_cell_op(*cell) for cell in cells]  # builds the fields
    return Workload("construct_frontier", [(c[1], c[2]) for c in cells], ops,
                    fresh_fields=False)


# ---------------------------------------------------------------------------
# verify_cli inputs, written as the JSON the CLI reads

def _unit(r):
    return [1] + [0] * (r - 1)


def _write_poly(path, p, r, n, terms):
    doc = {"field": {"p": p, "r": r}, "n": n,
           "terms": [{"exps": list(e), "coeff": c} for e, c in terms]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _lagrange(p):
    """Coefficient e of the prime-field basis poly 1 - (x - c)^(p-1):
    L[e, c] = [e == 0] - C(p-1, e) (-c)^(p-1-e) mod p."""
    L = np.empty((p, p), dtype=np.int64)
    for e in range(p):
        for c in range(p):
            L[e, c] = ((e == 0) - comb(p - 1, e) * pow(-c, p - 1 - e, p)) % p
    return L


def interpolate_prime(table, p):
    """Reduced coefficients of a value table over the prime field F_p."""
    L = _lagrange(p)
    coeffs = table
    for axis in range(table.ndim):
        coeffs = np.moveaxis(np.tensordot(L, coeffs, axes=([1], [axis])) % p,
                             0, axis)
    return np.ascontiguousarray(coeffs)


def _all_terms(coeffs):
    """Every coefficient, zeros included, so the input's size (and the
    parse and build work) does not depend on the seed."""
    exps = np.indices(coeffs.shape).reshape(coeffs.ndim, -1).T.tolist()
    return [(e, [c]) for e, c in zip(exps, coeffs.reshape(-1).tolist())]


def dense_lpp_table(rng, q, n):
    """sigma(pi_1(x_1) + .. + pi_n(x_n)) over the prime field F_q with
    seeded permutations: every line is a bijection."""
    s = np.zeros((1,) * n, dtype=np.int64)
    for i in range(n):
        shape = [1] * n
        shape[i] = q
        s = s + rng.permutation(q).reshape(shape)
    return rng.permutation(q)[s % q]


def swap_two(rng, table):
    """Copy of table with two seeded points swapped.  The points differ in
    at least two coordinates and in value, so the line through the first
    one along x_1 repeats a value: the scan always fails on coordinate 1."""
    q, n = table.shape[0], table.ndim
    while True:
        a, b = rng.integers(0, q, size=(2, n))
        a, b = tuple(int(x) for x in a), tuple(int(x) for x in b)
        if (sum(x != y for x, y in zip(a, b)) >= 2
                and table[a] != table[b]):
            break
    out = table.copy()
    out[a], out[b] = table[b], table[a]
    return out


def expected_lpp(table, q):
    """The verdict `ffperm verify --lpp` must print for a value table, found
    in the scan order is_lpp documents: coordinates in order, assignments
    to the other variables in rank order (x_1 most significant), and the
    first value repeated along the failing line."""
    n = table.ndim
    report = {"kind": "LPP", "label": "theorem",
              "stats": {"points": int(table.size)}, "verdict": "pass",
              "witness": None}
    for axis in range(n):
        lines = np.moveaxis(table, axis, -1).reshape(-1, q)
        key = np.arange(lines.shape[0])[:, None] * q + lines
        counts = np.bincount(key.reshape(-1), minlength=lines.size)
        bad = np.flatnonzero((counts.reshape(-1, q) != 1).any(axis=1))
        if bad.size == 0:
            continue
        line = lines[bad[0]].tolist()
        first = {}
        for a, v in enumerate(line):
            if v in first:
                break
            first[v] = a
        rank = int(bad[0])
        assignment = [int(d) for d in np.unravel_index(rank, (q,) * (n - 1))]
        report["verdict"] = "fail"
        report["witness"] = {"coordinate": axis + 1,
                             "assignment": assignment,
                             "colliding": [first[v], a], "value": v}
        return {"verdict": 1, "report": report, "stderr": ""}
    return {"verdict": 0, "report": report, "stderr": ""}


def _pp_hn_terms(q, r, n):
    head, tail = (q - 1,) * (n - 1), (0,) * (n - 1)
    terms = [(head + (k,), _unit(r)) for k in range(q - 1)]
    return terms + [(tail + (1,), _unit(r))]


def _lpp_beta_terms(q, r, n):
    grid = np.indices((q - 2,) * n).reshape(n, -1).T + 1
    terms = [(tuple(e), _unit(r)) for e in grid.tolist()]
    return terms + [(tuple(int(i == j) for j in range(n)), _unit(r))
                    for i in range(n)]


# (name, p, r, n, terms builder, verify flag)
VERIFY_FIXED = [
    ("pp_hn_q32_n4", 2, 5, 4, _pp_hn_terms, ["--pp"]),
    ("pow727_q729", 3, 6, 1, lambda q, r, n: [((727,), _unit(r))], ["--pp"]),
    ("lpp_beta_q16_n4_degree", 2, 4, 4, _lpp_beta_terms, ["--degree", "56"]),
    ("pow1022_q1024_degree", 2, 10, 1, lambda q, r, n: [((1022,), _unit(r))],
     ["--degree", "1022"]),
]
VERIFY_SMOKE = [
    ("pp_hn_q4_n2", 2, 2, 2, _pp_hn_terms, ["--pp"]),
    ("pow25_q27", 3, 3, 1, lambda q, r, n: [((25,), _unit(r))], ["--pp"]),
    ("lpp_beta_q4_n2_degree", 2, 2, 2, _lpp_beta_terms, ["--degree", "4"]),
    ("pow30_q32_degree", 2, 5, 1, lambda q, r, n: [((30,), _unit(r))],
     ["--degree", "30"]),
]


def _verify_op(name, path, flags, expected=None):
    argv = ["verify", "--input", path] + flags

    def observe(raw):
        rc, out, err = raw
        try:
            report = without_ms(json.loads(out))
        except ValueError:
            report = {"unparsed_stdout": out}
        return {"verdict": rc, "report": report, "stderr": err}

    return Op(name, lambda: _call_cli(argv), observe, expected)


def verify_cli(smoke, seed, workdir):
    rng = np.random.default_rng(seed)
    q, n = (5, 3) if smoke else (7, 5)
    good = dense_lpp_table(rng, q, n)
    bad = swap_two(rng, good)
    ops, fields = [], [(q, 1)]
    for tag, table in (("pass", good), ("fail", bad)):
        path = os.path.join(workdir, f"dense_lpp_{tag}.json")
        _write_poly(path, q, 1, n, _all_terms(interpolate_prime(table, q)))
        ops.append(_verify_op(f"dense_lpp_q{q}_n{n}_{tag}", path, ["--lpp"],
                              expected_lpp(table, q)))
    for name, p, r, nv, terms, flags in (VERIFY_SMOKE if smoke
                                         else VERIFY_FIXED):
        path = os.path.join(workdir, f"{name}.json")
        _write_poly(path, p, r, nv, terms(p ** r, r, nv))
        ops.append(_verify_op(name, path, flags))
        fields.append((p, r))
    return Workload("verify_cli", fields, ops, fresh_fields=True)


# ---------------------------------------------------------------------------
# check_all

# the fields `ffperm check --all` builds
CHECK_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                (5, 1), (5, 2), (7, 1), (11, 1)]


def check_all():
    def observe(raw):
        rc, out, err = raw
        return {"verdict": rc, "stdout": out, "stderr": err}

    op = Op("check_all", lambda: _call_cli(["check", "--all"]), observe)
    return Workload("check_all", CHECK_FIELDS, [op], fresh_fields=True)


# ---------------------------------------------------------------------------

WORKLOADS = ("construct_frontier", "verify_cli", "check_all")


def make(name, seed, smoke, workdir, use_pinned=True):
    """Build a workload from its seed.  Ops without a computed expectation
    get the pinned one, if any."""
    if name == "construct_frontier":
        wl = construct_frontier(smoke)
    elif name == "verify_cli":
        wl = verify_cli(smoke, seed, workdir)
    elif name == "check_all":
        wl = check_all()
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    pinned = {}
    if use_pinned and os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh).get(name, {})
    for op in wl.ops:
        if op.expected is None:
            op.expected = pinned.get(op.name)
    return wl
