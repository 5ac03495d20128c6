"""Span tracing installed from outside the program.

`Tracer.install()` wraps the layer boundaries of ffperm in every `ffperm.*`
namespace that bound the name (``from .mvpoly import to_table`` copies the
binding, so wrapping one module would miss calls through another), plus a
few `MultiPoly`/`Field` methods on their classes.  Scalar `Field` methods are
left alone.  Spans are kept in memory as
``[name, start, end, parent, op, work]`` and turned into per-layer metrics by
`layer_metrics`.  `uninstall()` puts every original back.
"""

import sys
import time

import numpy as np

SUITE_NAMES = ("prop3.1", "thm3.2", "remark3", "thm4.1", "thm4.3", "thm4.4",
               "lemma2.2", "lemma4.5", "thm5.2", "thm5.3", "thm5.4",
               "conjecture")
# construct_frontier builds these family tags
CONSTRUCTION_TAGS = ("lpp_chain", "lpp_beta", "lpp_3var_c", "pp_noncube")

DEGREE_READOUT = ("mvpoly.degrees", "mvpoly.terms", "mvpoly.leading_terms")
JSON_SPANS = ("mvpoly.poly_from_json", "mvpoly.poly_to_json")
VERIFIERS = ("verify.is_pp", "verify.is_lpp", "verify.assert_degree")


def _mat_apply_work(args, kwargs, result):
    M, A = args[0], args[1]
    q, R = int(M.shape[0]), int(A.shape[1])
    lookups = 2 * int(np.count_nonzero(M)) * R
    # computed traffic: A read, out written, one int64 table read per lookup
    return {"values": q * R, "lookups": lookups,
            "bytes": 8 * (2 * q * R + lookups)}


def _lpp_scan_work(args, kwargs, result):
    table, n = args[0], int(args[1])
    axis = int(result[0])
    return {"points": int(table.size) * (n if axis < 0 else axis + 1)}


def _poly_mul_work(args, kwargs, result):
    return {"pairs": int(args[0].shape[0]) * int(args[2].shape[0])}


def _terms_out(args, kwargs, result):
    return {"terms_out": int(np.count_nonzero(result.coeffs))}


def _points(args, kwargs, result):
    return {"points": int(result.stats.get("points", 0))}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _targets():
    """(owner, attribute, span name or namer, work fn, is_method) for every
    traced boundary, resolved against the imported ffperm modules."""
    from ffperm import _kernels, cli, constructions, gf, mvpoly, suites, verify
    MultiPoly = mvpoly.MultiPoly
    return [
        (gf.Field, "__init__", "gf.field_build", None, True),
        (mvpoly, "poly_build", "mvpoly.poly_build", _terms_out, False),
        (MultiPoly, "__mul__", "mvpoly.mul", None, True),
        (mvpoly, "to_table", "mvpoly.to_table", None, False),
        (mvpoly, "interpolate", "mvpoly.interpolate", None, False),
        (mvpoly, "compose_univariate", "mvpoly.compose_univariate", None,
         False),
        (MultiPoly, "substitute", "mvpoly.substitute", None, True),
        (MultiPoly, "degrees", "mvpoly.degrees", None, True),
        (MultiPoly, "terms", "mvpoly.terms", None, True),
        (MultiPoly, "leading_terms", "mvpoly.leading_terms", None, True),
        (mvpoly, "poly_from_json", "mvpoly.poly_from_json", None, False),
        (mvpoly, "poly_to_json", "mvpoly.poly_to_json", None, False),
        (_kernels, "mat_apply", "kernels.mat_apply", _mat_apply_work, False),
        (_kernels, "lpp_scan", "kernels.lpp_scan", _lpp_scan_work, False),
        (_kernels, "poly_mul", "kernels.poly_mul", _poly_mul_work, False),
        (verify, "is_pp", "verify.is_pp", _points, False),
        (verify, "is_lpp", "verify.is_lpp", _points, False),
        (verify, "assert_degree", "verify.assert_degree", _points, False),
        (constructions, "build_family",
         lambda a, k: f"constructions.{(a[0] if a else k['tag']).lower()}",
         None, False),
        (suites, "run_suite",
         lambda a, k: f"suites.{a[0] if a else k['name']}", _rows, False),
        (cli, "main", "cli.main", None, False),
    ]


def unit(metric):
    """Unit of a per-layer metric, read off its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s", "unattributed_s"):
        return "s"
    if last == "bytes":
        return "B"
    return "ratio" if last.endswith("ratio") else "count"


class Tracer:
    """Records spans into ``spans``; `new_pass` starts a fresh list so that
    every pass keeps its own parent indices."""

    def __init__(self):
        self.passes = []
        self.spans = []
        self._stack = []
        self._restore = []
        self.op = None

    def new_pass(self):
        self.spans = []
        self.passes.append(self.spans)

    def _wrap(self, fn, name, work):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        functions = {}
        for owner, attr, name, work, is_method in _targets():
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, work)
            if is_method:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                functions[id(fn)] = (fn, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ffperm"
                                   or mod_name.startswith("ffperm.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def run_op(self, op, fn):
        """Run fn() inside a root span for op, counting make_field cache
        hits and misses made during the call."""
        from ffperm.gf import make_field
        info = make_field.cache_info
        before = info()

        def cache_work(args, kwargs, result):
            after = info()
            return {"hits": after.hits - before.hits,
                    "misses": after.misses - before.misses}

        self.op = op
        try:
            return self._wrap(fn, f"op.{op}", cache_work)()
        finally:
            self.op = None

    def dump(self):
        return [[{"name": n, "start": s, "end": e, "parent": p, "op": o,
                  "work": w} for n, s, e, p, o, w in spans]
                for spans in self.passes]


def layer_metrics(spans):
    """Per-layer metrics over the spans of one pass.

    The pass's root spans are its ops.  ``.s`` is inclusive time of the
    outermost spans of a layer, ``.self_s`` excludes time spent in child
    spans, counts are summed work.
    """
    dur = [e - s for _, s, e, _, _, _ in spans]
    child = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
            children[rec[3]].append(i)
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def idx(names):
        return [i for n in names for i in by_name.get(n, ())]

    def outer(names):
        names = set(names)
        total = 0.0
        for i in idx(names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    def self_s(*names):
        return sum(dur[i] - child[i] for i in idx(names))

    def count(*names):
        return len(idx(names))

    def work(key, *names):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx(names))

    to_table = idx(["mvpoly.to_table"])
    reused = sum(1 for i in to_table
                 if not any(spans[c][0] == "kernels.mat_apply"
                            for c in children[i]))
    m = {
        "gf.field_build.s": outer(["gf.field_build"]),
        "gf.field_build.count": count("gf.field_build"),
        "mvpoly.poly_build.s": outer(["mvpoly.poly_build"]),
        "mvpoly.poly_build.terms_out": work("terms_out", "mvpoly.poly_build"),
        "mvpoly.mul.s": outer(["mvpoly.mul"]),
        "mvpoly.mul.calls": count("mvpoly.mul"),
        "mvpoly.to_table.s": outer(["mvpoly.to_table"]),
        "mvpoly.to_table.calls": len(to_table),
        "mvpoly.to_table.reuse_ratio": reused / len(to_table) if to_table
        else 0.0,
        "mvpoly.interpolate.s": outer(["mvpoly.interpolate"]),
        "mvpoly.compose_univariate.self_s": self_s("mvpoly.compose_univariate"),
        "mvpoly.substitute.s": outer(["mvpoly.substitute"]),
        "mvpoly.degree_readout.s": outer(DEGREE_READOUT),
        "mvpoly.json.s": outer(JSON_SPANS),
    }
    for k in ("mat_apply", "lpp_scan", "poly_mul"):
        m[f"kernels.{k}.s"] = outer([f"kernels.{k}"])
    m["kernels.mat_apply.calls"] = count("kernels.mat_apply")
    for key in ("values", "lookups", "bytes"):
        m[f"kernels.mat_apply.{key}"] = work(key, "kernels.mat_apply")
    m["kernels.lpp_scan.points"] = work("points", "kernels.lpp_scan")
    m["kernels.poly_mul.pairs"] = work("pairs", "kernels.poly_mul")
    for v in VERIFIERS:
        m[f"{v}.self_s"] = self_s(v)
    m["verify.points"] = work("points", *VERIFIERS)
    for tag in CONSTRUCTION_TAGS:
        m[f"constructions.{tag}.s"] = outer([f"constructions.{tag}"])
    for name in SUITE_NAMES:
        m[f"suites.{name}.s"] = outer([f"suites.{name}"])
    m["suites.rows"] = work("rows", *(f"suites.{n}" for n in SUITE_NAMES))
    m["cli.self_s"] = self_s("cli.main")
    roots = [i for i, rec in enumerate(spans) if rec[3] < 0]
    hits = sum(spans[i][5]["hits"] for i in roots)
    calls = hits + sum(spans[i][5]["misses"] for i in roots)
    m["gf.make_field.hit_ratio"] = hits / calls if calls else 0.0
    m["trace.unattributed_s"] = sum(dur[i] - child[i] for i in roots)
    return m
