"""Command-line interface.

Commands
--------
construct  build a named family member and print it (JSON or text)
verify     check a property (--pp / --lpp / --degree N) of a polynomial JSON
check      run a named verification suite (or --all) and print one row per cell
field      print a field's structure (modulus, generator, tables)
scan       exhaustively scan all n-variable permutation polynomials for the
           degree bound

Exit codes: 0 = pass, 1 = a checked claim failed, 2 = usage or precondition
error (including exceeded caps outside of suite rows).  The point and scan
caps are set by the environment variables FFPERM_POINT_CAP and
FFPERM_SCAN_CAP.
"""

import argparse
import functools
import json
import sys

from . import constructions as cons
from . import suites
from . import verify as vf
from .errors import FFPermError
from .gf import make_field
from .mvpoly import MultiPoly, poly_from_json, poly_to_json


def format_element(field, c: int) -> str:
    s = field.element_str(c)
    return f"({s})" if "+" in s else s


def format_poly(f: MultiPoly) -> str:
    """Render with terms in descending exponent rank, e.g. x1^2*x2 + 2*x1."""
    if f.is_zero():
        return "0"
    parts = []
    for exps, c in sorted(f.terms(), reverse=True):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        cs = format_element(f.field, c)
        if not factors:
            parts.append(cs)
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([cs] + factors))
    return " + ".join(parts)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _field_arg(args):
    return make_field(args.p, args.r)


def cmd_construct(args) -> int:
    field = _field_arg(args)
    f, params = cons.build_family(args.family, field, n=args.n, b=args.b,
                                  k=args.k, alpha_rank=args.alpha_rank)
    if args.format == "text":
        print(format_poly(f))
    else:
        doc = poly_to_json(f)
        doc["family"] = args.family
        doc["params"] = params
        print(_dump(doc))
    return 0


def cmd_verify(args) -> int:
    chosen = [name for name, val in (("pp", args.pp), ("lpp", args.lpp),
                                     ("degree", args.degree is not None))
              if val]
    if len(chosen) != 1:
        raise FFPermError("choose exactly one of --pp, --lpp, --degree")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    f = poly_from_json(text)
    if args.pp:
        rep = vf.is_pp(f)
    elif args.lpp:
        rep = vf.is_lpp(f)
    else:
        rep = vf.assert_degree(f, args.degree)
    print(_dump(rep.to_json()))
    return 0 if rep.ok else 1


def cmd_check(args) -> int:
    if args.all:
        if (args.suite, args.p, args.r, args.n) != (None,) * 4:
            raise FFPermError("check --all runs every suite's default cells "
                              "and takes no --suite, --p, --r or --n")
        rows = suites.run_all()
    else:
        if args.suite is None:
            raise FFPermError("check needs --suite NAME or --all")
        if args.p is None and (args.r, args.n) != (None, None):
            raise FFPermError("--r and --n pick cells on one field and "
                              "need --p")
        override = None
        if args.p is not None:
            override = (args.p, 1 if args.r is None else args.r, args.n)
        rows = suites.run_suite(args.suite, override)
    for row in rows:
        print(row.line())
    n_fail = sum(1 for row in rows if row.gates)
    n_skip = sum(1 for row in rows if row.status == "skipped")
    print(f"rows={len(rows)} failed={n_fail} skipped={n_skip}")
    return 1 if n_fail else 0


def cmd_field(args) -> int:
    field = _field_arg(args)
    if args.format == "json":
        doc = field.to_json()
        doc["generator"] = field.generator
        if field.q <= 64:
            doc["add"] = field.add_t.tolist()
            doc["mul"] = field.mul_t.tolist()
        print(_dump(doc))
        return 0
    print(f"q={field.q} p={field.p} r={field.r}")
    if field.r > 1:
        print(f"modulus={list(field.modulus)}")
    print(f"generator={field.generator} ({field.element_str(field.generator)})")
    for a in field.elements():
        print(f"  {a}: {field.element_str(a)}")
    if field.q <= 64:
        print("add:")
        for a in field.elements():
            print("  " + " ".join(str(int(v)) for v in field.add_t[a]))
        print("mul:")
        for a in field.elements():
            print("  " + " ".join(str(int(v)) for v in field.mul_t[a]))
    else:
        print("tables omitted (q > 64)")
    return 0


def cmd_scan(args) -> int:
    field = _field_arg(args)
    rep = vf.scan_pp_degree_bound(field, args.n)
    print(_dump(rep.to_json()))
    return 0 if rep.ok else 1


def _add_field_args(sub, n_default=None):
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--r", type=int, default=1, help="extension degree")
    if n_default is not argparse.SUPPRESS:
        sub.add_argument("--n", type=int, default=n_default,
                         help="number of variables / family parameter")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it unchanged, so every
    main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="ffperm",
        description="permutation and local permutation polynomials over "
                    "small finite fields, with exhaustive verification")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family member")
    c.add_argument("--family", required=True, choices=cons.FAMILY_TAGS)
    _add_field_args(c)
    c.add_argument("--b", type=int, default=None, help="power-family exponent")
    c.add_argument("--k", type=int, default=None, help="power-family level")
    c.add_argument("--alpha-rank", type=int, default=None,
                   help="element rank for families with a free constant")
    c.add_argument("--format", choices=("json", "text"), default="json")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a property of a polynomial")
    v.add_argument("--input", required=True,
                   help="path to polynomial JSON, or - for stdin")
    v.add_argument("--pp", action="store_true", help="permutation check")
    v.add_argument("--lpp", action="store_true",
                   help="local permutation check")
    v.add_argument("--degree", type=int, default=None,
                   help="assert exact total degree")
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("check", help="run a named verification suite")
    k.add_argument("--suite", choices=suites.SUITE_NAMES, default=None)
    k.add_argument("--all", action="store_true", help="run every suite")
    k.add_argument("--p", type=int, default=None,
                   help="restrict the suite to one field")
    k.add_argument("--r", type=int, default=None,
                   help="extension degree with --p (default 1)")
    k.add_argument("--n", type=int, default=None,
                   help="with --p, only cells with this n")
    k.set_defaults(func=cmd_check)

    f = sub.add_parser("field", help="print field structure")
    _add_field_args(f, n_default=argparse.SUPPRESS)
    f.add_argument("--format", choices=("json", "text"), default="text")
    f.set_defaults(func=cmd_field)

    s = sub.add_parser("scan", help="scan all n-variable PPs for the degree "
                                    "bound")
    _add_field_args(s, n_default=2)
    s.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FFPermError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
