"""Exact arithmetic over small finite fields, permutation polynomials and
local permutation polynomials of maximum degree, and exhaustive verifiers.

Quick start::

    from ffperm import make_field, pp_hn, is_pp

    field = make_field(3, 2)          # F_9
    f = pp_hn(field, 2)               # 2-variable PP of degree 2*(9-1)-1
    assert is_pp(f).ok
"""

from .caps import DEFAULT_POINT_CAP, DEFAULT_SCAN_CAP
from .constructions import (FAMILY_TAGS, build_family, dickson, h_polys,
                            indicator_poly, is_univariate_pp, lpp_beta,
                            lpp_chain, lpp_indicator, lpp_linear, lpp_max,
                            lpp_power, lpp_restrict, lpp_three, pp_alpha4,
                            pp_dickson, pp_hn, pp_monomial, pp_product,
                            t_poly, transposition)
from .errors import (BadDegree, CapExceeded, DivisionByZero, EqualPoints,
                     FFPermError, FieldMismatch, IndexOutOfRange,
                     NoIrreducibleFound, NoNonResidue, NoValidB, NotMaxLpp,
                     NotPrime, UnsupportedField, VariableCountMismatch)
from .gf import Field, field_from_json, make_field
from .mvpoly import (FuncTable, MultiPoly, compose_univariate, interpolate,
                     points, poly_build, poly_from_json, poly_to_json,
                     to_table)
from .verify import (VerifyReport, assert_degree, check_identities,
                     check_lemma_deg, conjecture_fn, is_lpp, is_pp,
                     preimage_counts, scan_pp_degree_bound)

__version__ = "1.0.0"

__all__ = [
    "BadDegree", "CapExceeded", "DEFAULT_POINT_CAP", "DEFAULT_SCAN_CAP",
    "DivisionByZero", "EqualPoints", "FAMILY_TAGS", "FFPermError", "Field",
    "FieldMismatch", "FuncTable", "IndexOutOfRange", "MultiPoly",
    "NoIrreducibleFound", "NoNonResidue", "NoValidB", "NotMaxLpp", "NotPrime",
    "UnsupportedField", "VariableCountMismatch", "VerifyReport",
    "assert_degree", "build_family", "check_identities", "check_lemma_deg",
    "compose_univariate", "conjecture_fn", "dickson", "field_from_json",
    "h_polys", "indicator_poly", "interpolate", "is_lpp", "is_pp",
    "is_univariate_pp", "lpp_beta", "lpp_chain", "lpp_indicator",
    "lpp_linear", "lpp_max", "lpp_power", "lpp_restrict", "lpp_three",
    "make_field", "points", "poly_build", "poly_from_json", "poly_to_json",
    "pp_alpha4", "pp_dickson", "pp_hn", "pp_monomial", "pp_product",
    "preimage_counts", "scan_pp_degree_bound", "t_poly", "to_table",
    "transposition",
]
