import pytest

from ffperm import FFPermError, build_family, make_field, suites
from ffperm.constructions import FAMILY_TAGS
from oracle import SMALL_FIELDS


@pytest.fixture(scope="session")
def suite_rows():
    """Run every named suite once per test session and share the rows."""
    return {name: suites.run_suite(name) for name in suites.SUITE_NAMES}


@pytest.fixture(scope="session")
def family_polys():
    """(label, poly) for every family that builds over SMALL_FIELDS with
    n in {1, 2, 3} (lpp_power with b = 2).  Shared: derive new polynomials
    from them instead of relying on which domain they hold."""
    out = []
    for tag in FAMILY_TAGS:
        for p, r in SMALL_FIELDS:
            field = make_field(p, r)
            for n in (1, 2, 3):
                try:
                    f, _ = build_family(tag, field, n=n,
                                        b=2 if tag == "lpp_power" else None)
                except (FFPermError, ValueError):
                    continue
                out.append((f"{tag} q={field.q} n={n}", f))
    return out
