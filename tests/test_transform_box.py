"""The support box of _transform against a per-axis reference, on tensors
large enough for the box to be taken: each axis's matrix from
tests/oracle.py, applied along one axis at a time with mat_apply over
every row and column."""

import functools

import numpy as np
import pytest

from ffperm import _kernels, make_field, mvpoly
from ffperm.mvpoly import _transform
from oracle import NaiveField, naive_transform_matrices

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# (p, r, n) with q^n >= _SPARSE_MIN: q - 1 prime (8, 32, 128), radices
# the plan never takes (7, 9), and radices it takes on a full enough box
# (16, 27, 64)
CELLS = [(7, 1, 5), (2, 3, 5), (3, 2, 5), (2, 4, 4), (3, 3, 3), (2, 5, 3),
         (2, 6, 3), (2, 7, 2)]


@functools.cache
def oracle_matrices(p, r):
    """The oracle's evaluation and interpolation matrices over F_(p^r)."""
    field = make_field(p, r)
    nf = NaiveField(p, None if field.modulus is None
                    else tuple(field.modulus))
    return tuple(map(np.array, naive_transform_matrices(nf)))


def reference(field, arr, inverse, n):
    """The matrix of the direction applied along each of the first n axes
    in turn, every row and column, then the batch axes moved to the front."""
    M = oracle_matrices(field.p, field.r)[inverse]
    q, t = field.q, arr
    for axis in range(n):
        moved = np.moveaxis(t, axis, 0)
        out = _kernels.mat_apply(M, moved.reshape(q, -1), field.add_t,
                                 field.mul_t)
        t = np.moveaxis(out.reshape(moved.shape), 0, axis)
    return np.moveaxis(t, list(range(n)), list(range(-n, 0)))


@st.composite
def boxed(draw):
    """(p, r, n, tensor): 1 ... q live rows on each of the n axes, all of
    them nonzero, at a drawn density, with an optional batch axis."""
    p, r, n = draw(st.sampled_from(CELLS))
    q = p**r
    counts = [draw(st.integers(1, q)) for _ in range(n)]
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [np.sort(rng.choice(q, size=c, replace=False)) for c in counts]
    box = rng.integers(1, q, size=tuple(counts) + batch)
    box[rng.random(box.shape) >= density] = 0
    # a nonzero entry on a diagonal of the box keeps every drawn row live
    for m in range(max(counts)):
        box[tuple(m % c for c in counts)] = rng.integers(1, q)
    arr = np.zeros((q,) * n + batch, dtype=np.int64)
    arr[np.ix_(*rows)] = box
    return p, r, n, arr


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=boxed())
@example(case=(2, 5, 3, np.zeros((32,) * 3, dtype=np.int64)))
@example(case=(2, 4, 4, np.zeros((16,) * 4 + (3,), dtype=np.int64)))
def test_box_matches_the_per_axis_reference(case):
    p, r, n, arr = case
    field = make_field(p, r)
    assert arr.size >= mvpoly._SPARSE_MIN
    for inverse in (False, True):
        got = _transform(field, arr, inverse, n)
        assert got.shape == arr.shape[n:] + (field.q,) * n
        assert got.flags.c_contiguous
        assert np.array_equal(got, reference(field, arr, inverse, n))
