"""The numpy kernels on hand-made inputs and against the naive oracle."""

import tracemalloc

import numpy as np
import pytest

from ffperm import _kernels, make_field
from oracle import NaiveField

ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)]


def naive_mat_apply(nf, M, A):
    rows, q, R = len(M), len(A), len(A[0])
    out = [[0] * R for _ in range(rows)]
    for e in range(rows):
        for r in range(R):
            acc = 0
            for a in range(q):
                acc = nf.add(acc, nf.mul(int(M[e][a]), int(A[a][r])))
            out[e][r] = acc
    return out


def shaped_inputs(rng, q):
    """A inputs: all zero, one and two nonzero rows, dense, R = 0 and 1."""
    def rows(nz, R):
        A = np.zeros((q, R), dtype=np.int64)
        picked = rng.choice(q, size=nz, replace=False)
        A[picked] = rng.integers(1, q, size=(nz, R))
        return A
    return [rows(0, 5), rows(1, 5), rows(2, 3), rows(q, 11),
            rows(q, 0), rows(q, 1), rows(1, 1)]


@pytest.mark.parametrize("p,r", ORACLE_FIELDS)
@pytest.mark.parametrize("block", [8, 1 << 16])
def test_mat_apply_matches_oracle(monkeypatch, p, r, block):
    # block 8 gives step 1 for R >= 5, and step 2 (R = 3) or 8 (R = 1) leaves
    # a short last block on the odd q
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    F = make_field(p, r)
    nf = NaiveField(p, None if F.modulus is None else tuple(F.modulus))
    rng = np.random.default_rng(100 * p + r)
    q = F.q
    rand_m = rng.integers(0, q, size=(q, q))
    # (k+1) x q matrices: the interpolation rows that give the top k+1
    # coefficients, and a random one
    corners = [F.lagr_rows(q - 1 - k) for k in sorted({0, 1, q - 2})]
    corners.append(rng.integers(0, q, size=(min(2, q - 1), q)))
    for M in [F.pow_t, F.lagr_rows(), rand_m] + corners:
        for A in shaped_inputs(rng, q):
            got = _kernels.mat_apply(M, A, F.add_t, F.mul_t)
            assert got.shape == (M.shape[0], A.shape[1])
            assert got.dtype == np.int64
            assert got.tolist() == naive_mat_apply(nf, M.tolist(), A.tolist())


@pytest.mark.parametrize("p,r,R", [(2, 4, 65536), (2, 6, 4096)])
def test_mat_apply_temporaries_are_bounded(p, r, R):
    F = make_field(p, r)
    A = np.random.default_rng(R).integers(0, F.q, size=(F.q, R))
    M = F.lagr_rows()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = _kernels.mat_apply(M, A, F.add_t, F.mul_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full q x R int64 temporary alone is 32 * 65536 bytes at q=64
    assert peak <= out.nbytes + 32 * max(R, _kernels._BLOCK)


def test_lpp_scan_reports_lowest_witness():
    # craft a 2-variable table over F_2 bad in both axes; the witness must be
    # axis 0 with the lowest assignment rank
    q = 2
    tbl = np.array([0, 0, 1, 1], dtype=np.int64)  # f(0,0)=0 f(0,1)=0 ...
    # axis 0 restriction x2=0: values (0, 1) fine; x2=1: (0, 1) fine
    # axis 1 restriction x1=0: values (0, 0) bad at lo=0
    assert _kernels.lpp_scan(tbl, 2, q) == (1, 0, 0)
    tbl2 = np.array([0, 0, 0, 1], dtype=np.int64)
    # axis 0, x2=0 gives f(0,0)=0, f(1,0)=0: witness (0, 0, 0)
    assert _kernels.lpp_scan(tbl2, 2, q) == (0, 0, 0)
