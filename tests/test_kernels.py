"""The numpy kernels on hand-made inputs and against the naive oracle,
and the per-axis transform (dense gather or mixed-radix DFT) against
them.  The reference matrices are built by repeated multiplication, never
from the field's exp and log."""

import gc
import tracemalloc

import numpy as np
import pytest

from ffperm import _kernels, make_field, mvpoly
from ffperm.constructions import pp_hn
from ffperm.gf import TABLE_CAP, _radices
from ffperm.mvpoly import _dense_matrix, _dft, _transform
from oracle import NaiveField, naive_transform_matrices, sort_lpp_scan

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
    E, L = map(np.array, naive_transform_matrices(nf))
    # (k+1) x q matrices: the interpolation rows that give the top k+1
    # coefficients, and a random one
    corners = [L[q - 1 - k:] for k in sorted({0, 1, q - 2})]
    corners.append(rng.integers(0, q, size=(min(2, q - 1), q)))
    for M in [E, L, rand_m] + corners:
        for A in shaped_inputs(rng, q):
            got = _kernels.mat_apply(M, A, F.add_t, F.mul_t)
            assert got.shape == (M.shape[0], A.shape[1])
            assert got.dtype == np.int64
            assert got.tolist() == naive_mat_apply(nf, M.tolist(), A.tolist())


@pytest.mark.parametrize("p,r,R", [(2, 4, 65536), (2, 6, 4096), (3, 3, 1024),
                                   (2, 6, 4095)])
def test_mat_apply_temporaries_are_bounded(p, r, R):
    F = make_field(p, r)
    A = np.random.default_rng(R).integers(0, F.q, size=(F.q, R))
    M = reference_matrices(F)[1]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = _kernels.mat_apply(M, A, F.add_t, F.mul_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first three cases take the fused update, which holds at most
    # 2 * max(R, _BLOCK) values, as the docstring says (at q = 64, R = 4096
    # a block's tables fill _BLOCK values); below the gate each update
    # takes its mul gather in place, so at most two block-sized product
    # arrays live at once, one row's and the next's (a full q x R int64
    # temporary alone is 32 * 65536 bytes at q = 64)
    fused = R >= max(F.q**2, _kernels._FUSED_MIN)
    assert fused == (R != 4095)
    per_value = 16 if fused else 24
    assert peak <= out.nbytes + per_value * max(R, _kernels._BLOCK)


# every field the tables admit: 198 prime powers, 192 of them with q - 1
# composite, where the transform has a multi-stage plan
PRIME_POWERS = [(p, r) for p in range(2, TABLE_CAP + 1)
                if _radices(p) == [p]
                for r in range(1, TABLE_CAP.bit_length())
                if p**r <= TABLE_CAP]


@pytest.mark.parametrize("p,r", [f for f in PRIME_POWERS if f[0]**f[1] <= 64])
def test_fused_mat_apply_matches_oracle(monkeypatch, p, r):
    # R one below the gate takes the row-by-row loop, R at the gate the
    # fused gather; _BLOCK = R gives blocks of one row, 3 R of three (a
    # short last block unless 3 divides the rows) and the default of
    # several.  M has an all-ones column, which meets a live row of A, and
    # is also applied as row slices.  A column of out depends only on its
    # column of A, so A's R columns are drawn from a pool of six, and the
    # oracle sums the pool alone: rows 1.. of A (row 0 is zero, row q - 1
    # meets the all-ones column), one live row, and no live row at all
    F = make_field(p, r)
    q = F.q
    nf = NaiveField(p, None if F.modulus is None else tuple(F.modulus))
    rng = np.random.default_rng(q)
    M = rng.integers(0, q, size=(q, q))
    M[:, q - 1] = 1
    dense = rng.integers(0, q, size=(q, 6))
    dense[0] = 0
    dense[q - 1] = rng.integers(1, q, size=6)
    one = np.zeros((q, 6), dtype=np.int64)
    one[q // 2] = rng.integers(1, q, size=6)
    zero = np.zeros((q, 6), dtype=np.int64)
    gate = max(q * q, _kernels._FUSED_MIN)
    for pool in (dense, one, zero):
        want = np.array(naive_mat_apply(nf, M.tolist(), pool.tolist()))
        for R in (gate - 1, gate):
            pick = rng.integers(0, 6, size=R)
            A = pool[:, pick]
            for block in (R, 3 * R, 1 << 16):
                monkeypatch.setattr(_kernels, "_BLOCK", block)
                for lo, hi in ((0, q), (1, min(q, 4)), (q - 1, q)):
                    got = _kernels.mat_apply(M[lo:hi], A, F.add_t, F.mul_t)
                    assert got.shape == (hi - lo, R) and got.dtype == np.int64
                    assert np.array_equal(got, want[lo:hi, pick]), (R, block)


def test_field_tables_match_digit_arithmetic_on_every_field():
    # add_t, built as a Kronecker sum, against digit-wise addition mod p
    # (rows in blocks, to keep the q x q x r digit sums small); mul_t at
    # r = 1 against integer multiplication mod p
    for p, r in PRIME_POWERS:
        F = make_field(p, r)
        q = F.q
        D = (np.arange(q)[:, None] // F.p_pows) % p
        for lo in range(0, q, 64):
            want = ((D[lo:lo + 64, None] + D[None]) % p) @ F.p_pows
            assert np.array_equal(F.add_t[lo:lo + 64], want), (p, r, lo)
        if r == 1:
            a = np.arange(q)
            assert np.array_equal(F.mul_t, np.multiply.outer(a, a) % p), p


def reference_matrices(F):
    """The evaluation matrix E[c, e] = c^e (0^0 = 1), one column at a time
    by repeated multiplication through mul_t, and the interpolation matrix:
    E reflected and negated, with 1 added to row 0."""
    q = F.q
    ar = np.arange(q)
    E = np.ones((q, q), dtype=np.int64)
    for e in range(1, q):
        E[:, e] = F.mul_t[E[:, e - 1], ar]
    L = F.neg_t[E.T[::-1]]
    L[0] = F.add_t[1, L[0]]
    return E, L


def dense_gather(F, A, inverse):
    """The reference matrix of the direction applied to A."""
    M = reference_matrices(F)[inverse]
    return _kernels.mat_apply(M, A, F.add_t, F.mul_t)


def test_dft_matches_the_dense_gather_on_every_field():
    # both plans against the reference: the one-stage plan's matrices
    # themselves, and the multi-stage plan and the plan _transform picks
    # on a random input
    assert len(PRIME_POWERS) == 198
    multi = 0
    for p, r in PRIME_POWERS:
        F = make_field(p, r)
        q = F.q
        radices = _radices(q - 1)
        assert np.prod(radices, dtype=np.int64) == q - 1
        A = np.random.default_rng(q).integers(0, q, size=(q, 2))
        for inverse, M in zip((False, True), reference_matrices(F)):
            assert np.array_equal(_dense_matrix(F, inverse), M), q
            want = _kernels.mat_apply(M, A, F.add_t, F.mul_t)
            assert np.array_equal(_transform(F, A, inverse, 1).T, want)
            if len(radices) > 1:
                assert np.array_equal(_dft(F, A, inverse, radices), want), q
        multi += len(radices) > 1
    assert multi == 192


def test_sparse_columns_match_the_dense_gather_on_every_field(monkeypatch):
    # with no size gate, an input with two nonzero columns among nine has
    # just those two transformed and scattered into zeros, where a linear
    # map sends the other seven: a random pair, and a pair with two
    # nonzero rows, whose support box reads only the two matrix columns
    # those rows meet, at every q.  Those partial matrices are a column
    # slice of the full one for any sorted set of columns.  The reference
    # is the dense gather of the two columns alone
    monkeypatch.setattr(mvpoly, "_SPARSE_MIN", 0)
    live = [2, 7]
    for p, r in PRIME_POWERS:
        F = make_field(p, r)
        q = F.q
        rng = np.random.default_rng(q)
        dense = rng.integers(0, q, size=(q, 2))
        two = np.zeros((q, 2), dtype=np.int64)
        two[rng.choice(q, size=2, replace=False)] = rng.integers(1, q, (2, 2))
        picks = [np.arange(0), np.array([0]), np.array([q - 1]),
                 np.arange(1, q, 2),
                 np.sort(rng.choice(q, size=min(q, 5), replace=False))]
        for inverse, M in zip((False, True), reference_matrices(F)):
            full = _dense_matrix(F, inverse)
            for at in picks:
                part = _dense_matrix(F, inverse, at)
                assert part.shape == (q, at.size) and part.dtype == np.int64
                assert np.array_equal(part, full[:, at]), (q, inverse, at)
            for cols in (dense, two):
                A = np.zeros((q, 9), dtype=np.int64)
                A[:, live] = cols
                got = _transform(F, A, inverse, 1).T
                want = _kernels.mat_apply(M, cols, F.add_t, F.mul_t)
                assert np.array_equal(got[:, live], want), q
                assert not np.delete(got, live, axis=1).any(), q


@pytest.mark.parametrize("p,r", ORACLE_FIELDS + [(7, 1), (2, 4), (3, 3),
                                                 (2, 6)])
def test_dft_on_shaped_inputs(p, r):
    # all zero, one and two nonzero rows, dense, R = 0 and 1, and zero
    # columns, against the dense gather and, on the oracle fields, the
    # naive sum; q - 1 prime has no multi-stage plan
    F = make_field(p, r)
    q = F.q
    rng = np.random.default_rng(7 * q)
    A = rng.integers(0, q, size=(q, 6))
    A[:, 1::2] = 0
    nf = NaiveField(p, None if F.modulus is None else tuple(F.modulus))
    radices = _radices(q - 1)
    for A in shaped_inputs(rng, q) + [A]:
        for inverse in (False, True):
            want = dense_gather(F, A, inverse)
            if (p, r) in ORACLE_FIELDS:
                M = naive_transform_matrices(nf)[inverse]
                assert want.tolist() == naive_mat_apply(nf, M, A.tolist())
            if len(radices) > 1:
                got = _dft(F, A, inverse, radices)
                assert got.shape == A.shape and got.dtype == np.int64
                assert np.array_equal(got, want)


@pytest.fixture
def staged(monkeypatch):
    """The (q, R) shape of every axis that runs the multi-stage plan."""
    calls = []
    real = mvpoly._dft

    def recording(field, A, inverse, radices):
        calls.append(A.shape)
        return real(field, A, inverse, radices)

    monkeypatch.setattr(mvpoly, "_dft", recording)
    return calls


def test_plan_switches_at_the_cutoff(staged):
    # q = 64, radices 3 3 7: the plan costs 13 + 3 * _STAGE_ROWS rows, and
    # runs where (nonzero rows - cost) * q * R reaches _DFT_MIN, so one
    # axis of each pair lies on each side of the cutoff
    F = make_field(2, 6)
    q = F.q
    cost = 13 + 3 * mvpoly._STAGE_ROWS
    wide = -(-mvpoly._DFT_MIN // ((q - cost) * q))   # fewest columns
    rng = np.random.default_rng(64)
    cases = [(wide - 1, q, False), (wide, q, True),
             (4096, cost, False), (4096, cost + 1, True)]
    for R, rows, multi in cases:
        A = rng.integers(1, q, size=(q, R))
        A[rows:] = 0
        for inverse in (False, True):
            staged.clear()
            got = _transform(F, A, inverse, 1).T
            assert staged == ([(q, R)] if multi else []), (R, rows)
            assert np.array_equal(got, dense_gather(F, A, inverse))
    # over the size gate the plan sees the compacted A: the same cutoff,
    # counted on the nonzero columns alone (under a quarter of 4096) and
    # on the nonzero rows among them
    R = 4096
    assert q * R >= mvpoly._SPARSE_MIN
    cases = [(wide - 1, q, False), (wide, q, True),
             (63, cost + 1, False), (64, cost + 1, True)]
    for live, rows, multi in cases:
        A = np.zeros((q, R), dtype=np.int64)
        cols = np.sort(rng.choice(R, size=live, replace=False))
        A[:rows, cols] = rng.integers(1, q, size=(rows, live))
        for inverse in (False, True):
            staged.clear()
            got = _transform(F, A, inverse, 1).T
            assert staged == ([(q, live)] if multi else []), (live, rows)
            assert np.array_equal(got, dense_gather(F, A, inverse))


def test_prime_and_small_axes_take_the_dense_gather(staged):
    # q - 1 prime (q = 2, 3, 4, 8, 32, 128) has no multi-stage plan, and
    # an R = 1 axis at q <= 27 never saves _DFT_MIN lookups
    for p, r, R in [(2, 1, 4096), (2, 5, 1024), (2, 7, 64), (3, 3, 1),
                    (5, 2, 1), (2, 4, 1)]:
        F = make_field(p, r)
        A = np.random.default_rng(R).integers(1, F.q, size=(F.q, R))
        for inverse in (False, True):
            got = _transform(F, A, inverse, 1).T
            assert np.array_equal(got, dense_gather(F, A, inverse))
    assert staged == []


@pytest.mark.parametrize("p,r,R", [(2, 6, 4096), (2, 10, 1024)])
def test_dft_temporaries_are_bounded(staged, p, r, R):
    F = make_field(p, r)
    q = F.q
    A = np.random.default_rng(R).integers(0, q, size=(q, R))
    unit = q * R * 8                 # bytes of one q x R int64 array
    for inverse in (False, True):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _transform(F, A, inverse, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # between stages one q x R array lives; a stage of radix p adds its
        # output and mat_apply's temporaries, which the mat_apply test
        # bounds by 32 bytes per entry of a (p, q R / p) input row, and the
        # smallest radix here is 3 (63 = 3*3*7, 1023 = 3*11*31); the exit
        # gather and the contiguous result hold two arrays
        assert peak <= 2 * unit + 32 * max(q * R // 3, _kernels._BLOCK)
    assert len(staged) == 2


def peak_bytes(run):
    """The tracemalloc peak of run(), measured after a full collection:
    it empties the interpreter's free lists, so that the small objects
    run() makes are allocated, and counted, the same way on every call."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_path_peaks_no_higher_than_every_column(monkeypatch):
    # evaluating pp_hn q=32 n=4 (2^20 entries, 32 terms) through the axis
    # order and the column scan holds no more memory at its peak than
    # the same transform over every column in axis order
    F = make_field(2, 5)
    coeffs = np.array(pp_hn(F, 4).coeffs)
    want = _transform(F, coeffs, False, 4)
    sparse = peak_bytes(lambda: _transform(F, coeffs, False, 4))
    monkeypatch.setattr(mvpoly, "_SPARSE_MIN", coeffs.size + 1)
    assert np.array_equal(_transform(F, coeffs, False, 4), want)
    every = peak_bytes(lambda: _transform(F, coeffs, False, 4))
    assert sparse <= every, (sparse, every)


def test_sparse_evaluation_applies_the_support_columns(monkeypatch):
    # pp_hn q=32 n=4 is x1^31 x2^31 x3^31 (1 + x4 + ... + x4^30) + x4: its
    # support box has 31 rows on x4 and 2 on each other axis.  q - 1 = 31
    # is prime, so every axis is one dense mat_apply, largest support
    # first, of the matrix columns of those rows alone
    F = make_field(2, 5)
    coeffs = np.array(pp_hn(F, 4).coeffs)
    want = reference_matrices(F)[0]
    applied = []
    real = _kernels.mat_apply

    def recording(M, A, add_t, mul_t):
        applied.append(M)
        return real(M, A, add_t, mul_t)

    monkeypatch.setattr(_kernels, "mat_apply", recording)
    got = _transform(F, coeffs, False, 4)
    assert [M.shape for M in applied] == [(32, 31), (32, 2), (32, 2),
                                          (32, 2)]
    assert np.array_equal(applied[0], want[:, :31])
    assert all(np.array_equal(M, want[:, [0, 31]]) for M in applied[1:])
    monkeypatch.setattr(_kernels, "mat_apply", real)
    monkeypatch.setattr(mvpoly, "_SPARSE_MIN", coeffs.size + 1)
    assert np.array_equal(got, _transform(F, coeffs, False, 4))


@pytest.mark.parametrize("p,r,n,batch", [(2, 5, 3, ()), (2, 4, 4, (3,)),
                                         (7, 1, 5, ()), (2, 7, 2, (2,))])
def test_all_zero_tensor_over_the_gate_is_zero(monkeypatch, p, r, n, batch):
    # the support box of zeros is empty: the result is zeros of the output
    # shape, and no matrix is applied
    F = make_field(p, r)
    arr = np.zeros((F.q,) * n + batch, dtype=np.int64)
    assert arr.size >= mvpoly._SPARSE_MIN

    def no_transform(*args):
        raise AssertionError("unexpected transform")

    monkeypatch.setattr(_kernels, "mat_apply", no_transform)
    monkeypatch.setattr(mvpoly, "_dft", no_transform)
    for inverse in (False, True):
        got = _transform(F, arr, inverse, n)
        assert got.shape == batch + (F.q,) * n and got.dtype == np.int64
        assert got.flags.c_contiguous and not got.any()


def test_size_gate_allocates_nothing_extra(monkeypatch):
    # just under the gate, a transform allocates exactly what it does with
    # the gate out of reach: the gate itself makes nothing
    for p, r, n in [(5, 1, 6), (3, 2, 4), (2, 1, 13), (127, 1, 2)]:
        F = make_field(p, r)
        shape = (F.q,) * n
        assert np.prod(shape) < mvpoly._SPARSE_MIN
        arr = np.zeros(shape, dtype=np.int64)
        arr[(0,) * n] = 1
        for inverse in (False, True):
            _transform(F, arr, inverse, n)      # warm numpy's caches
            under = peak_bytes(lambda: _transform(F, arr, inverse, n))
            with monkeypatch.context() as m:
                m.setattr(mvpoly, "_SPARSE_MIN", 1 << 62)
                every = peak_bytes(lambda: _transform(F, arr, inverse, n))
            assert under == every, (F.q, n, inverse)


def test_dense_matrix_temporaries_are_bounded():
    # the one-stage matrices are made on each call; neither build holds
    # more than two q x q int64 arrays at once
    F = make_field(2, 10)
    q = F.q
    for inverse in (False, True):
        tracemalloc.start()
        try:
            M = _dense_matrix(F, inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.shape == (q, q)
        assert peak <= 2 * 8 * q * q + 2**20, (inverse, peak)


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
    # the same at q = 64 (the widest mask) and q = 128 (the sort):
    # f = x1 fails only along x2; x1 + x2 with f(1,5) := f(0,5) fails along
    # x1 first, at x2 = 5, though x1 = 0 and x1 = 1 also fail along x2
    for q in (64, 128):
        x1, x2 = np.indices((q, q)).reshape(2, -1)
        assert _kernels.lpp_scan(x1, 2, q) == (1, 0, 0)
        tbl = (x1 + x2) % q
        tbl[q + 5] = tbl[5]
        assert _kernels.lpp_scan(tbl, 2, q) == (0, 0, 5)


LPP_FIELDS = [q for q in sorted({p**r for p, r in PRIME_POWERS}) if q <= 64]


def latin(q, n):
    """x_1 + ... + x_n mod q: a bijection along every line."""
    return np.indices((q,) * n).reshape(n, -1).sum(axis=0) % q


def scan_cases(q, n):
    """Named value tables of F_q^n for the scan, each int64 in [0, q)."""
    good = latin(q, n)
    cases = {"bijective": good, "constant": np.zeros_like(good)}
    if n > 1:
        # x_1 + ... + x_(n-1): every line passes but those along x_n
        cases["last axis"] = latin(q, n - 1).repeat(q)
    for axis in range(n):
        # the last line along x_(axis+1), all others at q-1, repeats its
        # value at x = 1 where x = 0 should be
        t = good.copy()
        pos = q**n - 1 - (q - 1) * q ** (n - 1 - axis)
        t[pos] = t[pos + q ** (n - 1 - axis)]
        cases[f"last line of axis {axis}"] = t
    # one value q-1 made q-2: the top bit of a full mask goes missing (at
    # q = 8, 16, 32 and 64 that is the top bit of the mask's dtype)
    t = good.copy()
    t[np.flatnonzero(t == q - 1)[-1]] = q - 2
    cases["top value missing"] = t
    return cases


@pytest.mark.parametrize("q", LPP_FIELDS)
def test_lpp_scan_matches_sort_on_every_field(q):
    for n in (1, 2, 3):
        if q**n > 1 << 18:
            continue
        for name, t in scan_cases(q, n).items():
            want = sort_lpp_scan(t, n, q)
            assert _kernels.lpp_scan(t, n, q) == want, (q, n, name)
            if name == "bijective":
                assert want == (-1, -1, -1)
            elif name == "last axis":
                assert want == (n - 1, 0, 0)
            elif name == "last line of axis 0":
                assert want == (0, 0, q ** (n - 1) - 1)


def test_lpp_scan_matches_sort_on_random_tables():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def perturbed(draw):
        """A bijective table of F_q^n (q <= 64 or the sort's 128) with up
        to 3 entries overwritten by any value in [0, q)."""
        q = draw(st.sampled_from(LPP_FIELDS + [128]))
        n = draw(st.sampled_from([n for n in (1, 2, 3) if q**n <= 1 << 14]))
        t = latin(q, n)
        for _ in range(draw(st.integers(0, 3))):
            t[draw(st.integers(0, t.size - 1))] = draw(st.integers(0, q - 1))
        return q, n, t

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  database=None)
    @hyp.given(perturbed())
    def check(case):
        q, n, t = case
        assert _kernels.lpp_scan(t, n, q) == sort_lpp_scan(t, n, q)

    check()


@pytest.mark.parametrize("q,n", [(16, 5), (64, 3)])
def test_lpp_scan_temporaries_are_bounded(q, n):
    # the masks are one table-sized array of the mask dtype, shifted in
    # place, and one axis reduction at a time; a bijective table makes the
    # scan reduce every axis.  Measured peaks: 2.36 MB at q = 16 n = 5 and
    # 2.14 MB at q = 64 n = 3 (bounds 3.28 and 3.18 MB); shifting out of
    # place adds a second table of masks, and sorting an int64 copy
    t = latin(q, n)
    itemsize = np.min_scalar_type((1 << q) - 1).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert _kernels.lpp_scan(t, n, q) == (-1, -1, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= itemsize * (t.size + t.size // q) + 2**20, peak
