"""Hot integer kernels in numpy.

mat_apply works on int64 rank arrays and the field lookup tables;
lpp_scan reads a value table alone.
"""

import numpy as np

# Values gathered per numpy call in mat_apply: a block of output rows spans
# about this many entries, which bounds the kernel's temporaries.
_BLOCK = 1 << 16
# mat_apply fuses each multiply-add into one gather only when R is at least
# this and at least q^2, so that building a block's tables (b q^2 lookups)
# costs no more than the gathers they replace.  Most of `ffperm check
# --all`'s 259 calls are tiny; in process on a 2-core x86 VM (medians of
# 20 alternating runs) it took 36.3 ms with the gate at q^2 alone, 35.0 ms
# with this value (15 calls fused) and 35.4 ms with no call fused.
_FUSED_MIN = 1024


def mat_apply(M, A, add_t, mul_t):
    """out[e, r] = sum_a M[e, a] * A[a, r] in the field (tables add_t/mul_t).

    M may have any number of rows (a row slice of a q x q field matrix gives
    the matching rows of out); the table stride q comes from add_t.
    All-zero rows of A are skipped: they add nothing, since mul_t[m, 0] == 0
    and add_t[x, 0] == x.  Each nonzero row updates a block of
    b = max(1, _BLOCK // R) output rows at a time, so a small R costs few
    numpy calls.  The gathers index flattened tables at x * q + y: a 1-D
    take is cheaper than a 2-D fancy index.  They read indices that are in
    range by construction, so mode="clip" changes no value; it spares the
    copy of out that mode="raise" buffers.

    For R >= max(q^2, _FUSED_MIN) each multiply-add is one gather, through
    W_m[x, y] = add_t[x, mul_t[m, y]]: add_t with its columns permuted by
    the constant m = M[e, a].  A block stacks the tables of its rows, and
    table e holds e * q + W_m, so each entry of row e is kept as e * q + x
    and blk * q + A[a] indexes the stack directly; the offsets are set once
    per block and removed at its end.  The tables cost b q^2 <= b R lookups
    per row of A, and the fused update's temporaries hold at most
    2 * max(R, _BLOCK) values.  Below the gate each row is a mul gather and
    an add gather: the first nonzero row writes its products into out
    instead of adding them to zeros, and a column of M whose entries are
    all 1 (found once per call) adds its row of A without the mul gather.
    """
    q = add_t.shape[0]
    rows = M.shape[0]
    R = A.shape[1]
    live = np.flatnonzero(A.any(axis=1))
    if live.size == 0:
        return np.zeros((rows, R), dtype=np.int64)
    out = np.empty((rows, R), dtype=np.int64)
    add_f = add_t.ravel()
    step = max(1, _BLOCK // max(R, 1))
    if R >= max(q * q, _FUSED_MIN):
        nonzero = live.tolist()
        b = min(step, rows)
        cols = q * np.arange(q)[:, None]
        off = q * np.arange(b)[:, None]
        W = np.empty((b, q, q), dtype=np.int64)
        for s in range(0, rows, step):
            blk = out[s:s + step]
            k = len(blk)
            Wk = W[:k]
            blk[...] = off[:k]
            for a in nonzero:
                np.add(cols, mul_t[M[s:s + step, a], None], out=Wk)
                add_f.take(Wk, out=Wk, mode="clip")
                Wk += off[:k, :, None]
                blk *= q
                blk += A[a]
                Wk.take(blk, out=blk, mode="clip")
            blk -= off[:k]
        return out
    mul_f = mul_t.ravel()
    ones = (M[:, live] == 1).all(axis=0).tolist()
    for i, a in enumerate(live.tolist()):
        row = A[a]
        for s in range(0, rows, step):
            blk = out[s:s + step]
            if ones[i]:
                prod = row
            else:
                prod = mul_f.take(q * M[s:s + step, a, None] + row)
            if i == 0:
                blk[...] = prod
                continue
            blk *= q
            blk += prod
            add_f.take(blk, out=blk, mode="clip")
    return out


# No caller: MultiPoly multiplies value tables.  Only the name is kept, for
# perfbench/tracer.py resolves it when it installs; moving the tracer onto
# spans recorded inside the library deletes it.
def poly_mul(*args, **kwargs):
    raise NotImplementedError("poly_mul has no implementation")


def lpp_scan(table, n, q):
    """Find the first coordinate restriction that is not a bijection.

    Scans coordinates in order; within a coordinate, assignments to the
    remaining variables run in rank order.  Returns (axis, lo, hi) where the
    failing assignment has rank lo*q^(n-1-axis)+hi, or (-1, -1, -1).

    The table holds values in [0, q).  For q <= 64 each value v becomes the
    bit 1 << v, shifted in place in one copy of the table in the smallest
    unsigned dtype that holds 2^q - 1, and a line is a bijection iff the OR
    of its q bits is 2^q - 1.  Larger q sorts each line instead.  Both tests
    flag the same lines, so the witness is the same.
    """
    L, R = 1, table.size // q
    if q <= 64:
        full = (1 << q) - 1
        dt = np.min_scalar_type(full)
        lines = table.astype(dt)
        np.left_shift(dt.type(1), lines, out=lines)

        def failing(view):
            return np.bitwise_or.reduce(view, axis=1) != full
    else:
        lines = table
        want = np.arange(q, dtype=np.int64)[None, :, None]

        def failing(view):
            return (np.sort(view, axis=1) != want).any(axis=1)
    for axis in range(n):
        bad = failing(lines.reshape(L, q, R))
        if bad.any():
            flat = int(np.argmax(bad.reshape(-1)))
            return axis, flat // R, flat % R
        L *= q
        R //= q
    return -1, -1, -1
