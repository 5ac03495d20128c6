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
# --all`'s 228 calls are tiny, and 15 are fused.  In process on a 2-core
# x86 VM (medians of 20 alternating runs, measured when the run made 259
# calls) it took 36.3 ms with the gate at q^2 alone, 35.0 ms with this
# value and 35.4 ms with no call fused.
_FUSED_MIN = 1024


def mat_apply(M, A, add_t, mul_t):
    """out[e, r] = sum_a M[e, a] * A[a, r] in the field (tables add_t/mul_t).

    M may have any number of rows (a row slice of a q x q field matrix gives
    the matching rows of out); the table stride q comes from add_t.
    All-zero rows of A are skipped: they add nothing, since mul_t[m, 0] == 0
    and add_t[x, 0] == x.  out is filled a block of b = max(1, _BLOCK // R)
    output rows at a time, so a small R costs few numpy calls: the block is
    set once, then each nonzero row a updates it in place by one rule,
    blk <- T[q * blk + x].  The gathers index flattened tables at x * q + y:
    a 1-D take is cheaper than a 2-D fancy index.  They read indices that
    are in range by construction, so mode="clip" changes no value; it
    spares the copy of out that mode="raise" buffers.

    Below R = max(q^2, _FUSED_MIN) the block starts at 0, T is add_t and x
    holds the products mul_t[M[e, a], A[a]], taken in place into their
    index array.  From there on each multiply-add is one gather, through
    W_m[x, y] = add_t[x, mul_t[m, y]]: add_t with its columns permuted by
    the constant m = M[e, a].  T stacks the tables of the block's rows, and
    table e holds e * q + W_m, so each entry of row e is kept as e * q + x,
    the block starts at those offsets, x is A[a], and the offsets are
    removed at the block's end.  The tables cost b q^2 <= b R lookups per
    row of A, and the fused update's temporaries hold at most
    2 * max(R, _BLOCK) values.
    """
    q = add_t.shape[0]
    rows, R = M.shape[0], A.shape[1]
    live = np.flatnonzero(A.any(axis=1)).tolist()
    out = np.empty((rows, R), dtype=np.int64)
    add_f, mul_f = add_t.ravel(), mul_t.ravel()
    step = max(1, _BLOCK // max(R, 1))
    fused = R >= max(q * q, _FUSED_MIN)
    if fused:
        cols = q * np.arange(q)[:, None]
        off = q * np.arange(min(step, rows))[:, None]
        W = np.empty((len(off), q, q), dtype=np.int64)
    for s in range(0, rows, step):
        blk = out[s:s + step]
        k = len(blk)
        blk[...] = off[:k] if fused else 0
        for a in live:
            m = M[s:s + step, a, None]
            if fused:
                T, x = W[:k], A[a]
                np.add(cols, mul_t[m], out=T)
                add_f.take(T, out=T, mode="clip")
                T += off[:k, :, None]
            else:
                T, x = add_f, q * m + A[a]
                mul_f.take(x, out=x, mode="clip")
            blk *= q
            blk += x
            T.take(blk, out=blk, mode="clip")
        if fused:
            blk -= off[:k]
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
