"""Hot integer kernels in numpy.

All kernels operate on int64 rank arrays plus the field lookup tables.
"""

import numpy as np

# Values gathered per numpy call in mat_apply: a block of output rows spans
# about this many entries, which bounds the kernel's temporaries.
_BLOCK = 1 << 16


def mat_apply(M, A, add_t, mul_t):
    """out[e, r] = sum_a M[e, a] * A[a, r] in the field (tables add_t/mul_t).

    M may have any number of rows (a row slice of a q x q field matrix gives
    the matching rows of out); the table stride q comes from add_t.
    All-zero rows of A are skipped: they add nothing, since mul_t[m, 0] == 0
    and add_t[x, 0] == x.  The first nonzero row writes its products into
    out instead of adding them to zeros, and a column of M whose entries are
    all 1 (found once per call) adds its row of A without the mul gather.
    Each nonzero row updates a block of max(1, _BLOCK // R) output rows per
    gather, so a small R costs few numpy calls, and the temporaries hold at
    most 2 * max(R, _BLOCK) values.  The gathers index the flattened tables
    at x * q + y: a 1-D take is cheaper than a 2-D fancy index.  The add
    take reads indices that are in range by construction, so mode="clip"
    changes no value; it spares the copy of out that mode="raise" buffers.
    """
    q = add_t.shape[0]
    rows = M.shape[0]
    R = A.shape[1]
    live = np.flatnonzero(A.any(axis=1))
    if live.size == 0:
        return np.zeros((rows, R), dtype=np.int64)
    out = np.empty((rows, R), dtype=np.int64)
    add_f = add_t.ravel()
    mul_f = mul_t.ravel()
    step = max(1, _BLOCK // max(R, 1))
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
    """
    size = table.size
    L, R = 1, size // q
    want = np.arange(q, dtype=np.int64)
    for axis in range(n):
        view = table.reshape(L, q, R)
        bad = (np.sort(view, axis=1) != want[None, :, None]).any(axis=1)
        if bad.any():
            flat = int(np.argmax(bad.reshape(-1)))
            return axis, flat // R, flat % R
        L *= q
        R //= q
    return -1, -1, -1
