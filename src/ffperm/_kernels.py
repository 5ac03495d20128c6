"""Hot integer kernels in numpy.

All kernels operate on int64 rank arrays plus the field lookup tables.
"""

import numpy as np


def mat_apply(M, A, add_t, mul_t):
    """out[e, r] = sum_a M[e, a] * A[a, r] in the field (tables add_t/mul_t)."""
    q = M.shape[0]
    R = A.shape[1]
    out = np.zeros((q, R), dtype=np.int64)
    for e in range(q):
        acc = out[e]
        for a in range(q):
            m = M[e, a]
            if m == 0:
                continue
            acc = add_t[acc, mul_t[m, A[a]]]
        out[e] = acc
    return out


# No caller: MultiPoly multiplies value tables.  Kept because the benchmark
# tracer (perfbench/tracer.py) resolves this name when it installs.
def poly_mul(exps_a, vals_a, exps_b, vals_b, q, radix, add_t, mul_t,
             digit_t, p_pows, p, out):
    """Accumulate the product of two term lists into the flat coeff array out.

    Exponent sums fold by e -> e - (q-1) when e >= q.  Coefficient digit
    vectors accumulate with np.add.at (collision safe) and ranks are
    recombined at the end.
    """
    r = digit_t.shape[1]
    acc = np.zeros((out.size, r), dtype=np.int64)
    for i in range(exps_a.shape[0]):
        t = exps_a[i][None, :] + exps_b
        t = np.where(t >= q, t - (q - 1), t)
        flat = t @ radix
        np.add.at(acc, flat, digit_t[mul_t[vals_a[i], vals_b]])
    acc %= p
    np.add(out, acc @ p_pows, out=out)  # out starts zeroed by the caller
    return out


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
