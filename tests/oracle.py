"""Independent pure-Python oracles used to cross-check the library.

Everything here is deliberately naive and table-free: field arithmetic by
polynomial long division on coefficient tuples, polynomial evaluation by
repeated multiplication, permutation checks by literal set comparison.  No
shared code paths with the package under test.  Only sort_lpp_scan and
extend use numpy: the first is the line scan by sorting, fast enough to be
the reference on tables of up to 2^20 points; extend embeds a package
polynomial in more variables by broadcasting its table, the reference for
the family tables that the package grows one variable at a time.
"""

import itertools

import numpy as np

# (p, r) of the small fields the cross-checks sweep
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


class NaiveField:
    """F_p[z]/(m(z)) on integer ranks, all arithmetic by schoolbook algebra.

    ``modulus`` is the constant-first coefficient tuple of a monic degree-r
    polynomial; rank(c_0..c_{r-1}) = sum c_i p^i, matching the package.
    """

    def __init__(self, p: int, modulus: tuple[int, ...] | None = None):
        self.p = p
        if modulus is None:           # prime field: plain integers mod p
            self.r = 1
            self.modulus = None
        else:
            assert modulus[-1] == 1, "modulus must be monic"
            self.r = len(modulus) - 1
            self.modulus = tuple(modulus)
        self.q = p**self.r

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.r):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def rank(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + d
        return out

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        return self.rank((x + y) % self.p
                         for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        return (-a) % self.p if self.r == 1 else \
            self.rank((-x) % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the monic modulus by long division
        for k in range(len(prod) - 1, self.r - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, m in enumerate(self.modulus[:-1]):
                    prod[k - self.r + i] = (prod[k - self.r + i] - c * m) % self.p
        return self.rank(prod[:self.r])

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def inv(self, a: int) -> int:
        assert a != 0
        for b in range(self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found")


def naive_eval(field: NaiveField, n: int, terms, point) -> int:
    """Evaluate a term list [(exps, coeff)] at a point, term by term."""
    total = 0
    for exps, c in terms:
        v = c
        for i in range(n):
            v = field.mul(v, field.pow(point[i], exps[i]))
        total = field.add(total, v)
    return total


def all_points(field: NaiveField, n: int):
    return itertools.product(range(field.q), repeat=n)


def naive_is_pp(field: NaiveField, n: int, terms) -> bool:
    counts = {}
    for pt in all_points(field, n):
        v = naive_eval(field, n, terms, pt)
        counts[v] = counts.get(v, 0) + 1
    want = field.q ** (n - 1)
    return all(counts.get(a, 0) == want for a in range(field.q))


def naive_is_lpp(field: NaiveField, n: int, terms) -> bool:
    for i in range(n):
        for rest in itertools.product(range(field.q), repeat=n - 1):
            seen = set()
            for a in range(field.q):
                pt = rest[:i] + (a,) + rest[i:]
                seen.add(naive_eval(field, n, terms, pt))
            if len(seen) != field.q:
                return False
    return True


def naive_poly_mul(field: NaiveField, n: int, terms_a, terms_b):
    """Multiply two term lists in the reduced ring; returns sorted terms."""
    q = field.q
    acc: dict[tuple[int, ...], int] = {}
    for ea, ca in terms_a:
        for eb, cb in terms_b:
            e = tuple(x + y if x + y < q else ((x + y - 1) % (q - 1)) + 1
                      for x, y in zip(ea, eb))
            acc[e] = field.add(acc.get(e, 0), field.mul(ca, cb))
    return sorted((e, c) for e, c in acc.items() if c != 0)


def naive_fold(e: int, q: int) -> int:
    """x^e as a function on F_q equals x^fold(e): x^q = x, x^0 stays 1."""
    return e if e < q else ((e - 1) % (q - 1)) + 1


def naive_poly_build(field: NaiveField, n: int, terms):
    """Sum raw (exponents, coefficient rank) terms one at a time: fold every
    exponent, add like terms in the field; returns sorted nonzero terms."""
    acc: dict[tuple[int, ...], int] = {}
    for exps, c in terms:
        assert len(exps) == n
        e = tuple(naive_fold(x, field.q) for x in exps)
        acc[e] = field.add(acc.get(e, 0), c)
    return sorted((e, c) for e, c in acc.items() if c != 0)


def naive_interp_univariate(field: NaiveField, values) -> list[int]:
    """Lagrange interpolation, dense coefficient list c_0..c_{q-1}.

    Each basis polynomial prod_{b != a} (x - b) / (a - b) takes its
    numerator (x^q - x) / (x - a) from q - 1 steps of synthetic division and
    its denominator prod_{b != a} (a - b) from naive products, so it costs
    O(q) field operations.
    """
    q = field.q
    coeffs = [0] * q
    for a in range(q):
        if values[a] == 0:
            continue
        # quotient c_{k-1} = p_k + a c_k of x^q - x, whose only nonzero
        # coefficients are p_q = 1 and p_1 = -1
        basis = [0] * q
        basis[q - 1] = 1
        for k in range(q - 1, 0, -1):
            top = field.neg(1) if k == 1 else 0
            basis[k - 1] = field.add(top, field.mul(a, basis[k]))
        denom = 1
        for b in range(q):
            if b != a:
                denom = field.mul(denom, field.sub(a, b))
        scale = field.mul(values[a], field.inv(denom))
        for i, c in enumerate(basis):
            coeffs[i] = field.add(coeffs[i], field.mul(scale, c))
    return coeffs


def naive_transform_matrices(field: NaiveField):
    """The evaluation matrix E[c][e] = c^e (0^0 = 1), by repeated
    multiplication, and the interpolation matrix L[e][c]: E reflected and
    negated, with 1 added to row 0, so L[e][c] = [e = 0] - c^(q-1-e)."""
    q = field.q
    E = [[1] * q for _ in range(q)]
    for c in range(q):
        for e in range(1, q):
            E[c][e] = field.mul(E[c][e - 1], c)
    L = [[field.neg(E[c][q - 1 - e]) for c in range(q)] for e in range(q)]
    L[0] = [field.add(1, v) for v in L[0]]
    return E, L


def naive_degree(coeffs) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def naive_balanced_tables(q: int, n: int):
    """Yield every balanced value table of F_q^n (each value at q^(n-1)
    positions) as a list, in lexicographic order: value 0 takes each
    combination of the positions in turn, then value 1 of those left, and
    so on; q-1 takes the rest."""
    size = q**n
    part = q ** (n - 1)
    table = [0] * size

    def fill(remaining: tuple[int, ...], v: int):
        if v == q - 1:
            for i in remaining:
                table[i] = v
            yield list(table)
            return
        for combo in itertools.combinations(remaining, part):
            for i in combo:
                table[i] = v
            chosen = set(combo)
            rest = tuple(i for i in remaining if i not in chosen)
            yield from fill(rest, v + 1)

    yield from fill(tuple(range(size)), 0)


def sort_lpp_scan(table, n: int, q: int):
    """The first line of a value table that is not a bijection, found by
    sorting every line of every axis; the reference for _kernels.lpp_scan,
    with its (axis, lo, hi) return (lo, hi split the rank of the failing
    assignment at q^(n-1-axis)), or (-1, -1, -1)."""
    L, R = 1, table.size // q
    want = np.arange(q)[None, :, None]
    for axis in range(n):
        lines = np.sort(table.reshape(L, q, R), axis=1)
        bad = (lines != want).any(axis=1).reshape(-1)
        if bad.any():
            flat = int(np.argmax(bad))
            return axis, flat // R, flat % R
        L *= q
        R //= q
    return -1, -1, -1


def extend(f, n: int, offset: int):
    """The package polynomial f embedded into n variables, its old x_j
    becoming x_(offset+j): its table broadcast along the other axes."""
    q = f.field.q
    shape = (1,) * offset + (q,) * f.n + (1,) * (n - offset - f.n)
    return f._tabled(np.broadcast_to(f._values().reshape(shape), (q,) * n), n)
