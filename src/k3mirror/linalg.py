"""Small exact linear algebra over Z and Q.

Matrices are immutable tuples of row tuples, vectors are plain tuples;
entries are ints or Fractions.  Nothing here ever touches floating point.
Sizes stay tiny (rank <= 24): determinants and the Smith normal form stay
in integers, and ``solve`` is plain Gaussian elimination over Fraction.
The Smith normal form is one textbook elimination; its invariant factors are
canonical, its transforms are one valid unimodular pair among many.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = tuple
Mat = tuple


def freeze_mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def block_diag(a: Mat, b: Mat) -> Mat:
    na, nb = len(a), len(b)
    rows = [tuple(a[i]) + (0,) * nb for i in range(na)]
    rows += [(0,) * na + tuple(b[i]) for i in range(nb)]
    return tuple(rows)


def congruent(g: Mat, m: Mat) -> Mat:
    """m^T g m, the pullback of the form g along m."""
    return mat_mul(transpose(m), mat_mul(g, m))


def _as_ints(m: Mat) -> Mat:
    """The integral matrix m with int entries: m itself when they are ints
    already, else fresh int rows (2.0 and Fraction(2) become 2)."""
    if all(type(x) is int for row in m for x in row):
        return m
    return tuple(tuple(map(int, row)) for row in m)


def _numerators(m: Mat) -> tuple[Mat, int]:
    """(N, d) with d the least common denominator of the entries of m (ints
    or Fractions) and N = d m the integer numerator matrix."""
    d = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m), d


def det(a: Mat) -> int | Fraction:
    """Exact determinant, fraction-free: the entries are scaled to integers by
    the lcm of their denominators (1 for integer input)."""
    num, den = _numerators(a)
    result = Fraction(_bareiss([list(row) for row in num], len(a)), den ** len(a))
    return int(result) if result.denominator == 1 else result


def _bareiss(m: list, n: int) -> int:
    """Fraction-free (Bareiss) elimination of the integer rows m = [a | b] in
    place, a square of size n; returns det a.  With columns b it is Gauss-Jordan: unless
    det a = 0, each m[i][i] ends as d = +-det a and b as d a^-1 b.  Every
    entry is a minor of [a | b], so every division is exact."""
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p, mk = m[k][k], m[k]
        for i in range(0 if len(mk) > n else k + 1, n):
            f = m[i][k]
            if i != k and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], mk)]
        prev = p
    return sign * prev


def solve(a: Mat, rhs: Mat) -> Mat:
    """Solve a X = rhs exactly; rhs is a matrix (use column vectors).

    Raises ValueError on a singular matrix.
    """
    n = len(a)
    w = len(rhs[0])
    aug = [[Fraction(x) for x in a[i]] + [Fraction(x) for x in rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:n + w]) for i in range(n))


def inverse(a: Mat) -> Mat:
    return solve(a, identity(len(a)))


def is_integral(a) -> bool:
    if not a:
        return True
    if isinstance(a[0], tuple):
        return all(is_integral(row) for row in a)
    # float.is_integer is False for inf and nan, which Fraction cannot convert
    return all(isinstance(x, int) or (x.is_integer() if isinstance(x, float)
                                      else Fraction(x).denominator == 1) for x in a)


# -- Smith normal form over Z ---------------------------------------------------


def _least_entry(m: list, k: int) -> tuple[int, int, int] | None:
    """(|x|, i, j) for the first least nonzero |x| = |m[i][j]| in the block from
    row and column k on (row-major, stopping at a unit); None on a zero block."""
    best = None
    for i in range(k, len(m)):
        for j, x in enumerate(m[i][k:], k):
            if x and (best is None or abs(x) < best[0]):
                best = abs(x), i, j
                if best[0] == 1:
                    return best
    return best


def smith_normal_decomp(a: Mat) -> tuple[tuple[int, ...], Mat, Mat]:
    """(invariants, s, t) with s * a * t = diag(invariants) for an integral
    matrix a (else ValueError), s and t unimodular; the nonzero invariants are
    positive, divide each other in order, and come before the zeros.

    Textbook elimination (Cohen, GTM 138, section 2.4): the least entry of the
    remaining block is the pivot; its row and column are cleared by division
    with remainder, and a row the pivot does not divide is added to the pivot
    row, until the pivot divides the rest of the block."""
    if not is_integral(a):
        raise ValueError("Smith normal form of a non-integral matrix")
    rows, cols = len(a), len(a[0]) if a else 0
    m = [list(row) for row in _as_ints(a)]
    s, t = [list(row) for row in identity(rows)], [list(row) for row in identity(cols)]
    invs = [0] * min(rows, cols)
    for k in range(len(invs)):
        while pivot := _least_entry(m, k):
            _, i, j = pivot
            m[k], m[i], s[k], s[i] = m[i], m[k], s[i], s[k]
            for row in m[k:] + t:
                row[k], row[j] = row[j], row[k]
            p, mk, sk = m[k][k], m[k], s[k]
            for i in range(k + 1, rows):
                if q := m[i][k] // p:
                    m[i] = [x - q * y for x, y in zip(m[i], mk)]
                    s[i] = [x - q * y for x, y in zip(s[i], sk)]
            for j in range(k + 1, cols):
                if q := mk[j] // p:
                    for row in m[k:] + t:
                        row[j] -= q * row[k]
            if any(mk[k + 1:]) or any(m[i][k] for i in range(k + 1, rows)):
                continue
            # a unit divides everything; else find a row it does not divide
            if abs(p) == 1 or (i := next((i for i in range(k + 1, rows)
                                          if any(x % p for x in m[i][k + 1:])), None)) is None:
                break
            m[k] = [x + y for x, y in zip(mk, m[i])]
            s[k] = [x + y for x, y in zip(sk, s[i])]
        else:
            break   # the rest of the block is zero
        if p < 0:
            s[k] = [-x for x in s[k]]
        invs[k] = abs(p)
    return tuple(invs), freeze_mat(s), freeze_mat(t)
