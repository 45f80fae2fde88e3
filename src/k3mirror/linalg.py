"""Small exact linear algebra over Z and Q.

Matrices are immutable tuples of row tuples, vectors are plain tuples;
entries are ints or Fractions.  Nothing here ever touches floating point.
Sizes stay tiny (rank <= 24): determinants and the Smith normal form stay
in integers, and ``solve`` is plain Gaussian elimination over Fraction.
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
    if isinstance(a[0], tuple):
        return all(is_integral(row) for row in a)
    # float.is_integer is False for inf and nan, which Fraction cannot convert
    return all(isinstance(x, int) or (x.is_integer() if isinstance(x, float)
                                      else Fraction(x).denominator == 1) for x in a)


# -- Smith normal form over Z ---------------------------------------------------
#
# A plain-int port of sympy 1.14's ``_smith_normal_decomp`` (pure-Python
# ground types).  It reproduces that routine's transforms exactly, not only
# its invariants: discriminant-group generators are read off the right
# transform, so a different but equally valid decomposition would change
# every printed generator lift.


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b), with the Bezout coefficients
    of sympy's ``igcdex``: Euclid on |a|, |b| with the signs put back, and
    (a/g, b/g) when either argument is zero."""
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    x_sign, a = (-1, -a) if a < 0 else (1, a)
    y_sign, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * x_sign, y * y_sign, a


def _add_rows(m: list, i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    """Rows i, j of m become a*m[i] + b*m[j] and c*m[i] + d*m[j], in place."""
    ri, rj = m[i], m[j]
    for k, e in enumerate(ri):
        ri[k] = a * e + b * rj[k]
        rj[k] = c * e + d * rj[k]


def _add_columns(m: list, i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    """Columns i, j of m become a*m[:,i] + b*m[:,j] and c*m[:,i] + d*m[:,j]."""
    for row in m:
        e = row[i]
        row[i] = a * e + b * row[j]
        row[j] = c * e + d * row[j]


def _elimination(pivot: int, x: int) -> tuple[tuple[int, int, int, int], int]:
    """The combination of two rows (or columns) that clears x against the
    pivot, and the pivot after it: subtract a multiple of the pivot line
    when pivot | x, else the Bezout combination that leaves gcd(pivot, x)
    in the pivot position."""
    d, r = divmod(x, pivot)
    if not r:
        return (1, 0, -d, 1), pivot
    a, b, g = _gcdex(pivot, x)
    return (a, b, x // g, -(pivot // g)), g


def _snf(m: list, s: list, t: list, k: int) -> tuple[int, ...]:
    """Invariants of the list matrix m (consumed), the whole matrix from row and column
    k on; its row and column operations go in place to rows k.. of s and columns k.. of t."""
    rows, cols = len(m), len(m[0])

    # bring a nonzero entry to m[0][0]: first from column 0, else from row 0
    i = next((i for i in range(rows) if m[i][0]), None)
    if i:
        m[0], m[i] = m[i], m[0]
        s[k], s[k + i] = s[k + i], s[k]
    elif i is None:
        j = next((j for j in range(cols) if m[0][j]), None)
        if j:
            for row in m:
                row[0], row[j] = row[j], row[0]
            for row in t:
                row[k], row[k + j] = row[k + j], row[k]

    # clear row 0 and column 0 except the pivot, alternately
    while any(m[0][1:]) or any(m[i][0] for i in range(1, rows)):
        pivot = m[0][0]
        for j in range(1, rows):
            if m[j][0]:
                ops, pivot = _elimination(pivot, m[j][0])
                _add_rows(m, 0, j, *ops)
                _add_rows(s, k, k + j, *ops)
        pivot = m[0][0]
        for j in range(1, cols):
            if m[0][j]:
                ops, pivot = _elimination(pivot, m[0][j])
                _add_columns(m, 0, j, *ops)
                _add_columns(t, k, k + j, *ops)

    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[k] = [-x for x in s[k]]

    invs: tuple[int, ...] = ()
    if rows > 1 and cols > 1:
        invs = _snf([r[1:] for r in m[1:]], s, t, k + 1)

    if not m[0][0]:
        s[k:] = s[k + 1:] + [s[k]]
        for row in t:
            row[k:] = row[k + 1:] + [row[k]]
        return invs + (0,)

    result = [m[0][0], *invs]
    # the pivot need not divide the invariants of the rest of the matrix
    for i in range(k, k + len(result) - 1):
        a, b = result[i - k], result[i - k + 1]
        if not b or not b % a:
            break
        x, y, d = _gcdex(a, b)
        alpha, beta = a // d, b // d
        _add_rows(s, i, i + 1, 1, 0, x, 1)
        _add_columns(t, i, i + 1, 1, y, 0, 1)
        _add_rows(s, i, i + 1, 1, -alpha, 0, 1)
        _add_columns(t, i, i + 1, 1, 0, -beta, 1)
        _add_rows(s, i, i + 1, 0, 1, -1, 0)
        result[i - k], result[i - k + 1] = d, b * alpha
    return tuple(result)


def smith_normal_decomp(a: Mat) -> tuple[tuple[int, ...], Mat, Mat]:
    """(invariants, s, t) with s * a * t = diag(invariants) for an integer
    matrix a, s and t unimodular; the nonzero invariants are positive, divide
    each other in order, and come before the zeros."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s, t = [list(row) for row in identity(rows)], [list(row) for row in identity(cols)]
    invs = _snf([[int(x) for x in row] for row in a], s, t, 0) if rows and cols else ()
    return invs, freeze_mat(s), freeze_mat(t)
