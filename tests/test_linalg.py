"""The Smith normal form port against sympy's ``smith_normal_decomp``, which
it reproduces transform for transform (conftest pins sympy to its
pure-Python integer arithmetic, whose Bezout coefficients the port uses),
and against its former recursive form; the fraction-free determinant
against elimination over Fraction."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp as sympy_snf

from conftest import fraction_det
from k3mirror.lattices import STANDARD_NAMES, make_standard
from k3mirror.linalg import (
    _add_columns,
    _add_rows,
    _elimination,
    _gcdex,
    det,
    freeze_mat,
    identity,
    is_integral,
    mat_mul,
    mat_vec,
    smith_normal_decomp,
    transpose,
)


def sympy_reference(m):
    rows, cols = len(m), len(m[0])
    dm = DomainMatrix([[ZZ(x) for x in row] for row in m], (rows, cols), ZZ)
    diag, s, t = (x.to_Matrix().tolist() for x in sympy_snf(dm))
    invs = tuple(int(diag[i][i]) for i in range(min(rows, cols)))
    return invs, *(tuple(tuple(int(x) for x in row) for row in a) for a in (s, t))


def assert_matches_sympy(m):
    invs, s, t = got = smith_normal_decomp(m)
    assert got == sympy_reference(m)
    diag = tuple(tuple(invs[i] if i == j else 0 for j in range(len(m[0])))
                 for i in range(len(m)))
    assert mat_mul(s, mat_mul(m, t)) == diag
    assert abs(det(s)) == abs(det(t)) == 1
    nonzero = [d for d in invs if d]
    assert list(invs) == nonzero + [0] * (len(invs) - len(nonzero))
    assert all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


@st.composite
def int_matrices(draw):
    """Square or rectangular integer matrices with up to 8 rows and columns,
    half of them products through a narrower inner dimension (rank-deficient
    unless that dimension is the smaller side)."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8)) if draw(st.booleans()) else rows

    def block(r, c, lo, hi):
        entry = st.integers(lo, hi)
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        return tuple(tuple(row) for row in block(rows, cols, -30, 30))
    k = draw(st.integers(1, min(rows, cols)))
    return mat_mul(block(rows, k, -6, 6), block(k, cols, -6, 6))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_snf_matches_sympy_on_drawn_matrices(m):
    assert_matches_sympy(m)


def standard_grams():
    for name in STANDARD_NAMES:
        if name in ("two_n", "minus_two_n", "U_plus_Mn", "Mcheck_n"):
            for n in range(1, 61):
                yield make_standard(name, n).gram
        else:
            yield make_standard(name).gram


def test_snf_matches_sympy_on_standard_grams():
    for gram in standard_grams():
        assert_matches_sympy(gram)


def test_snf_zero_and_degenerate_shapes():
    for m in (((0, 0), (0, 0)), ((0, 0), (0, 5)), ((0, 4, 6),), ((2,), (4,), (0,)), ((-3,),)):
        assert_matches_sympy(m)


# -- the former recursive Smith form, kept as a reference ------------------------

def _eye(n):
    return [list(row) for row in identity(n)]


def _former_snf(m, rows, cols):
    """The former recursion: fresh transforms at every level, combined with
    the outer ones by a matrix product on the way back."""
    if not rows or not cols:
        return (), _eye(rows), _eye(cols)
    s, t = _eye(rows), _eye(cols)
    i = next((i for i in range(rows) if m[i][0]), None)
    if i:
        m[0], m[i] = m[i], m[0]
        s[0], s[i] = s[i], s[0]
    elif i is None:
        j = next((j for j in range(cols) if m[0][j]), None)
        if j:
            for row in m + t:
                row[0], row[j] = row[j], row[0]
    while any(m[0][1:]) or any(m[i][0] for i in range(1, rows)):
        pivot = m[0][0]
        for j in range(1, rows):
            if m[j][0]:
                ops, pivot = _elimination(pivot, m[j][0])
                _add_rows(m, 0, j, *ops)
                _add_rows(s, 0, j, *ops)
        pivot = m[0][0]
        for j in range(1, cols):
            if m[0][j]:
                ops, pivot = _elimination(pivot, m[0][j])
                _add_columns(m, 0, j, *ops)
                _add_columns(t, 0, j, *ops)
    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[0] = [-x for x in s[0]]
    invs = ()
    if rows > 1 and cols > 1:
        invs, s_small, t_small = _former_snf([r[1:] for r in m[1:]], rows - 1, cols - 1)
        s = [s[0]] + [list(row) for row in mat_mul(s_small, s[1:])]
        t_cols = transpose(t_small)
        t = [[row[0], *mat_vec(t_cols, row[1:])] for row in t]
    if not m[0][0]:
        if rows > 1:
            s = s[1:] + [s[0]]
        if cols > 1:
            t = [row[1:] + [row[0]] for row in t]
        return invs + (0,), s, t
    result = [m[0][0], *invs]
    for i in range(len(result) - 1):
        a, b = result[i], result[i + 1]
        if not b or not b % a:
            break
        x, y, d = _gcdex(a, b)
        alpha, beta = a // d, b // d
        _add_rows(s, i, i + 1, 1, 0, x, 1)
        _add_columns(t, i, i + 1, 1, y, 0, 1)
        _add_rows(s, i, i + 1, 1, -alpha, 0, 1)
        _add_columns(t, i, i + 1, 1, 0, -beta, 1)
        _add_rows(s, i, i + 1, 0, 1, -1, 0)
        result[i], result[i + 1] = d, b * alpha
    return tuple(result), s, t


def former_decomp(a):
    invs, s, t = _former_snf([list(row) for row in a], len(a), len(a[0]))
    return invs, freeze_mat(s), freeze_mat(t)


def seeded_int_matrices(count, seed):
    """Non-square, square and rank-deficient integer matrices, many with
    zero rows or zero columns."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if rng.random() < 0.4:
            k = rng.randint(1, min(rows, cols))
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)]
            m = [list(row) for row in mat_mul(left, right)]
        else:
            m = [[rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(cols)]
                 for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        yield freeze_mat(m)


def test_snf_matches_the_former_recursion_transform_for_transform():
    for m in seeded_int_matrices(400, 17):
        assert smith_normal_decomp(m) == former_decomp(m)
    for gram in standard_grams():
        assert smith_normal_decomp(gram) == former_decomp(gram)


def test_det_matches_elimination_over_fraction():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(0, 9)
        m = tuple(tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(n))
                  for _ in range(n))
        got = det(m)
        assert got == fraction_det(m) and type(got) is int
        q = tuple(tuple(Fraction(x, rng.randint(1, 7)) for x in row) for row in m)
        got, expected = det(q), fraction_det(q)
        assert got == expected and type(got) is type(expected)
    for gram in standard_grams():
        assert det(gram) == fraction_det(gram)


def test_is_integral_answers_false_on_non_finite_floats():
    for bad in (float("inf"), float("-inf"), float("nan")):
        assert not is_integral((1, bad))
        assert not is_integral(((1, 0), (0, bad)))
    assert is_integral((2.0, -0.0, Fraction(4, 2), 3))
    assert not is_integral((2, 0.5))
