"""The Smith normal form by its defining properties, with sympy's
``smith_normal_decomp`` as the oracle for the invariant factors (which are
canonical; the transforms are not); the fraction-free determinant against
elimination over Fraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp as sympy_snf

from conftest import fraction_det
from k3mirror.lattices import STANDARD_NAMES, IntLattice, Isometry, make_standard
from k3mirror.linalg import (
    det,
    freeze_mat,
    is_integral,
    mat_mul,
    smith_normal_decomp,
)


def sympy_invariants(m):
    rows, cols = len(m), len(m[0])
    dm = DomainMatrix([[ZZ(x) for x in row] for row in m], (rows, cols), ZZ)
    diag = sympy_snf(dm)[0].to_Matrix().tolist()
    return tuple(int(diag[i][i]) for i in range(min(rows, cols)))


def assert_smith_form(m):
    """s m t = diag(invariants) with s, t unimodular; the nonzero invariants
    positive, each dividing the next, before the zeros; and the invariants
    equal to sympy's."""
    invs, s, t = smith_normal_decomp(m)
    diag = tuple(tuple(invs[i] if i == j else 0 for j in range(len(m[0])))
                 for i in range(len(m)))
    assert mat_mul(s, mat_mul(m, t)) == diag
    assert abs(det(s)) == abs(det(t)) == 1
    nonzero = [d for d in invs if d]
    assert list(invs) == nonzero + [0] * (len(invs) - len(nonzero))
    assert all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert invs == sympy_invariants(m)


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
    assert_smith_form(m)


def standard_grams():
    for name in STANDARD_NAMES:
        if name in ("two_n", "minus_two_n", "U_plus_Mn", "Mcheck_n"):
            for n in range(1, 61):
                yield make_standard(name, n).gram
        else:
            yield make_standard(name).gram


def test_snf_matches_sympy_on_standard_grams():
    for gram in standard_grams():
        assert_smith_form(gram)


def test_snf_zero_and_degenerate_shapes():
    for m in (((0, 0), (0, 0)), ((0, 0), (0, 5)), ((0, 4, 6),), ((2,), (4,), (0,)), ((-3,),)):
        assert_smith_form(m)


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


def test_snf_properties_on_seeded_matrices():
    for m in seeded_int_matrices(400, 17):
        assert_smith_form(m)


def test_snf_gcd_moves_to_the_first_invariant():
    """diag(2, 3) is not a Smith form: the pivot 2 does not divide 3, so
    the divisibility step must turn it into diag(1, 6)."""
    assert smith_normal_decomp(((2, 0), (0, 3)))[0] == (1, 6)
    assert smith_normal_decomp(((4, 0, 0), (0, 6, 0), (0, 0, 0)))[0] == (2, 12, 0)
    assert smith_normal_decomp(((0, 0), (0, -5)))[0] == (5, 0)


def test_snf_refuses_a_non_integral_entry():
    for m in (((Fraction(1, 2),),), ((Fraction(3, 2), 0), (0, 2))):
        with pytest.raises(ValueError, match="non-integral"):
            smith_normal_decomp(m)
    invs, s, t = smith_normal_decomp(((2.0, 0), (0, Fraction(4, 2))))
    assert invs == (2, 2) and all(type(x) is int for row in s + t for x in row)


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


def test_is_integral_answers_true_on_empty_vectors_and_matrices():
    assert is_integral(()) and is_integral(((),))
    lat = IntLattice(())
    assert Isometry(lat, ()) == Isometry.identity(lat)
    assert smith_normal_decomp(()) == ((), (), ())
