"""The Smith normal form port against sympy's ``smith_normal_decomp``, which
it reproduces transform for transform (conftest pins sympy to its
pure-Python integer arithmetic, whose Bezout coefficients the port uses)."""

from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp as sympy_snf

from k3mirror.lattices import STANDARD_NAMES, make_standard
from k3mirror.linalg import det, mat_mul, smith_normal_decomp


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


def test_snf_matches_sympy_on_standard_grams():
    for name in STANDARD_NAMES:
        if name in ("two_n", "minus_two_n", "U_plus_Mn", "Mcheck_n"):
            for n in range(1, 61):
                assert_matches_sympy(make_standard(name, n).gram)
        else:
            assert_matches_sympy(make_standard(name).gram)


def test_snf_zero_and_degenerate_shapes():
    for m in (((0, 0), (0, 0)), ((0, 0), (0, 5)), ((0, 4, 6),), ((2,), (4,), (0,)), ((-3,),)):
        assert_matches_sympy(m)
