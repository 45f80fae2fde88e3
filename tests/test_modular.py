from fractions import Fraction
from math import isqrt

import pytest
from conftest import n_side_isometries
from hypothesis import assume, given, settings, strategies as st
from sympy import primefactors

from k3mirror.discriminant import in_kernel_star
from k3mirror.lattices import Isometry, is_isometry
from k3mirror.linalg import congruent, det, identity, mat_mul
from k3mirror.modular import (
    S1BAR,
    S2BAR,
    TBAR,
    FracLinear,
    F_map,
    R_map,
    SOMatrix,
    _distinct_prime_count,
    fm_partner_count,
    fricke,
    gamma0_plus_generators,
    monodromy_generators,
    monodromy_index,
    table1_stabilizers,
    translation,
    u_plus_mn,
    verify_degree12,
)

U6 = u_plus_mn(6)
GENS = monodromy_generators(6)


def test_generators_plus6():
    t, w, g3 = gamma0_plus_generators(6, "plus6")
    assert (t.m, t.scale) == (((1, 1), (0, 1)), 1)
    # (0,-1;6,0) under the first-nonzero-entry-positive convention
    assert (w.m, w.scale) == (((0, 1), (-6, 0)), 6)
    assert (g3.m, g3.scale) == (((5, 2), (12, 5)), 1)
    for g in (t, w, g3):
        assert g.m[0][0] * g.m[1][1] - g.m[0][1] * g.m[1][0] == g.scale


def test_generators_plus():
    t, w, g3 = gamma0_plus_generators(6, "plus")
    assert (g3.m, g3.scale) == (((3, 1), (6, 3)), 3)
    assert (w.m, w.scale) == (((0, 1), (-6, 0)), 6)
    assert w == fricke(6)


def test_generators_other_n():
    with pytest.raises(ValueError, match="wired for n = 6"):
        gamma0_plus_generators(15, "plus")
    w15 = fricke(15)
    assert (w15.m, w15.scale) == (((0, 1), (-15, 0)), 15)
    # non-squarefree level keeps the square part the matrix cannot absorb
    w4 = fricke(4)
    assert (w4.m, w4.scale) == (((0, 1), (-4, 0)), 4)


def test_generators_bad_variant():
    with pytest.raises(ValueError):
        gamma0_plus_generators(6, "minus")


def test_compose_examples():
    s1 = fricke(6)
    assert s1 @ s1 == FracLinear.identity()
    t = translation()
    assert t @ t == FracLinear(((1, 2), (0, 1)))
    s2 = table1_stabilizers()["S2"]
    ss = s2 @ s1
    # S2 S1 is the Atkin-Lehner representative (3,1;6,3)/sqrt(3); its square,
    # not the product itself, is the integer matrix (5,2;12,5)
    assert (ss.m, ss.scale) == (((3, 1), (6, 3)), 3)
    assert ss @ ss == FracLinear(((5, 2), (12, 5)))


def test_fraclinear_normalization():
    g = FracLinear(((-6, 0), (0, -6)), 36)
    assert (g.m, g.scale) == (((1, 0), (0, 1)), 1)
    with pytest.raises(ValueError):
        FracLinear(((1, 0), (0, 1)), 2)   # det 1 != 2


def test_fraclinear_normal_form_properties(rng):
    gens = list(gamma0_plus_generators(6, "plus"))
    for _ in range(500):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 5)):
            g = g @ rng.choice(gens)
        (a, b), (c, d) = g.m
        assert a * d - b * c == g.scale
        first = next(x for row in g.m for x in row if x != 0)
        assert first > 0
        # minimality: no square factor of the scale divides the whole matrix
        for f in range(2, g.scale):
            if (f * f <= g.scale and g.scale % (f * f) == 0
                    and all(x % f == 0 for row in g.m for x in row)):
                raise AssertionError(f"scale not minimal for {g}")


def test_compose_is_associative(rng):
    gens = list(gamma0_plus_generators(6, "plus"))
    for _ in range(300):
        g, h, k = (rng.choice(gens) for _ in range(3))
        assert (g @ h) @ k == g @ (h @ k)


def test_r_map_frozen_values():
    stab = table1_stabilizers()
    assert R_map(stab["T"], 6).matrix == ((1, 0, 0), (1, 1, 0), (6, 12, 1))
    assert R_map(stab["S1"], 6).matrix == ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    assert R_map(stab["S2"], 6).matrix == ((2, 12, 3), (-1, -5, -1), (3, 12, 2))


def test_table_matrices():
    assert GENS["T"].matrix == TBAR == ((1, 0, 0), (1, 1, 0), (6, 12, 1))
    assert GENS["S1"].matrix == S1BAR == ((0, 0, -1), (0, 1, 0), (-1, 0, 0))
    assert GENS["S2"].matrix == S2BAR == ((-2, -12, -3), (1, 5, 1), (-3, -12, -2))
    assert GENS["T"].determinant == 1
    assert GENS["S1"].determinant == -1
    assert GENS["S2"].determinant == -1
    s1sq = GENS["S1"] @ GENS["S1"]
    assert s1sq.matrix == identity(3)


def test_table_requires_n6():
    with pytest.raises(ValueError):
        monodromy_generators(5)


def test_f_map():
    assert F_map(GENS["S1"]).matrix == R_map(table1_stabilizers()["S1"], 6).matrix
    assert F_map(GENS["T"]).matrix == tuple(tuple(Fraction(x) for x in r) for r in TBAR)
    neg = -Isometry.identity(U6)
    assert F_map(neg).matrix == tuple(tuple(Fraction(x) for x in r) for r in identity(3))


def test_f_map_lands_in_special_orthogonal(rng):
    gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6)]
    for _ in range(100):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 3)):
            g = g @ rng.choice(gens)
        assert F_map(g).determinant == 1


def test_f_map_kernel_is_plus_minus_identity(rng):
    gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6)]
    ident = tuple(tuple(Fraction(x) for x in r) for r in identity(3))
    for _ in range(200):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 4)):
            g = g @ rng.choice(gens)
        if F_map(g).matrix == ident:
            assert g.matrix in (identity(3), tuple(tuple(-x for x in r) for r in identity(3)))


def test_fm_partner_count():
    assert fm_partner_count(12) == 2
    assert fm_partner_count(2) == 1
    assert fm_partner_count(60) == 4
    with pytest.raises(ValueError):
        fm_partner_count(7)
    with pytest.raises(ValueError):
        fm_partner_count(0)
    with pytest.raises(ValueError):
        fm_partner_count(-4)


def test_distinct_prime_count_matches_sympy():
    assert _distinct_prime_count(1) == 1      # the p(1) = 1 convention
    for n in range(2, 10 ** 4 + 1):
        assert _distinct_prime_count(n) == len(primefactors(n))


def test_monodromy_index():
    assert monodromy_index(6) == 2
    assert monodromy_index(2) == 1
    assert monodromy_index(30) == 4
    assert monodromy_index(1) == 1


def test_index_equals_partner_count_desk_scale():
    for n in range(2, 201):
        assert monodromy_index(n) == fm_partner_count(2 * n)


def _letters(n):
    """T, (1,-1;0,1), (1,0;1,1) and fricke(n); at n = 6 also the generators
    of Gamma_0(6)+, the Atkin-Lehner (3,1;6,3)/sqrt(3) among them."""
    letters = [translation(), FracLinear(((1, -1), (0, 1))), FracLinear(((1, 0), (1, 1))),
               fricke(n)]
    return letters + list(gamma0_plus_generators(6, "plus")) if n == 6 else letters


def _frac_word(rng, letters, longest=3):
    g = rng.choice(letters)
    for _ in range(rng.randint(0, longest)):
        g = g @ rng.choice(letters)
    return g


def test_r_is_antihomomorphism(rng):
    for n in (1, 2, 5, 6, 30, 60):
        letters = _letters(n)
        for _ in range(1000):
            g = rng.choice(letters)
            h = _frac_word(rng, letters)
            lhs = R_map(g @ h, n).matrix
            rhs = mat_mul(R_map(h, n).matrix, R_map(g, n).matrix)
            assert lhs == rhs, (n, g, h)


def test_derived_values_pass_the_validating_constructor(rng):
    """R-images, their products and negations, F_map images and FracLinear
    products are built without a check; each equals what the validating
    constructor makes of the same matrix."""
    for n in range(1, 61):
        letters = _letters(n)
        lat, isometries = u_plus_mn(n), n_side_isometries(n)[1]
        for _ in range(12):
            g, h = _frac_word(rng, letters), _frac_word(rng, letters)
            gh = g @ h
            assert FracLinear(gh.m, gh.scale) == gh
            assert FracLinear(mat_mul(g.m, h.m), g.scale * h.scale) == gh
            rg, rh = R_map(g, n), R_map(h, n)
            for m in (rg, rh @ rg, -rg, R_map(gh, n)):
                assert m.lattice == lat
                assert SOMatrix(m.lattice, m.num, m.den) == m
                assert SOMatrix(m.lattice, m.matrix) == m
            iso = rng.choice(isometries)
            for _ in range(rng.randint(0, 3)):
                iso = iso @ rng.choice(isometries)
            f = F_map(iso)
            assert SOMatrix(lat, iso.matrix) == (f if iso.determinant == 1 else -f)
            assert SOMatrix(f.lattice, f.matrix) == f


def test_derived_values_are_not_validated_again(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} validated a value known by construction")
    t, w = translation(), fricke(6)   # the letters come from outside: checked once
    monkeypatch.setattr(FracLinear, "__post_init__", refuse)
    monkeypatch.setattr(SOMatrix, "__post_init__", refuse)
    assert (w @ t @ w).m == ((1, 0), (-6, 1))
    rt, rw = R_map(t, 6), R_map(w, 6)
    assert (rt @ rw).matrix == ((0, 0, 1), (0, -1, 1), (1, -12, 6))
    assert (-rw).matrix == S1BAR
    assert F_map(GENS["S1"]) == rw


def test_r_image_preserves_form_with_unit_positive_det(rng):
    gens = list(gamma0_plus_generators(6, "plus"))
    for _ in range(300):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 4)):
            g = g @ rng.choice(gens)
        img = R_map(g, 6)
        assert img.determinant == 1
        assert is_isometry(U6, tuple(tuple(int(x) for x in row) for row in img.matrix))


def test_kernel_membership_conjugation_invariant(rng):
    s1s2_sq = (GENS["S1"] @ GENS["S2"]) @ (GENS["S1"] @ GENS["S2"])
    kernel = [GENS["T"], GENS["S1"], s1s2_sq]
    others = [GENS["S2"], -Isometry.identity(U6)]
    for _ in range(200):
        k = rng.choice(kernel)
        g = rng.choice(kernel + others)
        conj = k @ g @ k.inverse()
        assert in_kernel_star(U6, conj) == in_kernel_star(U6, g)


def test_so_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="does not preserve the form"):
        SOMatrix(U6, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    # a common denominator d = 2 on both sides of the verdict
    img = R_map(FracLinear(((1, 0), (1, 1))), 2)
    assert img.matrix == ((1, 2, Fraction(1, 2)), (0, 1, Fraction(1, 2)), (0, 0, 1))
    assert img.determinant == 1
    assert SOMatrix(u_plus_mn(2), img.matrix) == img
    for i, j in ((0, 0), (0, 2), (1, 2)):
        rows = [list(row) for row in img.matrix]
        rows[i][j] += Fraction(1, 2)
        with pytest.raises(ValueError, match="does not preserve the form"):
            SOMatrix(u_plus_mn(2), rows)
    with pytest.raises(ValueError, match="need a 3x3 matrix"):
        SOMatrix(U6, ((1, 0), (0, 1)))
    for den in (0, -1):
        with pytest.raises(ValueError, match="denominator must be positive"):
            SOMatrix(U6, identity(3), den)
    # an explicit denominator is normalised away with the numerators
    assert SOMatrix(U6, ((2, 0, 0), (0, 2, 0), (0, 0, 2)), 2) == SOMatrix(U6, identity(3))


def test_so_matrix_reads_integral_entries_of_another_type_as_ints():
    floats = ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0))
    m = SOMatrix(U6, floats)
    assert m == SOMatrix(U6, identity(3)) and m.determinant == 1
    assert all(type(x) is int for row in m.num for x in row)
    assert SOMatrix(U6, ((Fraction(2), 0, 0), (0, 2.0, 0), (0, 0, 2)), 2) == m
    for rows in (((0.5, 0, 0), (0, 1, 0), (0, 0, 2)),
                 ((1.0, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2)))):
        with pytest.raises(ValueError, match="must be ints or Fractions, or all integral"):
            SOMatrix(U6, rows)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_so_matrix_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="^entries must be ints or Fractions, or all integral$"):
        SOMatrix(U6, ((bad, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_so_matrix_product_needs_one_lattice():
    one = FracLinear.identity()
    with pytest.raises(ValueError, match="different lattices"):
        R_map(one, 1) @ R_map(one, 2)
    assert (R_map(one, 2) @ R_map(one, 2)).lattice == u_plus_mn(2)


# -- the former Fraction-route validators, kept as a reference ---------------

def _former_so_verdict(lattice, matrix):
    """The check SOMatrix made over Fraction before it went to integers:
    the error message, or None on acceptance."""
    m = tuple(tuple(Fraction(x) for x in row) for row in matrix)
    if congruent(lattice.gram, m) != lattice.gram:
        return "matrix does not preserve the form"
    if det(m) not in (1, -1):
        return "determinant must be +-1"
    return None


def _verdict(make):
    try:
        make()
    except ValueError as e:
        return str(e)
    return None


_SO_LETTERS = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), None)   # None: fricke(n)


@st.composite
def _r_image_variants(draw):
    """The R-image of a random word in T, (1,-1;0,1), (1,0;1,1), fricke(n),
    as it is or with one entry moved by +-1/k, two rows swapped, or the whole
    matrix scaled by a rational other than +-1."""
    n = draw(st.integers(1, 60))
    g = FracLinear.identity()
    for letter in draw(st.lists(st.sampled_from(_SO_LETTERS), max_size=6)):
        g = g @ (fricke(n) if letter is None
                 else FracLinear(((letter[0], letter[1]), (letter[2], letter[3]))))
    rows = [list(row) for row in R_map(g, n).matrix]
    change = draw(st.sampled_from(("none", "entry", "swap", "scale")))
    if change == "entry":
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rows[i][j] += Fraction(draw(st.sampled_from((1, -1))), draw(st.integers(1, 12)))
    elif change == "swap":
        i, j = draw(st.sampled_from(((0, 1), (0, 2), (1, 2))))
        rows[i], rows[j] = rows[j], rows[i]
    elif change == "scale":
        q = draw(st.fractions(-4, 4, max_denominator=6).filter(lambda q: q not in (1, -1)))
        rows = [[q * x for x in row] for row in rows]
    return n, rows


@settings(max_examples=600, deadline=None)
@given(_r_image_variants())
def test_so_matrix_matches_former_fraction_route(case):
    n, rows = case
    lat = u_plus_mn(n)
    expected = _former_so_verdict(lat, rows)
    assert _verdict(lambda: SOMatrix(lat, rows)) == expected
    if expected is None:
        # SOMatrix checks the form only, which forces det = +-1 on the
        # nondegenerate Gram matrix: every accepted matrix must bear it out
        m = SOMatrix(lat, rows)
        assert m.determinant == det(rows) and m.determinant in (1, -1)
        assert m.matrix == tuple(tuple(Fraction(x) for x in row) for row in rows)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4), st.sampled_from((-1, 0, 1)))
def test_fraclinear_determinant_matches_linalg_det(entries, off):
    m = (tuple(entries[:2]), tuple(entries[2:]))
    scale = det(m) + off
    if scale <= 0:
        expected = "scale must be positive"
    elif det(m) != scale:
        expected = "determinant must equal the scale"
    else:
        expected = None
    assert _verdict(lambda: FracLinear(m, scale)) == expected


def test_verify_degree12_report():
    report = verify_degree12(6)
    assert report.passed
    ids = [c.check_id for c in report.checks]
    assert ids == ["table-matrices", "discriminant-action", "composite-square",
                   "kernel-generators", "orientation", "glue-dichotomy"]
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["discriminant-action"].details["scalars"] == {"T": 1, "S1": 1, "S2": 5}
    # the details hold values, the expected matrices shared with the module
    assert by_id["composite-square"].details["S2S1_squared"] == {"m": ((5, 2), (12, 5)),
                                                                 "scale": 1}
    expected = by_id["table-matrices"].details["expected"]
    assert expected["T"] is TBAR and expected["S1"] is S1BAR and expected["S2"] is S2BAR
    assert by_id["table-matrices"].details["got"] == expected
    # and to_obj renders every matrix as rows of decimal strings
    obj = report.to_obj()
    assert obj["passed"] and len(obj["checks"]) == 6
    details = {c["id"]: c["details"] for c in obj["checks"]}
    assert details["composite-square"]["S2S1_squared"] == {"m": [["5", "2"], ["12", "5"]],
                                                           "scale": 1}
    assert details["table-matrices"]["expected"]["S2"] == [["-2", "-12", "-3"],
                                                           ["1", "5", "1"],
                                                           ["-3", "-12", "-2"]]
    assert details["table-matrices"]["got"] == details["table-matrices"]["expected"]
    assert details["discriminant-action"] == {"scalars": {"T": 1, "S1": 1, "S2": 5}}


def test_verify_requires_n6():
    with pytest.raises(ValueError):
        verify_degree12(4)


# -- the former normal-form search, kept as a reference ----------------------

def _normal_form_by_search(m, scale):
    """The former O(sqrt(scale)) search for the largest d with d^2 | scale
    dividing every entry, then the sign convention."""
    g = 1
    for d in range(isqrt(scale), 1, -1):
        if scale % (d * d) == 0 and all(x % d == 0 for row in m for x in row):
            g = d
            break
    if g > 1:
        m = tuple(tuple(x // g for x in row) for row in m)
        scale //= g * g
    if next(x for row in m for x in row if x != 0) < 0:
        m = tuple(tuple(-x for x in row) for row in m)
    return m, scale


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=4, max_size=4), st.integers(1, 12))
def test_fraclinear_gcd_matches_former_search(entries, k):
    a, b, c, d = (k * x for x in entries)
    assume(a * d - b * c > 0)
    m = ((a, b), (c, d))
    g = FracLinear(m, a * d - b * c)
    assert (g.m, g.scale) == _normal_form_by_search(m, a * d - b * c)
