import math
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from k3mirror import lattices
from k3mirror.discriminant import construct_mirror_embedding, glue_extends
from k3mirror.lattices import (
    STANDARD_NAMES,
    IntLattice,
    Isometry,
    bilinear,
    direct_sum,
    hyperbolic_extension,
    is_isometry,
    lattice_to_obj,
    make_standard,
    orientation_sign_positive,
    root_reflection,
    signature,
    signature_of_gram,
)
from k3mirror.linalg import block_diag, congruent, det, mat_vec, solve, transpose
from k3mirror.modular import R_map, monodromy_generators, table1_stabilizers

U6 = make_standard("U_plus_Mn", 6)
GENS = monodromy_generators(6)


def eigen_signature(lat):
    """Independent float oracle for signatures."""
    eig = np.linalg.eigvalsh(np.array(lat.gram, dtype=float))
    return int((eig > 0).sum()), int((eig < 0).sum())


def test_u_plus_mn_gram_reference_form():
    assert U6.gram == ((0, 0, -1), (0, 12, 0), (-1, 0, 0))
    assert make_standard("U_plus_Mn", 1).gram == ((0, 0, -1), (0, 2, 0), (-1, 0, 0))


def test_rank_one_grams():
    assert make_standard("two_n", 1).gram == ((2,),)
    assert make_standard("minus_two_n", 6).gram == ((-12,),)


@pytest.mark.parametrize("name,n,expected", [
    ("U", None, (1, 1)),
    ("E8minus", None, (0, 8)),
    ("K3", None, (3, 19)),
    ("Mukai", None, (4, 20)),
    ("U_plus_Mn", 6, (2, 1)),
    ("two_n", 5, (1, 0)),
    # rational diagonalization of <-12> + U + E8(-1)^2, rank 19
    ("Mcheck_n", 6, (1, 18)),
])
def test_signatures(name, n, expected):
    lat = make_standard(name, n)
    assert signature(lat) == expected
    assert eigen_signature(lat) == expected
    assert lat.is_even


def test_standard_determinants():
    assert make_standard("U").determinant == -1
    assert make_standard("E8minus").determinant == 1
    assert abs(make_standard("K3").determinant) == 1
    assert abs(make_standard("Mukai").determinant) == 1
    assert U6.determinant == -12


def test_hyperbolic_convention_is_uniform():
    # every copy of U pairs the isotropic basis vectors to -1
    assert make_standard("U").gram == ((0, -1), (-1, 0))
    mukai = make_standard("Mukai")
    assert mukai.gram[0][1] == -1 and mukai.gram[0][0] == 0
    k3 = make_standard("K3")
    assert k3.gram[16][17] == -1  # first U block after the two E8 blocks


def test_bilinear_examples():
    u = make_standard("U")
    assert bilinear(u, (1, 0), (0, 1)) == -1
    twelve = make_standard("two_n", 6)
    assert bilinear(twelve, (1,), (1,)) == 12
    e_minus_f = (1, 0, -1)
    assert bilinear(U6, e_minus_f, e_minus_f) == 2


def test_bilinear_dimension_mismatch():
    with pytest.raises(ValueError):
        bilinear(U6, (1, 0), (0, 1, 0))


def test_direct_sum():
    u = make_standard("U")
    s = direct_sum(u, make_standard("two_n", 6))
    assert s.rank == 3
    assert direct_sum(u, u).determinant == 1
    # block determinant: det(U) * det(<12>) = (-1) * 12
    assert s.determinant == -12
    assert abs(s.determinant) == 12


def test_is_isometry_examples():
    assert is_isometry(U6, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    s1 = GENS["S1"].matrix
    # multiply out M^T Sigma M by hand as an independent check
    sigma = U6.gram
    prod = [[sum(s1[k][i] * sum(sigma[k][l] * s1[l][j] for l in range(3))
                 for k in range(3)) for j in range(3)] for i in range(3)]
    assert tuple(tuple(r) for r in prod) == sigma
    assert is_isometry(U6, s1)
    assert not is_isometry(U6, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))


def test_orientation_examples():
    neg_u = Isometry(U6, ((-1, 0, 0), (0, 1, 0), (0, 0, -1)))
    assert orientation_sign_positive(U6, neg_u) == -1
    assert orientation_sign_positive(U6, GENS["S1"]) == 1
    assert orientation_sign_positive(U6, -Isometry.identity(U6)) == 1


def test_orientation_refuses_a_negative_definite_lattice():
    for lat in (make_standard("E8minus"), IntLattice(((-2, 1), (1, -2)))):
        with pytest.raises(ValueError, match="no positive plane to orient"):
            orientation_sign_positive(lat, Isometry.identity(lat))


def test_orientation_reads_only_the_gram(rng):
    """A label-free lattice with the Gram of U + <12> orients every word as
    U + <12> does; on <2> + <-2> + U the sign follows the positive lines
    that a diagonal isometry negates."""
    plain = IntLattice(U6.gram)
    assert plain != U6
    gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6),
            Isometry(U6, ((-1, 0, 0), (0, 1, 0), (0, 0, -1)))]
    seen = set()
    for _ in range(100):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 3)):
            g = g @ rng.choice(gens)
        sign = orientation_sign_positive(U6, g)
        assert orientation_sign_positive(plain, Isometry(plain, g.matrix)) == sign
        seen.add(sign)
    assert seen == {1, -1}
    # <2> + <-2> + U: negating the positive line of <2> reverses, of U keeps
    lat = direct_sum(direct_sum(make_standard("two_n", 1), make_standard("minus_two_n", 1)),
                     make_standard("U"))
    for diag, expected in (((-1, 1, 1, 1), -1), ((-1, 1, -1, -1), 1), ((1, -1, 1, 1), 1),
                           ((1, 1, -1, -1), -1)):
        m = tuple(tuple(diag[i] if i == j else 0 for j in range(4)) for i in range(4))
        assert orientation_sign_positive(lat, Isometry(lat, m)) == expected


def test_orientation_multiplicative(rng):
    gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6)]
    for _ in range(1000):
        g = rng.choice(gens)
        h = rng.choice(gens)
        for _ in range(rng.randint(0, 3)):
            g = g @ rng.choice(gens)
        assert (orientation_sign_positive(U6, g @ h)
                == orientation_sign_positive(U6, g) * orientation_sign_positive(U6, h))


def test_isometry_words_have_unit_det_and_isometric_inverse(rng):
    gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6)]
    for _ in range(300):
        g = rng.choice(gens)
        for _ in range(rng.randint(0, 4)):
            g = g @ rng.choice(gens)
        assert g.determinant in (1, -1)
        assert is_isometry(U6, g.inverse().matrix)


@given(st.lists(st.integers(-50, 50), min_size=3, max_size=3),
       st.lists(st.integers(-50, 50), min_size=3, max_size=3),
       st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_bilinear_symmetric_biadditive(x, y, z):
    x, y, z = tuple(x), tuple(y), tuple(z)
    assert bilinear(U6, x, y) == bilinear(U6, y, x)
    xz = tuple(a + b for a, b in zip(x, z))
    assert bilinear(U6, xz, y) == bilinear(U6, x, y) + bilinear(U6, z, y)


def test_isometry_constructor_rejects_non_isometry():
    with pytest.raises(ValueError):
        Isometry(U6, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))


def test_isometry_stores_integral_entries_of_another_type_as_ints():
    g = Isometry(U6, ((1.0, 0, 0), (0, -1.0, 0), (0, 0, Fraction(1))))
    assert g.matrix == ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert all(type(x) is int for row in g.matrix for x in row)
    assert g.determinant == -1
    assert g == Isometry(U6, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="must be integral"):
        Isometry(U6, ((0.5, 0, 0), (0, 1, 0), (0, 0, 2)))


def test_isometry_constructor_rejects_a_ragged_matrix():
    for rows in (((1, 0, 0), (0, 1, 0), (0, 0, 1, 7)), ((1, 0, 0), (0, 1), (0, 0, 1))):
        with pytest.raises(ValueError, match="size does not match"):
            Isometry(U6, rows)


def test_make_standard_errors():
    with pytest.raises(ValueError):
        make_standard("nonsense")
    with pytest.raises(ValueError):
        make_standard("two_n", 0)
    with pytest.raises(ValueError):
        make_standard("U_plus_Mn")


def test_degenerate_gram_rejected():
    with pytest.raises(ValueError):
        IntLattice(((0,),))
    with pytest.raises(ValueError):
        IntLattice(((1, 2), (2, 4)))


def test_non_integral_gram_rejected():
    # int() would truncate 1/2 to a degenerate 0, and a float has no denominator
    for gram in (((Fraction(1, 2),),), ((0.5,),), ((2, Fraction(1, 3)), (Fraction(1, 3), 2))):
        with pytest.raises(ValueError, match="^Gram matrix must be integral$"):
            IntLattice(gram)
    # integral entries of another type are stored as ints
    lat = IntLattice(((Fraction(4, 2), 1.0), (1, Fraction(-2))))
    assert lat.gram == ((2, 1), (1, -2))
    assert all(type(x) is int for row in lat.gram for x in row)
    assert IntLattice.__slots__ == ("gram", "label")


def test_positive_rows_are_computed_once_per_gram():
    lattices._positive_rows.cache_clear()
    signs = [orientation_sign_positive(U6, g) for g in GENS.values()]
    assert signs == [1, 1, 1]
    info = lattices._positive_rows.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 2, 128)


def test_orientation_on_rank24_positive_four_space():
    mukai = make_standard("Mukai")
    assert signature(mukai) == (4, 20)
    assert orientation_sign_positive(mukai, -Isometry.identity(mukai)) == 1
    flip = tuple(tuple((-1 if i == j and i < 2 else (1 if i == j else 0))
                       for j in range(24)) for i in range(24))
    swap = [[0] * 24 for _ in range(24)]
    swap[0][1] = swap[1][0] = 1
    for i in range(2, 24):
        swap[i][i] = 1
    assert orientation_sign_positive(mukai, Isometry(mukai, flip)) == -1
    assert orientation_sign_positive(mukai, Isometry(mukai, tuple(map(tuple, swap)))) == -1


def test_root_reflection_is_involution():
    lat = make_standard("E8minus")
    root = (1, 0, 0, 0, 0, 0, 0, 0)
    r = root_reflection(lat, root)
    assert (r @ r).matrix == Isometry.identity(lat).matrix
    assert r.apply(root) == tuple(-x for x in root)
    # refused: a vector of square -4, and (1/2) e on <-8>, of square -2 but
    # not in the lattice (its reflection, -1, would be integral)
    for other, v in ((lat, (1, 1, 0, 0, 0, 0, 0, 0)), (IntLattice(((-8,),)), (Fraction(1, 2),))):
        with pytest.raises(ValueError, match="integer vector of square -2"):
            root_reflection(other, v)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_are_refused_with_each_constructors_message(bad):
    # Fraction cannot convert them, so is_integral answers False instead
    with pytest.raises(ValueError, match="^Gram matrix must be integral$"):
        IntLattice(((bad,),))
    with pytest.raises(ValueError, match="^isometry matrix must be integral$"):
        Isometry(U6, ((bad, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="^reflection requires an integer vector of square -2$"):
        root_reflection(make_standard("E8minus"), (bad, 0, 0, 0, 0, 0, 0, 0))


def test_hyperbolic_extension_matches_u_plus_mn():
    built = hyperbolic_extension(make_standard("two_n", 6))
    assert built.gram == U6.gram
    assert signature(built) == (2, 1)


def _assert_stored_form(lat):
    """The stored Gram is the validating constructor's: int row tuples."""
    assert type(lat.gram) is tuple and all(type(row) is tuple for row in lat.gram)
    assert all(type(x) is int for row in lat.gram for x in row)
    assert IntLattice(lat.gram, label=lat.label) == lat


def test_derived_lattices_equal_the_validating_constructor(rng):
    """Direct sums and hyperbolic extensions are built without a check; each
    equals what the validating constructor makes of its Gram and label."""
    rank2 = IntLattice(((2, 1), (1, -2)), label="rank2")
    for n in range(1, 61):
        two_n = make_standard("two_n", n)
        assert hyperbolic_extension(two_n).gram == ((0, 0, -1), (0, 2 * n, 0), (-1, 0, 0))
        pieces = [make_standard(name, n) for name in STANDARD_NAMES] + [rank2]
        for lat in pieces:
            _assert_stored_form(lat)
        for _ in range(6):
            a, b = rng.choice(pieces), rng.choice(pieces)
            for lat in (direct_sum(a, b), direct_sum(a, b, label="s"),
                        hyperbolic_extension(a), hyperbolic_extension(b, label="h"),
                        hyperbolic_extension(direct_sum(a, b))):
                _assert_stored_form(lat)
                assert signature(lat) == eigen_signature(lat)
    assert hyperbolic_extension(rank2).gram == ((0, 0, 0, -1), (0, 2, 1, 0),
                                                (0, 1, -2, 0), (-1, 0, 0, 0))


def test_derived_lattices_and_isometries_are_not_validated_again(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} validated a value known by construction")
    u, e8, two = make_standard("U"), make_standard("E8minus"), make_standard("two_n", 6)
    refl = Isometry(U6, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))   # from outside: checked once
    monkeypatch.setattr(IntLattice, "__post_init__", refuse)
    monkeypatch.setattr(Isometry, "__post_init__", refuse)
    k3_like = direct_sum(direct_sum(e8, e8), direct_sum(u, direct_sum(u, u)))
    assert k3_like.rank == 22 and k3_like.label == "E8minus+E8minus+U+U+U"
    assert hyperbolic_extension(two).gram == U6.gram
    assert direct_sum(u, two, label="x").gram == ((0, -1, 0), (-1, 0, 0), (0, 0, 12))
    g = GENS["S1"] @ refl @ -Isometry.identity(U6)
    assert (g @ g.inverse()).matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert root_reflection(u, (1, 1)).matrix == ((0, -1), (-1, 0))


def test_lattice_serialization():
    obj = lattice_to_obj(U6)
    assert obj == {"label": U6.label, "rank": 3,
                   "gram": ["0", "0", "-1", "0", "12", "0", "-1", "0", "0"]}


def test_bilinear_rational_inputs():
    val = bilinear(U6, (Fraction(1, 2), 0, 0), (0, 0, Fraction(1, 3)))
    assert val == Fraction(-1, 6)


# -- the former routes, kept as references -------------------------------------

# the positive bases the lattices once carried: e - f of each U summand and
# the generator of <12>, in the (e, v, f) basis of U + <12> and the (e, f,
# E8, E8, U, U, U) basis of U + K3
_FORMER_WITNESSES = {
    "U+<12>": ((1, 0, -1), (0, 1, 0)),
    "Mukai": tuple(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(24))
                   for i in (0, 18, 20, 22)),
}


def _orientation_by_solve(lat, g):
    """The former orientation sign: solve for the projection coordinates of
    the images in the former positive basis and take the sign of their det."""
    basis = _FORMER_WITNESSES[lat.label]
    gp = tuple(tuple(bilinear(lat, u, v) for v in basis) for u in basis)
    images = [mat_vec(g.matrix, v) for v in basis]
    rhs = tuple(tuple(bilinear(lat, u, img) for img in images) for u in basis)
    return 1 if det(solve(gp, rhs)) > 0 else -1


def _mukai_isometries():
    """Isometries of U + K3 = U + E8(-1)^2 + U^3 (basis e, f, E8, E8, U, U, U):
    reflections in the positive e - f and the negative e + f of the first
    U, a root reflection mixing that U with the first E8 block, a simple
    root reflection, and the swap of the first and last U."""
    lat = make_standard("Mukai")
    unit = [tuple(int(i == j) for j in range(24)) for i in range(24)]

    def vec(*terms):
        return tuple(sum(c * unit[i][j] for c, i in terms) for j in range(24))

    e_minus_f = vec((1, 0), (-1, 1))
    refl_pos = Isometry(lat, tuple(
        tuple(int(i == j) - e_minus_f[i] * x for j, x in enumerate(
            mat_vec(lat.gram, e_minus_f))) for i in range(24)))
    perm = list(range(24))
    perm[0], perm[1], perm[22], perm[23] = 22, 23, 0, 1
    swap_u = Isometry(lat, tuple(tuple(int(perm[j] == i) for j in range(24))
                                 for i in range(24)))
    return lat, [refl_pos, swap_u, -Isometry.identity(lat),
                 root_reflection(lat, vec((1, 0), (1, 1))),
                 root_reflection(lat, vec((1, 0), (1, 2))),
                 root_reflection(lat, vec((1, 5)))]


def test_orientation_sign_matches_former_solve(rng):
    u6_gens = [GENS["T"], GENS["S1"], GENS["S2"], -Isometry.identity(U6),
               Isometry(U6, ((-1, 0, 0), (0, 1, 0), (0, 0, -1))),
               Isometry(U6, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))]
    for lat, gens, words in ((U6, u6_gens, 400), (*_mukai_isometries(), 60)):
        seen = set()
        for _ in range(words):
            g = rng.choice(gens)
            for _ in range(rng.randint(0, 4)):
                g = g @ rng.choice(gens)
            sign = orientation_sign_positive(lat, g)
            assert sign == _orientation_by_solve(lat, g)
            seen.add(sign)
        assert seen == {1, -1}


def _relabelled_copy(name, n=None):
    """The former K3 / Mukai / Mcheck_n: the direct sum copied into a second
    lattice only to carry the label."""
    e8, u = make_standard("E8minus"), make_standard("U")
    if name == "K3":
        lat, label = direct_sum(direct_sum(e8, e8), direct_sum(u, direct_sum(u, u))), "K3"
    elif name == "Mukai":
        lat, label = direct_sum(u, _relabelled_copy("K3")), "Mukai"
    else:
        lat = direct_sum(make_standard("minus_two_n", n), direct_sum(u, direct_sum(e8, e8)))
        label = f"Mcheck:{n}"
    return IntLattice(lat.gram, label=label)


@pytest.mark.parametrize("name,n", [("K3", None), ("Mukai", None)]
                         + [("Mcheck_n", n) for n in (1, 2, 6, 15, 30)])
def test_standard_sums_match_former_relabelled_copies(name, n):
    new, old = make_standard(name, n), _relabelled_copy(name, n)
    assert (new.gram, new.label) == (old.gram, old.label)
    assert signature(new) == signature(old) == eigen_signature(new)


def _former_signature(gram):
    """The former signature: congruence diagonalization over Q updating both
    the rows and the columns at every step."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    p = q = 0
    for k in range(n):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if piv is not None:
                a[k], a[piv] = a[piv], a[k]
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
            else:
                off = next((r for r in range(k + 1, n) if a[k][r] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        if d > 0:
            p += 1
        else:
            q += 1
        for r in range(k + 1, n):
            f = a[r][k] / d
            if f:
                for j in range(n):
                    a[r][j] -= f * a[k][j]
                for i in range(n):
                    a[i][r] -= f * a[i][k]
    return (p, q)


@st.composite
def symmetric_grams(draw):
    """Symmetric integer matrices of rank 1-8, some with a zero diagonal and
    some made degenerate on purpose: pulled back as E^T G E along a matrix E
    whose column i is a combination of the other unit columns."""
    n = draw(st.integers(1, 8))
    entries = st.integers(-3, 3)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    if draw(st.booleans()):
        upper.update({(i, i): 0 for i in range(n)})
    g = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        coeffs = [0 if k == i else draw(entries) for k in range(n)]
        e = tuple(tuple(coeffs[r] if c == i else int(r == c) for c in range(n))
                  for r in range(n))
        g = congruent(g, e)
    return g


@settings(max_examples=1000, deadline=None)
@given(symmetric_grams())
def test_lattice_accepts_exactly_the_nondegenerate_grams(g):
    if det(g) != 0:
        assert sum(signature(IntLattice(g))) == len(g)
    else:
        with pytest.raises(ValueError, match="^Gram matrix must be nondegenerate$"):
            IntLattice(g)


@settings(max_examples=500, deadline=None)
@given(symmetric_grams())
def test_signature_matches_former_two_sided_elimination(g):
    try:
        expected = _former_signature(g)
    except ValueError:
        with pytest.raises(ValueError):
            signature_of_gram(g)
    else:
        assert signature_of_gram(g) == expected


def _assert_diagonalizes(g):
    pairs = lattices._diagonal(g)
    t = tuple(tuple(row) for _, row in pairs)
    d = [dk for dk, _ in pairs]
    assert congruent(g, transpose(t)) == tuple(
        tuple(d[i] if i == j else 0 for j in range(len(g))) for i in range(len(g)))
    assert 0 not in d
    p = sum(dk > 0 for dk in d)
    assert signature_of_gram(g) == (p, len(g) - p)


@settings(max_examples=300, deadline=None)
@given(symmetric_grams())
def test_diagonal_is_a_congruence(g):
    """T G T^T = diag(d_k) with every d_k nonzero on a nondegenerate Gram;
    a degenerate one is refused."""
    if det(g) == 0:
        with pytest.raises(ValueError, match="degenerate form"):
            lattices._diagonal(g)
    else:
        _assert_diagonalizes(g)


@pytest.mark.parametrize("name,n", [("U", None), ("E8minus", None), ("K3", None),
                                    ("Mukai", None), ("U_plus_Mn", 6), ("Mcheck_n", 6),
                                    ("two_n", 3), ("minus_two_n", 3)])
def test_diagonal_of_the_standard_grams(name, n):
    _assert_diagonalizes(make_standard(name, n).gram)


def test_diagonal_of_the_glued_overlattice():
    _assert_diagonalizes(construct_mirror_embedding(6).overlattice.gram)


def _hidden_block_gram(rng):
    """A symmetric matrix that is block diagonal under a hidden permutation;
    one block in four is degenerate: its last row repeats its first."""
    gram = ()
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, 5)
        upper = {(i, j): rng.randint(-3, 3) for i in range(size) for j in range(i, size)}
        block = [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
        if rng.random() < 0.25:
            block[-1] = list(block[0])
            for row in block:
                row[-1] = row[0]
        gram = block_diag(gram, tuple(map(tuple, block))) if gram else tuple(map(tuple, block))
    order = list(range(len(gram)))
    rng.shuffle(order)
    return tuple(tuple(gram[i][j] for j in order) for i in order)


def test_signature_adds_over_hidden_blocks():
    """The block-additive signature against one plain elimination of the
    whole matrix; a degenerate block still makes the form degenerate."""
    rng = random.Random(41)
    degenerate = 0
    for _ in range(400):
        g = _hidden_block_gram(rng)
        try:
            expected = _former_signature(g)
        except ValueError:
            degenerate += 1
            with pytest.raises(ValueError, match="degenerate form"):
                signature_of_gram(g)
        else:
            assert signature_of_gram(g) == expected
    assert 0 < degenerate < 400
    assert signature_of_gram.cache_info().currsize > 0


@pytest.mark.parametrize("name,n", [("U", None), ("E8minus", None), ("K3", None),
                                    ("Mukai", None), ("U_plus_Mn", 30), ("Mcheck_n", 30)])
def test_building_a_lattice_takes_no_determinant(monkeypatch, name, n):
    def refuse(a):
        raise AssertionError("det called while building a lattice")
    monkeypatch.setattr(lattices, "det", refuse)
    lat = make_standard(name, n)
    assert signature(lat) == eigen_signature(lat)


def test_derived_isometries_are_not_validated_again(monkeypatch):
    gd = construct_mirror_embedding(6)
    tbar, stab = GENS["T"], table1_stabilizers()
    root = tuple(int(i == 5) for i in range(gd.right.rank))

    def refuse(g, m):
        raise AssertionError("congruent called on an isometry known by construction")
    monkeypatch.setattr(lattices, "congruent", refuse)
    id_right = Isometry.identity(gd.right)
    assert id_right.apply(root) == root
    assert (tbar @ tbar).matrix == ((1, 0, 0), (2, 1, 0), (24, 24, 1))
    assert (-tbar).matrix == ((-1, 0, 0), (-1, -1, 0), (-6, -12, -1))
    assert tbar.inverse().matrix == ((1, 0, 0), (-1, 1, 0), (6, -12, 1))
    assert R_map(stab["T"], 6).to_isometry() == tbar
    assert root_reflection(gd.right, root).apply(root) == tuple(-x for x in root)
    assert glue_extends(gd, tbar, id_right).lattice == gd.overlattice
    # the public constructor still checks the form
    with pytest.raises(AssertionError, match="known by construction"):
        Isometry(U6, tbar.matrix)
