import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from sympy import primefactors

from conftest import fraction_det, mirror_side_isometries, n_side_isometries, random_word
from k3mirror import discriminant
from k3mirror.discriminant import (
    GlueData,
    construct_mirror_embedding,
    cyclic_disc_isometry_count,
    disc_group_to_obj,
    discriminant_group,
    glue_compatible,
    glue_extends,
    in_kernel_star,
    induced_disc_action,
)
from k3mirror.lattices import (
    IntLattice,
    Isometry,
    bilinear,
    direct_sum,
    make_standard,
    orientation_sign_positive,
    root_reflection,
    signature,
)
from k3mirror.linalg import (
    block_diag,
    congruent,
    freeze_mat,
    identity,
    inverse,
    is_integral,
    mat_mul,
    mat_vec,
)
from k3mirror.modular import monodromy_generators, u_plus_mn

GENS = monodromy_generators(6)
U6 = u_plus_mn(6)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(discriminant.__file__)))


def test_unimodular_is_trivial():
    group = discriminant_group(make_standard("U"))
    assert group.invariant_factors == ()
    assert group.order == 1


def test_twelve_generator_and_qvalue():
    group = discriminant_group(make_standard("two_n", 6))
    assert group.invariant_factors == (12,)
    # direct rational arithmetic: (v/12, v/12) = 12/144 = 1/12, already in [0,2)
    assert Fraction(1, 12) * 12 * Fraction(1, 12) == Fraction(1, 12)
    assert group.qvals == (Fraction(1, 12),)


def test_u_plus_m6_discriminant_is_z12():
    group = discriminant_group(U6)
    assert group.invariant_factors == (12,)


@pytest.mark.parametrize("name,n", [
    ("U", None), ("E8minus", None), ("K3", None), ("Mukai", None),
    ("two_n", 6), ("minus_two_n", 6), ("U_plus_Mn", 6), ("U_plus_Mn", 15),
    ("Mcheck_n", 6),
])
def test_order_equals_determinant(name, n):
    lat = make_standard(name, n)
    assert discriminant_group(lat).order == abs(lat.determinant)


def test_standard_discriminant_forms_match_the_closed_form():
    """A = Z/2n with q = 1/2n on <2n> and U + <2n>, and q = 2 - 1/2n on
    <-2n> and Mcheck_n, for every n <= 200."""
    for n in range(1, 201):
        q = Fraction(1, 2 * n)
        for name, qval in (("two_n", q), ("U_plus_Mn", q),
                           ("minus_two_n", 2 - q), ("Mcheck_n", 2 - q)):
            group = discriminant_group.__wrapped__(make_standard(name, n))
            assert disc_group_to_obj(group) == {"invariant_factors": [2 * n],
                                                "qvals": [str(qval)]}


_DROP_A_FACTOR = """
import sys
from k3mirror import discriminant, lattices
smith = discriminant.smith_normal_decomp
discriminant.smith_normal_decomp = lambda a: (smith(a)[0][:-1],) + smith(a)[1:]
try:
    discriminant.discriminant_group(lattices.make_standard("U_plus_Mn", 6))
except ArithmeticError:
    print(sys.flags.optimize, "refused")
"""


def test_discriminant_group_refuses_a_smith_form_without_a_factor(monkeypatch):
    """The order check is an explicit raise, so it also holds under python -O."""
    smith = discriminant.smith_normal_decomp
    monkeypatch.setattr(discriminant, "smith_normal_decomp",
                        lambda a: (smith(a)[0][:-1],) + smith(a)[1:])
    with pytest.raises(ArithmeticError, match="invariant factors"):
        discriminant_group.__wrapped__(U6)
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _DROP_A_FACTOR], capture_output=True,
                          check=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == "1 refused\n"


def test_two_invariant_factors():
    lat = IntLattice(((2, 0), (0, 6)), label="diag(2,6)")
    group = discriminant_group(lat)
    assert group.invariant_factors == (2, 6)
    # q(e1/2) = 2/4 = 1/2 and q(e2/6) = 6/36 = 1/6, directly
    assert sorted(group.qvals) == [Fraction(1, 6), Fraction(1, 2)]
    assert group.bvals[0][1] == group.bvals[1][0]


def test_generator_lifts_are_torsion():
    for lat in (make_standard("two_n", 6), make_standard("U_plus_Mn", 15),
                make_standard("Mcheck_n", 4), IntLattice(((2, 1), (1, 4)))):
        group = discriminant_group(lat)
        for d, lift in zip(group.invariant_factors, group.generator_lifts):
            scaled = tuple(d * c for c in lift)
            assert all(Fraction(x).denominator == 1 for x in scaled)
            assert group.class_of(lift) != group.class_of(tuple(0 for _ in lift))


def test_qvals_reduced_mod_two_and_bvals_mod_one():
    group = discriminant_group(make_standard("Mcheck_n", 6))
    assert all(0 <= q < 2 for q in group.qvals)
    assert all(0 <= b < 1 for row in group.bvals for b in row)


def test_lift_choice_does_not_change_classes():
    group = discriminant_group(U6)
    lift = group.generator_lifts[0]
    shifted = tuple(c + k for c, k in zip(lift, (3, -2, 5)))
    assert group.class_of(lift) == group.class_of(shifted)


def test_dual_vector_required():
    for lat, x in ((U6, (Fraction(1, 5), 0, 0)),
                   (make_standard("Mcheck_n", 6), (0, Fraction(1, 2)) + (0,) * 17),
                   (make_standard("two_n", 6), (Fraction(1, 24),))):
        with pytest.raises(ValueError, match="^vector is not in the dual lattice$"):
            discriminant_group(lat).class_of(x)


def test_class_of_refuses_a_vector_of_another_rank():
    group = discriminant_group(U6)
    for x in ((0, Fraction(1, 12)), (0, Fraction(1, 12), 0, 0), ()):
        with pytest.raises(ValueError, match="vector length"):
            group.class_of(x)


# -- the former Fraction route of the discriminant maps, kept as a reference ----

def _former_class_of(group, x):
    gx = mat_vec(group.lattice.gram, tuple(Fraction(c) for c in x))
    if not is_integral(gx):
        raise ValueError("vector is not in the dual lattice")
    coords = mat_vec(group.left_transform, tuple(int(c) for c in gx))
    return tuple(int(c) % d for c, d in zip(coords, group.all_factors) if d > 1)


def _former_disc_action(lat, g):
    group = discriminant_group(lat)
    cols = [_former_class_of(group, mat_vec(g.matrix, lift)) for lift in group.generator_lifts]
    k = len(group.invariant_factors)
    return freeze_mat([[cols[j][i] for j in range(k)] for i in range(k)])


def _mcheck_isometries(n):
    """Isometries of <-2n> + U + E8(-1)^2, basis (w, e, f, E8, E8): identity,
    -id, the w-reflection, the swap of e and f, the E8 swap, a root reflection."""
    lat = make_standard("Mcheck_n", n)
    rank = lat.rank

    def permutation(perm, signs=None):
        return Isometry(lat, tuple(tuple((signs or {}).get(j, 1) if perm[j] == i else 0
                                         for j in range(rank)) for i in range(rank)))

    ident = list(range(rank))
    swap_u = ident[:1] + [2, 1] + ident[3:]
    swap_e8 = ident[:3] + ident[11:] + ident[3:11]
    return [Isometry.identity(lat), -Isometry.identity(lat), permutation(ident, {0: -1}),
            permutation(swap_u), permutation(swap_e8),
            root_reflection(lat, tuple(int(i == 3) for i in range(rank)))]


def _disc_kind_isometries(n):
    """Generators on U + <2n>, U + Mcheck_n and the four lattices of the
    benchmark's disc ops (U_plus_Mn, Mcheck_n, two_n, minus_two_n)."""
    gd = construct_mirror_embedding(n)
    rank_one = [make_standard(name, n) for name in ("two_n", "minus_two_n")]
    return ([n_side_isometries(n)[1], mirror_side_isometries(gd), _mcheck_isometries(n)]
            + [[Isometry.identity(lat), -Isometry.identity(lat)] for lat in rank_one])


def _assert_former_fraction_route(rng, gens):
    """Integer numerators over the invariant factor against the former
    Fraction arithmetic: the forms q and b of the group, the actions of
    seeded words and the classes of seeded dual vectors."""
    lat = gens[0].lattice
    group = discriminant_group(lat)
    lifts = group.generator_lifts
    assert group.qvals == tuple(Fraction(bilinear(lat, v, v)) % 2 for v in lifts)
    assert group.bvals == freeze_mat([[Fraction(bilinear(lat, u, v)) % 1 for v in lifts]
                                      for u in lifts])
    for _ in range(12):
        g = random_word(rng, gens)
        assert induced_disc_action(lat, g) == _former_disc_action(lat, g)
        x = [rng.randint(-3, 3) for _ in range(lat.rank)]
        for lift in lifts:
            c = rng.randint(-5, 5)
            x = [a + c * b for a, b in zip(x, lift)]
        assert group.class_of(tuple(x)) == _former_class_of(group, x)


@pytest.mark.parametrize("n", (1, 2, 3, 6, 7, 12, 30, 60))
def test_disc_maps_match_the_former_fraction_route(n):
    rng = random.Random(9000 + n)
    for gens in _disc_kind_isometries(n):
        _assert_former_fraction_route(rng, gens)


def test_disc_maps_match_the_former_fraction_route_on_reducible_lifts():
    """Lifts whose entries share a factor with the invariant factor, such as
    (1/9, -5/9, 1/4) for the factor 36, so a numerator must be rescaled."""
    lat = IntLattice(((6, 3, 0), (3, 6, 0), (0, 0, 4)))
    group = discriminant_group(lat)
    assert any(x.denominator < d
               for d, lift in zip(group.invariant_factors, group.generator_lifts)
               for x in lift if x)
    swap, flip = ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    gens = [Isometry(lat, m) for m in (identity(3), swap, flip)] + [-Isometry.identity(lat)]
    _assert_former_fraction_route(random.Random(9100), gens)


def test_disc_action_examples():
    assert induced_disc_action(U6, Isometry.identity(U6)) == ((1,),)
    assert induced_disc_action(U6, GENS["S2"]) == ((5,),)
    assert induced_disc_action(U6, GENS["T"]) == ((1,),)
    assert induced_disc_action(U6, GENS["S1"]) == ((1,),)


def test_kernel_examples():
    assert in_kernel_star(U6, GENS["T"])
    assert not in_kernel_star(U6, GENS["S2"])
    u1 = u_plus_mn(1)
    assert in_kernel_star(u1, -Isometry.identity(u1))
    u2 = u_plus_mn(2)
    assert not in_kernel_star(u2, -Isometry.identity(u2))


def test_kernel_is_closed_under_products(rng):
    s1s2_sq = (GENS["S1"] @ GENS["S2"]) @ (GENS["S1"] @ GENS["S2"])
    kernel_gens = [GENS["T"], GENS["S1"], s1s2_sq]
    assert all(in_kernel_star(U6, g) for g in kernel_gens)
    for _ in range(200):
        g = random_word(rng, kernel_gens)
        assert in_kernel_star(U6, g)
        # composing with the non-kernel S2bar always leaves the kernel
        assert not in_kernel_star(U6, g @ GENS["S2"])


def test_cyclic_count_examples():
    # exhaustive oracle, written out locally
    units = [a for a in range(1, 12) if a % 2 and a % 3]
    assert [a for a in units if (a * a - 1) % 24 == 0] == [1, 5, 7, 11]
    assert cyclic_disc_isometry_count(6) == 4
    assert cyclic_disc_isometry_count(2) == 2
    assert cyclic_disc_isometry_count(1) == 1


def test_cyclic_count_matches_factorization():
    for n in range(2, 501):
        assert cyclic_disc_isometry_count(n) == 2 ** len(primefactors(n))


def test_mirror_embedding_n6():
    gd = construct_mirror_embedding(6)
    assert gd.index == 12
    assert abs(gd.overlattice.determinant) == 1
    assert gd.overlattice.is_even
    assert signature(gd.overlattice) == (4, 20)
    # the glue vector is isotropic: q((v+w)/12) = (12 - 12)/144 = 0
    assert bilinear(gd.sub, gd.glue_vector, gd.glue_vector) == 0


def test_mirror_embedding_small_n():
    gd = construct_mirror_embedding(1)
    assert gd.index == 2
    assert signature(gd.overlattice) == (4, 20)


def _former_embedding(n):
    """The former build: the inverse basis by elimination over Fraction, the
    Gram by the congruence B^T G B, the determinant over Fraction."""
    left = make_standard("U_plus_Mn", n)
    right = direct_sum(make_standard("U"), make_standard("Mcheck_n", n), label=f"U+Mcheck:{n}")
    sub = direct_sum(left, right, label=f"glue-sub:{n}")
    rank = sub.rank
    v_index, w_index = 1, left.rank + 2
    glue = tuple(Fraction(1, 2 * n) if i in (v_index, w_index) else 0 for i in range(rank))
    over_basis = tuple(tuple(glue[i] if j == w_index else int(i == j) for j in range(rank))
                       for i in range(rank))
    over_gram = congruent(sub.gram, over_basis)
    assert is_integral(over_gram)
    overlattice = IntLattice(tuple(tuple(int(x) for x in row) for row in over_gram),
                             label=f"glued:{n}")
    assert overlattice.is_even and abs(fraction_det(overlattice.gram)) == 1
    assert signature(overlattice) == (4, 20)
    return GlueData(left=left, right=right, sub=sub, over_basis=over_basis,
                    over_basis_inv=inverse(over_basis), overlattice=overlattice,
                    glue_vector=glue, index=2 * n)


def _entry_types(gd):
    return [[[type(x) for x in row] for row in m]
            for m in (gd.over_basis, gd.over_basis_inv, gd.overlattice.gram)]


def test_mirror_embedding_matches_the_former_build():
    """The closed-form embedding equals the former build field by field,
    down to the type of every entry: over_basis_inv stays all Fraction."""
    for n in range(1, 61):
        gd, former = construct_mirror_embedding(n), _former_embedding(n)
        assert gd == former and repr(gd) == repr(former)
        assert _entry_types(gd) == _entry_types(former)
        assert {type(x) for row in gd.over_basis_inv for x in row} == {Fraction}
        assert [type(x) for x in gd.glue_vector] == [type(x) for x in former.glue_vector]


def test_glue_examples():
    gd = construct_mirror_embedding(6)
    id_right = Isometry.identity(gd.right)
    assert glue_extends(gd, GENS["T"], id_right) is not None
    assert glue_extends(gd, GENS["S1"], id_right) is not None
    assert glue_extends(gd, GENS["S2"], id_right) is None
    both_id = glue_extends(gd, Isometry.identity(gd.left), id_right)
    assert both_id.matrix == Isometry.identity(gd.overlattice).matrix


def test_glue_negation_pair_extends():
    # neither side acts trivially on its discriminant, but the scalars match
    gd = construct_mirror_embedding(6)
    ext = glue_extends(gd, -Isometry.identity(gd.left), -Isometry.identity(gd.right))
    assert ext is not None


@pytest.mark.parametrize("n", [1, 6, 30])
def test_glued_orientation_is_the_product_of_the_halves(n):
    """The overlattice was never given a positive basis; the positive planes
    of the two summands span one of it over Q, so an extended pair orients
    it as the product of the signs of its halves.  Both signs occur."""
    rng = random.Random(9100 + n)
    gd = construct_mirror_embedding(n)
    _, ngens = n_side_isometries(n)
    kgens = mirror_side_isometries(gd)
    pairs, seen = 0, set()
    while pairs < 4 or len(seen) < 2:
        g_left, g_right = random_word(rng, ngens), random_word(rng, kgens)
        if not glue_compatible(gd, g_left, g_right):
            continue
        pairs += 1
        sign = (orientation_sign_positive(gd.left, g_left)
                * orientation_sign_positive(gd.right, g_right))
        assert orientation_sign_positive(gd.overlattice, glue_extends(gd, g_left, g_right)) == sign
        seen.add(sign)
    assert pairs <= 8


def _disc_scalar(lat, g):
    action = induced_disc_action(lat, g)
    return action[0][0]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_glue_matches_discriminant_correspondence(n):
    """glue_extends succeeds iff the two discriminant actions agree under the
    glue; checked against the direct integrality route on random pairs."""
    rng = random.Random(1000 + n)
    gd = construct_mirror_embedding(n)
    lat, ngens = n_side_isometries(n)
    kgens = mirror_side_isometries(gd)
    for _ in range(30):
        g_left = random_word(rng, ngens)
        g_right = random_word(rng, kgens)
        predicted = _disc_scalar(gd.left, g_left) == _disc_scalar(gd.right, g_right)
        extended = glue_extends(gd, g_left, g_right)
        assert (extended is not None) == predicted
        if extended is not None:
            assert extended.lattice == gd.overlattice


# -- the former glue test, kept as a reference ---------------------------------

def _integral_inverse(gd):
    """B^-1 as ints: it is integral, because the sub-lattice lies in the
    overlattice."""
    assert is_integral(gd.over_basis_inv)
    return tuple(tuple(int(x) for x in row) for row in gd.over_basis_inv)


def _former_glue_conjugate(gd, g_left, g_right, b_inv):
    """The test glue_extends made for every pair before the O(rank) verdict:
    the full conjugation B^-1 (L + R) B by the glue basis B, accepted iff
    integral.  Returns the integer matrix, or None.  With B^-1 read as ints
    the product is the same, without a Fraction product in every entry."""
    conj = mat_mul(b_inv, mat_mul(block_diag(g_left.matrix, g_right.matrix), gd.over_basis))
    if not is_integral(conj):
        return None
    return tuple(tuple(int(x) for x in row) for row in conj)


GLUE_WORDS = 300
GLUE_EXTENDED = 10   # pairs of each verdict also run through glue_extends


@pytest.mark.parametrize("n", [1, 2, 5, 6, 30, 60])
def test_glue_verdict_matches_former_conjugation(n):
    """glue_compatible agrees with the full conjugation on GLUE_WORDS distinct
    seeded word pairs, both sides drawn with non-identity generators.  Since
    glue_extends refuses exactly when glue_compatible does, it runs on the
    first GLUE_EXTENDED pairs of each verdict: it refuses the refused ones and
    extends the accepted ones to the conjugate itself."""
    rng = random.Random(7000 + n)
    gd = construct_mirror_embedding(n)
    _, ngens = n_side_isometries(n)
    kgens = mirror_side_isometries(gd)
    b_inv = _integral_inverse(gd)
    seen, by_verdict = set(), {True: 0, False: 0}
    while len(seen) < GLUE_WORDS:
        g_left, g_right = random_word(rng, ngens), random_word(rng, kgens)
        if (g_left.matrix, g_right.matrix) in seen:
            continue
        seen.add((g_left.matrix, g_right.matrix))
        expected = _former_glue_conjugate(gd, g_left, g_right, b_inv)
        verdict = glue_compatible(gd, g_left, g_right)
        assert verdict == (expected is not None)
        by_verdict[verdict] += 1
        if by_verdict[verdict] <= GLUE_EXTENDED:
            extended = glue_extends(gd, g_left, g_right)
            assert (extended.matrix if verdict else extended) == expected
    # both verdicts occur, except at n = 1 where every pair extends
    accepted = by_verdict[True]
    assert accepted == GLUE_WORDS if n == 1 else 0 < accepted < GLUE_WORDS


# -- derived isometries, against the validating constructor ---------------------

_STEPS = st.lists(st.tuples(st.sampled_from(("mul", "neg", "inv")), st.integers(0, 4)),
                  max_size=6)


def _derived_word(gens, steps):
    """Follow the drawn steps from the identity through @, unary minus and
    inverse.  Every isometry on the way must match the matrix computed
    beside it (the inverse: the former one over Fraction) and pass the
    validating constructor unchanged, and its determinant must equal the
    former one over Fraction."""
    g = Isometry.identity(gens[0].lattice)
    m = identity(len(g.matrix))
    for op, i in steps:
        if op == "mul":
            g, m = g @ gens[i % len(gens)], mat_mul(m, gens[i % len(gens)].matrix)
        elif op == "neg":
            g, m = -g, tuple(tuple(-x for x in row) for row in m)
        else:
            g = g.inverse()
            # the former inverse: elimination over Fraction
            assert g.matrix == tuple(tuple(int(x) for x in row) for row in inverse(m))
            assert mat_mul(g.matrix, m) == identity(len(m))
            m = g.matrix
        assert g.matrix == m
        assert Isometry(g.lattice, g.matrix) == g
        assert g.determinant == fraction_det(m) in (1, -1)
    return g


@cache
def _glue_generators(n):
    """The U + <2n> generators (R-images through to_isometry, -id, the
    v-reflection) and those of the rank-21 summand (identity, -id, the
    <-2n> reflection, the E8 swap, a root reflection)."""
    gd = construct_mirror_embedding(n)
    return gd, n_side_isometries(n)[1], mirror_side_isometries(gd)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 30, 60))
def test_glue_generators_pass_the_validating_constructor(n):
    _, ngens, kgens = _glue_generators(n)
    for g in ngens + kgens:
        assert Isometry(g.lattice, g.matrix) == g


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((1, 2, 6, 7, 30)), _STEPS, _STEPS)
def test_derived_isometries_pass_the_validating_constructor(n, left_steps, right_steps):
    """Words over the generators, then their glue: an accepted pair's
    extension passes the validating constructor too, and the verdict
    follows the discriminant actions."""
    gd, ngens, kgens = _glue_generators(n)
    g_left, g_right = _derived_word(ngens, left_steps), _derived_word(kgens, right_steps)
    extended = glue_extends(gd, g_left, g_right)
    assert (extended is not None) == (induced_disc_action(gd.left, g_left)
                                      == induced_disc_action(gd.right, g_right))
    if extended is not None:
        assert Isometry(gd.overlattice, extended.matrix) == extended


def test_glue_verdict_reads_the_glue_columns():
    gd = construct_mirror_embedding(6)
    id_left, id_right = Isometry.identity(gd.left), Isometry.identity(gd.right)
    refl_w = Isometry(gd.right, tuple(
        tuple(-1 if i == j == 2 else int(i == j) for j in range(gd.right.rank))
        for i in range(gd.right.rank)))
    assert glue_compatible(gd, id_left, id_right)
    assert glue_compatible(gd, -id_left, refl_w)          # k = -1 on both sides
    assert not glue_compatible(gd, id_left, refl_w)       # k = 1 against k = -1
    assert not glue_compatible(gd, GENS["S2"], id_right)  # k = 5 against k = 1
    with pytest.raises(ValueError, match="do not match"):
        glue_compatible(gd, id_right, id_right)


def test_glue_extension_contradicting_the_verdict_raises(monkeypatch):
    gd = construct_mirror_embedding(6)
    id_right = Isometry.identity(gd.right)
    monkeypatch.setattr(discriminant, "glue_compatible", lambda *pair: True)
    with pytest.raises(ArithmeticError, match="not integral"):
        glue_extends(gd, GENS["S2"], id_right)
    assert glue_extends(gd, GENS["T"], id_right) is not None


def test_mirror_embedding_is_built_once_per_n():
    assert construct_mirror_embedding(5) is construct_mirror_embedding(5)
    assert construct_mirror_embedding.cache_info().maxsize == 128
    gd = construct_mirror_embedding(5)
    assert [type(x) for x in gd.glue_vector if not x] == [int] * (gd.sub.rank - 2)


def test_over_basis_determinant_is_inverse_index():
    from k3mirror.linalg import det
    for n in (1, 2, 6):
        gd = construct_mirror_embedding(n)
        assert abs(det(gd.over_basis)) == Fraction(1, gd.index)


def test_disc_action_rejects_non_isometry():
    # the maps take only Isometry values: a raw matrix is refused even when
    # it is an isometry
    for fn in (induced_disc_action, in_kernel_star, orientation_sign_positive):
        for raw in (((1, 0, 0), (0, 2, 0), (0, 0, 1)), GENS["S1"].matrix):
            with pytest.raises(ValueError, match="not a raw matrix"):
                fn(U6, raw)


def test_disc_maps_refuse_an_isometry_of_another_lattice():
    other = Isometry.identity(make_standard("U_plus_Mn", 5))
    flip = Isometry(make_standard("U_plus_Mn", 5), ((-1, 0, 0), (0, 1, 0), (0, 0, -1)))
    for fn in (induced_disc_action, in_kernel_star, orientation_sign_positive):
        for g in (other, flip):
            with pytest.raises(ValueError, match="different lattice"):
                fn(make_standard("U_plus_Mn", 6), g)
    # an equal lattice built afresh is the same lattice
    assert induced_disc_action(make_standard("U_plus_Mn", 6), GENS["S2"]) == ((5,),)


def test_count_validates_input():
    with pytest.raises(ValueError):
        cyclic_disc_isometry_count(0)


def test_glue_rejects_mismatched_lattices():
    gd = construct_mirror_embedding(6)
    with pytest.raises(ValueError):
        glue_extends(gd, Isometry.identity(gd.right), Isometry.identity(gd.right))


def test_serialization():
    from k3mirror.discriminant import disc_group_to_obj
    obj = disc_group_to_obj(discriminant_group(make_standard("two_n", 6)))
    assert obj == {"invariant_factors": [12], "qvals": ["1/12"]}
