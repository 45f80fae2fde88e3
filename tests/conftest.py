"""Shared helpers: sample isometries of U + <2n> and of the mirror-side
summand, used by the discriminant, modular and glue test suites."""

import random
from fractions import Fraction

import pytest

from k3mirror.lattices import Isometry, root_reflection
from k3mirror.linalg import identity, mat_mul
from k3mirror.modular import R_map, fricke, translation, u_plus_mn


def n_side_isometries(n):
    """(lattice, isometries) for U + <2n>: translation and Fricke images,
    -id, and the reflection negating the degree vector."""
    lat = u_plus_mn(n)
    tbar = R_map(translation(), n).to_isometry()
    s1bar = (-R_map(fricke(n), n)).to_isometry()
    neg = -Isometry.identity(lat)
    refl_v = Isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    return lat, [tbar, s1bar, neg, refl_v]


def mirror_side_isometries(gd):
    """Isometries of the 21-dimensional mirror summand U + (<-2n> + U + E8^2):
    identity, -id, the reflection in the <-2n> generator, the swap of the two
    E8 blocks, and a root reflection inside the first E8 block."""
    lat = gd.right
    rank = lat.rank
    ident = Isometry.identity(lat)
    neg = -ident
    w_index = 2
    refl_w = Isometry(lat, tuple(
        tuple((-1 if i == j == w_index else (1 if i == j else 0)) for j in range(rank))
        for i in range(rank)))
    perm = list(range(rank))
    for k in range(8):
        perm[5 + k], perm[13 + k] = perm[13 + k], perm[5 + k]
    swap_e8 = Isometry(lat, tuple(
        tuple(1 if perm[j] == i else 0 for j in range(rank)) for i in range(rank)))
    root = tuple(1 if i == 5 else 0 for i in range(rank))
    refl_root = root_reflection(lat, root)
    return [ident, neg, refl_w, swap_e8, refl_root]


def random_word(rng: random.Random, gens, max_len=5):
    """The product of 1..max_len seeded generators, validated once."""
    m = identity(len(gens[0].matrix))
    for _ in range(rng.randint(1, max_len)):
        m = mat_mul(m, rng.choice(gens).matrix)
    return Isometry(gens[0].lattice, m)


def fraction_det(a):
    """The former determinant: Gaussian elimination over Fraction, kept as
    the reference for the fraction-free one."""
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    sign, result = 1, Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    result *= sign
    return int(result) if result.denominator == 1 else result


@pytest.fixture
def rng():
    return random.Random(20240612)
