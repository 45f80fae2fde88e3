"""Discriminant groups A_L = L*/L with their Q/2Z quadratic forms, the kernel
subgroup of isometries acting trivially on A_L, brute-force isometry counts
for cyclic discriminants, and finite-index overlattice gluing.

Conventions: for an even lattice the discriminant quadratic form is
q(x) = (x,x) taken mod 2Z with representatives in [0,2); the pairing
b(x,y) = (x,y) mod Z with representatives in [0,1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from ._frozen import Frozen
from .lattices import IntLattice, Isometry, bilinear, direct_sum, make_standard, signature
from .linalg import (
    Mat,
    Vec,
    block_diag,
    congruent,
    freeze_mat,
    identity,
    inverse,
    is_integral,
    mat_mul,
    mat_vec,
    smith_normal_decomp,
)

# the largest n the brute-force isometry count accepts; it loops over the
# residues mod 2n, so a larger request is refused before the loop starts
MAX_COUNT_N = 10**6


class DiscriminantGroup(Frozen):
    """A_L = L*/L presented by invariant factors d_1 | d_2 | ... (each > 1).

    ``generator_lifts`` are rational vectors in L-coordinates whose classes
    generate the cyclic factors; ``qvals`` are q(g_i) in [0,2) and ``bvals``
    the pairings b(g_i, g_j) in [0,1).
    """

    __slots__ = ("lattice", "invariant_factors", "generator_lifts", "qvals", "bvals",
                 "left_transform",   # U with U * gram * V diagonal; used for class coords
                 "all_factors")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def class_of(self, x: Vec) -> tuple[int, ...]:
        """Coordinates of the class of x in the cyclic factors (x must lie in L*)."""
        gx = mat_vec(self.lattice.gram, tuple(Fraction(c) for c in x))
        if not is_integral(gx):
            raise ValueError("vector is not in the dual lattice")
        m = tuple(int(c) for c in gx)
        coords = mat_vec(self.left_transform, m)
        return tuple(int(c) % d for c, d in zip(coords, self.all_factors) if d > 1)


@lru_cache(maxsize=None)
def discriminant_group(lat: IntLattice) -> DiscriminantGroup:
    """Compute A_L via the Smith normal form of the Gram matrix."""
    d, left, right = smith_normal_decomp(lat.gram)
    lifts = []
    for i, di in enumerate(d):
        if di > 1:
            lifts.append(tuple(Fraction(right[r][i], di) for r in range(lat.rank)))
    lifts = tuple(lifts)
    qvals = tuple(Fraction(bilinear(lat, v, v)) % 2 for v in lifts)
    bvals = freeze_mat([[Fraction(bilinear(lat, u, v)) % 1 for v in lifts] for u in lifts])
    factors = tuple(di for di in d if di > 1)
    group = DiscriminantGroup(lat, factors, lifts, qvals, bvals, left, d)
    assert group.order == abs(lat.determinant)
    return group


def induced_disc_action(lat: IntLattice, g: Isometry | Mat) -> Mat:
    """Matrix of the action of g on A_L in the invariant-factor coordinates.

    Column j holds the class of g applied to the j-th generator lift; entries
    in row i are reduced mod the i-th invariant factor.
    """
    if not isinstance(g, Isometry):
        g = Isometry(lat, g)  # validates
    group = discriminant_group(lat)
    cols = [group.class_of(mat_vec(g.matrix, lift)) for lift in group.generator_lifts]
    k = len(group.invariant_factors)
    return freeze_mat([[cols[j][i] for j in range(k)] for i in range(k)])


def in_kernel_star(lat: IntLattice, g: Isometry | Mat) -> bool:
    """True iff g acts as the identity on the discriminant group."""
    k = len(discriminant_group(lat).invariant_factors)   # each > 1: entries already reduced
    return induced_disc_action(lat, g) == identity(k)


def cyclic_disc_isometry_count(n: int) -> int:
    """|O(A)| for the discriminant form of <2n>, by brute force.

    Counts units a mod 2n with a^2 = 1 mod 4n, i.e. the multipliers that
    preserve q(v/2n) = 1/2n mod 2.  Equals 2^(number of primes of n) for
    n >= 2 and 1 for n = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_COUNT_N:
        raise ValueError(f"n {n} exceeds the maximum {MAX_COUNT_N}")
    return sum(1 for a in range(1, 2 * n)
               if gcd(a, 2 * n) == 1 and (a * a - 1) % (4 * n) == 0)


class GlueData(Frozen):
    """A finite-index even overlattice of an orthogonal sum N + K.

    ``over_basis`` expresses the overlattice basis in N+K coordinates
    (columns are basis vectors; its determinant is +-1/index).
    """

    __slots__ = ("left", "right", "sub", "over_basis", "over_basis_inv", "overlattice",
                 "glue_vector", "index")


def construct_mirror_embedding(n: int) -> GlueData:
    """Glue (U + <2n>) orthogonally to (U + <-2n> + U + E8(-1)^2) into an even
    unimodular lattice of signature (4,20).

    The overlattice is generated over N + K by the isotropic glue vector
    (v + w)/2n, where v spans <2n> in N and w spans <-2n> in K.
    """
    if n < 1:
        raise ValueError("n must be positive")
    left = make_standard("U_plus_Mn", n)                   # basis (e, v, f)
    right = direct_sum(make_standard("U"),
                       make_standard("Mcheck_n", n),
                       label=f"U+Mcheck:{n}")              # basis (e', f', w, ...)
    sub = direct_sum(left, right, label=f"glue-sub:{n}")
    rank = sub.rank
    v_index, w_index = 1, left.rank + 2
    glue = tuple(Fraction(1, 2 * n) if i in (v_index, w_index) else Fraction(0)
                 for i in range(rank))
    over_basis = tuple(tuple(glue[i] if j == w_index else int(i == j) for j in range(rank))
                       for i in range(rank))
    over_inv = inverse(over_basis)
    over_gram = congruent(sub.gram, over_basis)
    if not is_integral(over_gram):
        raise ArithmeticError("glue vector does not produce an integral overlattice")
    over_gram = tuple(tuple(int(x) for x in row) for row in over_gram)
    overlattice = IntLattice(over_gram, label=f"glued:{n}")
    if not overlattice.is_even or abs(overlattice.determinant) != 1:
        raise ArithmeticError("overlattice is not even unimodular")
    if signature(overlattice) != (4, 20):
        raise ArithmeticError("overlattice has the wrong signature")
    return GlueData(left=left, right=right, sub=sub,
                    over_basis=over_basis, over_basis_inv=over_inv,
                    overlattice=overlattice, glue_vector=glue, index=2 * n)


def disc_group_to_obj(group: DiscriminantGroup) -> dict:
    return {
        "invariant_factors": list(group.invariant_factors),
        "qvals": [str(q) for q in group.qvals],
    }


def glue_extends(gd: GlueData, g_left: Isometry, g_right: Isometry) -> Isometry | None:
    """Extend the pair (g_left, g_right) across the glue, or refuse.

    Returns the induced isometry of the overlattice when every overlattice
    basis vector maps back into the overlattice (integral coordinates), and
    None otherwise.  Refusal is the normal outcome for pairs whose
    discriminant actions do not match under the glue.
    """
    if g_left.lattice != gd.left or g_right.lattice != gd.right:
        raise ValueError("isometries do not match the glued summands")
    blocks = block_diag(g_left.matrix, g_right.matrix)
    conj = mat_mul(gd.over_basis_inv, mat_mul(blocks, gd.over_basis))
    if not is_integral(conj):
        return None
    return Isometry(gd.overlattice, tuple(tuple(int(x) for x in row) for row in conj))
