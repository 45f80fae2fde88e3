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
    _numerators,
    block_diag,
    freeze_mat,
    identity,
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
        if len(x) != self.lattice.rank:
            raise ValueError("vector length does not match lattice rank")
        (num,), den = _numerators((tuple(map(Fraction, x)),))
        return self._class_of(num, den)

    def _class_of(self, num: Vec, den: int) -> tuple[int, ...]:
        """class_of(num / den) for an integer vector num."""
        gx = mat_vec(self.lattice.gram, num)
        if any(c % den for c in gx):
            raise ValueError("vector is not in the dual lattice")
        coords = mat_vec(self.left_transform, tuple(c // den for c in gx))
        return tuple(c % d for c, d in zip(coords, self.all_factors) if d > 1)


@lru_cache(maxsize=None)
def discriminant_group(lat: IntLattice) -> DiscriminantGroup:
    """A_L from the Smith form: lifts r_i / d_i (r_i right-transform columns)."""
    d, left, right = smith_normal_decomp(lat.gram)
    factors = tuple(di for di in d if di > 1)
    cols = [tuple(row[i] for row in right) for i, di in enumerate(d) if di > 1]
    lifts = tuple(tuple(Fraction(x, di) for x in col) for col, di in zip(cols, factors))
    qvals = tuple(Fraction(bilinear(lat, c, c), di * di) % 2 for c, di in zip(cols, factors))
    bvals = freeze_mat([[Fraction(bilinear(lat, u, v), du * dv) % 1
                         for v, dv in zip(cols, factors)] for u, du in zip(cols, factors)])
    group = DiscriminantGroup(lat, factors, lifts, qvals, bvals, left, d)
    if group.order != abs(lat.determinant):
        raise ArithmeticError("the invariant factors do not multiply to |det|")
    return group


def induced_disc_action(lat: IntLattice, g: Isometry) -> Mat:
    """Matrix of the action of g on A_L in the invariant-factor coordinates.

    Column j holds the class of g applied to the j-th generator lift; entries
    in row i are reduced mod the i-th invariant factor.
    """
    Isometry._require(lat, g)
    group = discriminant_group(lat)
    # the lift r / d (r integral) maps to (g r) / d: one exact division per class
    cols = [group._class_of(mat_vec(g.matrix, [x.numerator * d // x.denominator for x in lift]), d)
            for lift, d in zip(group.generator_lifts, group.invariant_factors)]
    k = len(group.invariant_factors)
    return freeze_mat([[cols[j][i] for j in range(k)] for i in range(k)])


def in_kernel_star(lat: IntLattice, g: Isometry) -> bool:
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


@lru_cache(maxsize=128)
def construct_mirror_embedding(n: int) -> GlueData:
    """Glue (U + <2n>) orthogonally to (U + <-2n> + U + E8(-1)^2) into an even
    unimodular lattice of signature (4,20).

    The overlattice is generated over N + K by the isotropic glue vector
    (v + w)/2n, where v spans <2n> in N and w spans <-2n> in K.  Built once
    per n (the result is immutable) and kept for the 128 latest n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    left = make_standard("U_plus_Mn", n)                   # basis (e, v, f)
    right = direct_sum(make_standard("U"),
                       make_standard("Mcheck_n", n),
                       label=f"U+Mcheck:{n}")              # basis (e', f', w, ...)
    sub = direct_sum(left, right, label=f"glue-sub:{n}")
    rank, index = sub.rank, 2 * n
    v_index, w_index = 1, left.rank + 2
    glue = tuple(Fraction(1, index) if i in (v_index, w_index) else 0 for i in range(rank))
    over_basis = tuple(tuple(glue[i] if j == w_index else int(i == j) for j in range(rank))
                       for i in range(rank))
    # B^-1 takes e_w to index * e_w - e_v
    over_inv = tuple(tuple(Fraction(index * (i == j) - (i == v_index) if j == w_index else i == j)
                           for j in range(rank)) for i in range(rank))
    # G g = e_v - e_w, so B^T G B is G with row and column w replaced by e_v
    e_v = [int(i == v_index) for i in range(rank)]
    over_gram = tuple(tuple(e_v[j] if i == w_index else e_v[i] if j == w_index else x
                            for j, x in enumerate(row)) for i, row in enumerate(sub.gram))
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


def glue_compatible(gd: GlueData, g_left: Isometry, g_right: Isometry) -> bool:
    """Whether the pair (g_left, g_right) extends across the glue, in O(rank).

    The overlattice is sub + Z g with g = (e_v + e_w)/N, N the index, e_v
    spanning <2n> in the left summand and e_w spanning <-2n> in the right one
    (the two nonzero coordinates of the glue vector).  The block isometry
    preserves sub, so it preserves the overlattice iff it maps g to k g
    modulo sub for some k: iff column v of g_left is k e_v and column w of
    g_right is k e_w modulo N, with one k.
    """
    if g_left.lattice != gd.left or g_right.lattice != gd.right:
        raise ValueError("isometries do not match the glued summands")
    index, split = gd.index, gd.left.rank
    v, w = (i for i, x in enumerate(gd.glue_vector) if x)
    w -= split
    col_v = [row[v] % index for row in g_left.matrix]
    col_w = [row[w] % index for row in g_right.matrix]
    k = col_v[v]
    return (col_v == [k if i == v else 0 for i in range(split)]
            and col_w == [k if i == w else 0 for i in range(len(col_w))])


def glue_extends(gd: GlueData, g_left: Isometry, g_right: Isometry) -> Isometry | None:
    """Extend the pair (g_left, g_right) across the glue, or refuse.

    Refuses (returns None) by :func:`glue_compatible`, the normal outcome
    for pairs whose discriminant actions do not match under the glue.  An
    accepted pair is conjugated into overlattice coordinates, and the
    induced isometry of the overlattice is returned; a conjugate that is
    not integral contradicts the test and raises ArithmeticError.
    """
    if not glue_compatible(gd, g_left, g_right):
        return None
    blocks = block_diag(g_left.matrix, g_right.matrix)
    conj = mat_mul(gd.over_basis_inv, mat_mul(blocks, gd.over_basis))
    if not is_integral(conj):
        raise ArithmeticError("the glue test accepted a pair whose conjugate is not integral")
    return Isometry._known(gd.overlattice, tuple(tuple(int(x) for x in row) for row in conj))
