"""Exact arithmetic in Gamma_0(n) extended by Fricke/Atkin-Lehner involutions,
the quadratic dictionary into SO(2,1) for the lattice U + <2n>, counting of
Fourier-Mukai partners, the monodromy-index computation, and the end-to-end
verification report for the degree-12 family.

Elements of the extended modular group are stored exactly as m / sqrt(r)
with an integer 2x2 matrix m and det(m) = r minimal; +-m are identified by
fixing the sign of the first nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._frozen import Frozen
from .discriminant import (
    construct_mirror_embedding,
    cyclic_disc_isometry_count,
    glue_extends,
    in_kernel_star,
    induced_disc_action,
)
from .lattices import IntLattice, Isometry, make_standard, orientation_sign_positive
from .linalg import Mat, congruent, det, freeze_mat, is_integral, mat_mul


# the largest degree fm_partner_count accepts; trial division takes up to
# sqrt(degree/2) steps, so a larger request is refused before it starts
MAX_DEGREE = 2 * 10**12


@lru_cache(maxsize=None)
def u_plus_mn(n: int) -> IntLattice:
    return make_standard("U_plus_Mn", n)


class FracLinear(Frozen):
    """An element m / sqrt(scale) of GL(2,R)+, stored projectively.

    Normal form: det(m) = scale, the largest extractable square factor of the
    scale pulled into the matrix (so the scale is minimal for this element),
    and the first nonzero entry of m (row-major) positive.  Equality of
    normal forms then decides equality in PSL(2,R).  Within a group
    Gamma_0(n)+ of squarefree level the reduced scale is squarefree; Fricke
    representatives (0,-1; n,0)/sqrt(n) at non-squarefree n keep the square
    part that cannot be divided out of the matrix.
    """

    __slots__ = ("m", "scale")
    _defaults = {"scale": 1}

    def __post_init__(self):
        m = freeze_mat(self.m)
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise ValueError("need a 2x2 matrix")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if det(m) != self.scale:
            raise ValueError("determinant must equal the scale")
        # pull the largest usable square factor of the scale into the matrix:
        # a common divisor g of the entries has g^2 | det(m) = scale
        scale = self.scale
        g = gcd(*m[0], *m[1])
        if g > 1:
            m = tuple(tuple(x // g for x in row) for row in m)
            scale //= g * g
        first = next(x for row in m for x in row if x != 0)
        if first < 0:
            m = tuple(tuple(-x for x in row) for row in m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scale", scale)

    def __matmul__(self, other: "FracLinear") -> "FracLinear":
        return FracLinear(mat_mul(self.m, other.m), self.scale * other.scale)

    @classmethod
    def identity(cls) -> "FracLinear":
        return cls(((1, 0), (0, 1)))


def translation() -> FracLinear:
    return FracLinear(((1, 1), (0, 1)))


def fricke(n: int) -> FracLinear:
    """The Fricke coset representative (0, -1; n, 0)/sqrt(n)."""
    return FracLinear(((0, -1), (n, 0)), n)


def gamma0_plus_generators(n: int = 6, variant: str = "plus") -> tuple[FracLinear, ...]:
    """Generators of Gamma_0(n)+ (all Atkin-Lehner involutions adjoined) or
    Gamma_0(n)+n (Fricke only), for the worked case n = 6."""
    if variant not in ("plus", "plus6"):
        raise ValueError("variant must be 'plus' or 'plus6'")
    if n != 6:
        raise ValueError("the explicit generator lists are wired for n = 6")
    if variant == "plus":
        return (translation(), fricke(6), FracLinear(((3, 1), (6, 3)), 3))
    return (translation(), fricke(6), FracLinear(((5, 2), (12, 5))))


def table1_stabilizers() -> dict[str, FracLinear]:
    """The three elliptic/parabolic stabilizers attached to the finite
    singular points of the degree-12 family: T, S1 (Fricke), S2."""
    return {
        "T": translation(),
        "S1": fricke(6),
        "S2": FracLinear(((-2, 1), (-6, 2)), 2),
    }


class SOMatrix(Frozen):
    """A 3x3 rational matrix preserving the Gram form of U + <2n>."""

    __slots__ = ("lattice", "matrix")

    def __post_init__(self):
        m = freeze_mat(tuple(tuple(Fraction(x) for x in row) for row in self.matrix))
        object.__setattr__(self, "matrix", m)
        if congruent(self.lattice.gram, m) != self.lattice.gram:
            raise ValueError("matrix does not preserve the form")
        if det(m) not in (1, -1):
            raise ValueError("determinant must be +-1")

    @property
    def determinant(self) -> int:
        return int(det(self.matrix))

    def __matmul__(self, other: "SOMatrix") -> "SOMatrix":
        return SOMatrix(self.lattice, mat_mul(self.matrix, other.matrix))

    def __neg__(self) -> "SOMatrix":
        return SOMatrix(self.lattice, tuple(tuple(-x for x in row) for row in self.matrix))

    def is_integral(self) -> bool:
        return is_integral(self.matrix)

    def to_isometry(self) -> Isometry:
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return Isometry(self.lattice, tuple(tuple(int(x) for x in row) for row in self.matrix))


def R_map(g: FracLinear, n: int) -> SOMatrix:
    """The quadratic dictionary from 2x2 elements to SO(2,1) in the (e, v, f)
    basis of U + <2n>:

        (a b; c d) -> (a^2, 2ac, c^2/n; ab, ad+bc, cd/n; n b^2, 2n b d, d^2)

    Exact because every entry is bilinear in matrix entries divided by the
    scale.  R is an anti-homomorphism: R(g h) = R(h) R(g).  Its image has
    determinant +1.
    """
    (a, b), (c, d) = g.m
    r = g.scale
    rows = (
        (Fraction(a * a, r), Fraction(2 * a * c, r), Fraction(c * c, n * r)),
        (Fraction(a * b, r), Fraction(a * d + b * c, r), Fraction(c * d, n * r)),
        (Fraction(n * b * b, r), Fraction(2 * n * b * d, r), Fraction(d * d, r)),
    )
    return SOMatrix(u_plus_mn(n), rows)


def F_map(g: Isometry) -> SOMatrix:
    """det(g) * g, landing in SO; its kernel as a group map is {+-id}."""
    s = g.determinant
    return SOMatrix(g.lattice, tuple(tuple(s * x for x in row) for row in g.matrix))


# Exact integer monodromy matrices for the degree-12 family, basis (e, v, f).
TBAR = ((1, 0, 0), (1, 1, 0), (6, 12, 1))
S1BAR = ((0, 0, -1), (0, 1, 0), (-1, 0, 0))
S2BAR = ((-2, -12, -3), (1, 5, 1), (-3, -12, -2))


def monodromy_generators(n: int = 6) -> dict[str, Isometry]:
    """The sign-fixed preimages Tbar = R(T), S1bar = -R(S1), S2bar = -R(S2)
    in O+(U + <12>), as exact integer isometries."""
    if n != 6:
        raise ValueError("the explicit generator table is wired for n = 6")
    stab = table1_stabilizers()
    tbar = R_map(stab["T"], 6).to_isometry()
    s1bar = (-R_map(stab["S1"], 6)).to_isometry()
    s2bar = (-R_map(stab["S2"], 6)).to_isometry()
    return {"T": tbar, "S1": s1bar, "S2": s2bar}


def _distinct_prime_count(n: int) -> int:
    """Number of distinct primes dividing n, with the convention p(1) = 1."""
    if n == 1:
        return 1
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return count + (n > 1)


def fm_partner_count(degree: int) -> int:
    """Number of Fourier-Mukai partners of a Picard-rank-one K3 surface of the
    given even degree 2n: 2^(p(n) - 1)."""
    if degree <= 0 or degree % 2 != 0:
        raise ValueError("degree must be a positive even integer")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the maximum {MAX_DEGREE}")
    return 2 ** (_distinct_prime_count(degree // 2) - 1)


def monodromy_index(n: int) -> int:
    """Index of the symplectic monodromy subgroup inside the full monodromy
    group of the mirror family, computed through the discriminant count.

    Chain: [O : O*] = |O(A)| by brute force; O* injects into O/{+-id} for
    n >= 2 (since -id moves the discriminant), which halves the count; the
    two orientation-index-2 factors on both sides cancel.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1  # -id acts trivially on A; the easy special case
    disc_isometries = cyclic_disc_isometry_count(n)   # = [O : O*]
    index_mod_center = disc_isometries // 2           # [O/{+-id} : image of O*]
    return index_mod_center                            # orientation factors cancel


# -- the six-part verification of the degree-12 worked example ---------------

class CheckOutcome(Frozen):
    __slots__ = ("check_id", "description", "passed", "details")


class VerificationReport(Frozen):
    __slots__ = ("n", "checks")   # int, tuple of CheckOutcome

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "checks": [
                {"id": c.check_id, "description": c.description,
                 "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def _mat_str(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def verify_degree12(n: int = 6) -> VerificationReport:
    """Run the six exact checks tying the degree-12 modular data, the lattice
    monodromy generators, the discriminant actions, orientations, and the
    glue-extension dichotomy together."""
    if n != 6:
        raise ValueError("the worked example is n = 6")
    lat = u_plus_mn(6)
    stab = table1_stabilizers()
    gens = monodromy_generators(6)
    tbar, s1bar, s2bar = gens["T"], gens["S1"], gens["S2"]
    checks = []

    # (a) the reference matrices, their R-map signs, and determinants
    expected = {"T": TBAR, "S1": S1BAR, "S2": S2BAR}
    got = {k: g.matrix for k, g in gens.items()}
    ok = (got == expected
          and tbar.determinant == 1
          and s1bar.determinant == -1 and s2bar.determinant == -1)
    checks.append(CheckOutcome(
        "table-matrices",
        "Tbar = R(T), S1bar = -R(S1), S2bar = -R(S2) reproduce the reference "
        "integer matrices with det(S1bar) = det(S2bar) = -1",
        ok,
        {"got": {k: _mat_str(v) for k, v in got.items()},
         "expected": {k: _mat_str(v) for k, v in expected.items()}}))

    # (b) discriminant actions on Z/12
    acts = {k: induced_disc_action(lat, g) for k, g in gens.items()}
    scalars = {k: a[0][0] for k, a in acts.items()}
    ok = scalars == {"T": 1, "S1": 1, "S2": 5}
    checks.append(CheckOutcome(
        "discriminant-action",
        "S2bar multiplies the discriminant generator by 5; Tbar and S1bar act "
        "as the identity on Z/12",
        ok,
        {"scalars": scalars}))

    # (c) the composite relation through the anti-homomorphism
    ss = stab["S2"] @ stab["S1"]
    ss_sq = ss @ ss
    lhs = R_map(ss, 6).matrix
    rhs = mat_mul(R_map(stab["S1"], 6).matrix, R_map(stab["S2"], 6).matrix)
    square_lhs = mat_mul(mat_mul(s1bar.matrix, s2bar.matrix),
                         mat_mul(s1bar.matrix, s2bar.matrix))
    square_rhs = R_map(ss_sq, 6).matrix
    ok = (lhs == rhs
          and ss_sq == FracLinear(((5, 2), (12, 5)))
          and square_lhs == square_rhs)
    checks.append(CheckOutcome(
        "composite-square",
        "R(S2 S1) = R(S1) R(S2); (S1bar S2bar)^2 = R((S2 S1)^2) and "
        "(S2 S1)^2 = (5 2; 12 5)",
        ok,
        {"S2S1": {"m": _mat_str(ss.m), "scale": ss.scale},
         "S2S1_squared": {"m": _mat_str(ss_sq.m), "scale": ss_sq.scale}}))

    # (d) each Fricke-only generator lifts (up to sign) into the kernel
    kernel_signs = {}
    ok = True
    for i, g in enumerate(gamma0_plus_generators(6, "plus6")):
        img = R_map(g, 6)
        sign = next((s for s, cand in (("+", img), ("-", -img))
                     if in_kernel_star(lat, cand.to_isometry())), None)
        kernel_signs[f"generator{i}"] = sign
        ok = ok and sign is not None
    checks.append(CheckOutcome(
        "kernel-generators",
        "some sign of the R-image of every Fricke-only generator acts "
        "trivially on the discriminant group",
        ok,
        {"signs": kernel_signs}))

    # (e) all three fixed-sign generators are orientation preserving
    orient = {k: orientation_sign_positive(lat, g) for k, g in gens.items()}
    ok = all(v == 1 for v in orient.values())
    checks.append(CheckOutcome(
        "orientation",
        "Tbar, S1bar, S2bar preserve the orientation of positive 2-planes",
        ok,
        {"signs": orient}))

    # (f) the glue-extension dichotomy on the rank-24 overlattice
    gd = construct_mirror_embedding(6)
    id_right = Isometry.identity(gd.right)
    ext = {k: glue_extends(gd, g, id_right) is not None for k, g in gens.items()}
    ok = ext == {"T": True, "S1": True, "S2": False}
    checks.append(CheckOutcome(
        "glue-dichotomy",
        "(Tbar, id) and (S1bar, id) extend across the glue; (S2bar, id) is "
        "refused",
        ok,
        {"extends": ext}))

    return VerificationReport(n=6, checks=tuple(checks))
