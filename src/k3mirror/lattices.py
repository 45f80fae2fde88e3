"""Integer lattices, exact bilinear forms, isometries and orientation tests.

A lattice is a free Z-module of finite rank with a fixed basis and a
symmetric nondegenerate integer Gram matrix.  Every computation is exact:
signatures come from rational congruence diagonalization, orientation
signs from exact projections onto a canonical positive subspace.

The hyperbolic plane U is always taken with Gram [[0,-1],[-1,0]], i.e.
<e,f> = -1 for the basis (e,f).  This single convention is used for every
copy of U so that the 3x3 monodromy matrices of the degree-12 family come
out verbatim in the (e, v, f) basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._frozen import Frozen
from .linalg import (
    Mat,
    Vec,
    congruent,
    det,
    freeze_mat,
    freeze_vec,
    identity,
    inverse,
    is_integral,
    mat_mul,
    mat_vec,
)

# Cartan matrix of E8, Bourbaki node order (chain 1-3-4-5-6-7-8, node 2 on 4).
_E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

_U_GRAM = ((0, -1), (-1, 0))

STANDARD_NAMES = ("U", "E8minus", "two_n", "minus_two_n", "K3", "Mukai",
                  "U_plus_Mn", "Mcheck_n")


class IntLattice(Frozen):
    """A finite-rank lattice with a symmetric nondegenerate integer Gram matrix.

    ``positive_basis``, when set, is a tuple of integer vectors spanning a
    maximal positive-definite subspace; it is the canonical witness used by
    :func:`orientation_sign_positive`.
    """

    __slots__ = ("gram", "label", "positive_basis")
    _defaults = {"label": None, "positive_basis": None}

    def __post_init__(self):
        g = freeze_mat(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        if det(g) == 0:
            raise ValueError("Gram matrix must be nondegenerate")
        if self.positive_basis is not None:
            pos = tuple(freeze_vec(v) for v in self.positive_basis)
            object.__setattr__(self, "positive_basis", pos)
            if len(pos) != signature_of_gram(g)[0]:
                raise ValueError("positive basis does not span a maximal positive subspace")
            if pos:
                witness = freeze_mat(tuple(tuple(bilinear(self, u, v) for v in pos)
                                           for u in pos))
                try:
                    definite = signature_of_gram(witness) == (len(pos), 0)
                except ValueError:
                    definite = False
                if not definite:
                    raise ValueError("positive basis is not positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return int(det(self.gram))

    @property
    def is_even(self) -> bool:
        # For an integer symmetric form, b(x,x) even for all x iff the
        # diagonal is even in any basis.
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def __repr__(self):
        return f"IntLattice({self.label or self.gram}, rank={self.rank})"


class Isometry(Frozen):
    """An integer matrix M acting on coordinate columns with M^T G M = G."""

    __slots__ = ("lattice", "matrix")

    def __post_init__(self):
        m = freeze_mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(m) != self.lattice.rank:
            raise ValueError("matrix size does not match lattice rank")
        if not is_integral(m):
            raise ValueError("isometry matrix must be integral")
        if congruent(self.lattice.gram, m) != self.lattice.gram:
            raise ValueError("matrix does not preserve the Gram form")

    @property
    def determinant(self) -> int:
        return int(det(self.matrix))

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    def inverse(self) -> "Isometry":
        inv = inverse(self.matrix)
        return Isometry(self.lattice, tuple(tuple(int(x) for x in row) for row in inv))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if other.lattice != self.lattice:
            raise ValueError("isometries live on different lattices")
        return Isometry(self.lattice, mat_mul(self.matrix, other.matrix))

    def __neg__(self) -> "Isometry":
        return Isometry(self.lattice, tuple(tuple(-x for x in row) for row in self.matrix))

    @classmethod
    def identity(cls, lattice: IntLattice) -> "Isometry":
        return cls(lattice, identity(lattice.rank))


def bilinear(lat: IntLattice, x: Vec, y: Vec):
    """Evaluate the bilinear form x^T G y; exact, integer on integer input."""
    if len(x) != lat.rank or len(y) != lat.rank:
        raise ValueError("vector length does not match lattice rank")
    gx = mat_vec(lat.gram, tuple(y))
    val = sum(a * b for a, b in zip(x, gx))
    if isinstance(val, Fraction) and val.denominator == 1:
        return int(val)
    return val


def direct_sum(l1: IntLattice, l2: IntLattice, label: str | None = None) -> IntLattice:
    """Orthogonal direct sum, basis of l1 followed by basis of l2."""
    n1, n2 = l1.rank, l2.rank
    rows = [tuple(l1.gram[i]) + (0,) * n2 for i in range(n1)]
    rows += [(0,) * n1 + tuple(l2.gram[i]) for i in range(n2)]
    pos = None
    cand = tuple(tuple(v) + (0,) * n2 for v in (l1.positive_basis or ()))
    cand += tuple((0,) * n1 + tuple(v) for v in (l2.positive_basis or ()))
    p = signature_of_gram(freeze_mat(rows))[0]
    if len(cand) == p:
        pos = cand
    if label is None and l1.label and l2.label:
        label = f"{l1.label}+{l2.label}"
    return IntLattice(freeze_mat(rows), label=label, positive_basis=pos)


def hyperbolic_extension(lat: IntLattice, label: str | None = None) -> IntLattice:
    """U + lat with basis (e, lat basis..., f), <e,f> = -1 and e,f isotropic.

    The positive subspace witness gains e - f, which has square 2.
    """
    n = lat.rank
    rows = [(0,) + (0,) * n + (-1,)]
    rows += [(0,) + tuple(lat.gram[i]) + (0,) for i in range(n)]
    rows += [(-1,) + (0,) * n + (0,)]
    pos = ((1,) + (0,) * n + (-1,),)
    pos += tuple((0,) + tuple(v) + (0,) for v in (lat.positive_basis or ()))
    g = freeze_mat(rows)
    if len(pos) != signature_of_gram(g)[0]:
        pos = None
    return IntLattice(g, label=label, positive_basis=pos)


def _e8_minus() -> IntLattice:
    g = tuple(tuple(-x for x in row) for row in _E8_CARTAN)
    return IntLattice(g, label="E8minus", positive_basis=())


def make_standard(name: str, n: int | None = None) -> IntLattice:
    """Build one of the standard lattices by name.

    ``two_n``/``minus_two_n`` are the rank-one lattices <2n> and <-2n>;
    ``U_plus_Mn`` is U + <2n> in basis (e, v, f); ``Mcheck_n`` is
    <-2n> + U + E8(-1)^2; ``K3`` is E8(-1)^2 + U^3 and ``Mukai`` is U + K3.
    """
    if name not in STANDARD_NAMES:
        raise ValueError(f"unknown standard lattice {name!r}")
    needs_n = name in ("two_n", "minus_two_n", "U_plus_Mn", "Mcheck_n")
    if needs_n:
        if n is None or n <= 0:
            raise ValueError(f"{name} requires a positive integer n")
    if name == "U":
        return IntLattice(_U_GRAM, label="U", positive_basis=((1, -1),))
    if name == "E8minus":
        return _e8_minus()
    if name == "two_n":
        return IntLattice(((2 * n,),), label=f"<{2 * n}>", positive_basis=((1,),))
    if name == "minus_two_n":
        return IntLattice(((-2 * n,),), label=f"<-{2 * n}>", positive_basis=())
    if name == "K3":
        e8 = _e8_minus()
        u = make_standard("U")
        return direct_sum(direct_sum(e8, e8), direct_sum(u, direct_sum(u, u)), label="K3")
    if name == "Mukai":
        return direct_sum(make_standard("U"), make_standard("K3"), label="Mukai")
    if name == "U_plus_Mn":
        return hyperbolic_extension(make_standard("two_n", n), label=f"U+<{2 * n}>")
    if name == "Mcheck_n":
        return direct_sum(make_standard("minus_two_n", n),
                          direct_sum(make_standard("U"), direct_sum(_e8_minus(), _e8_minus())),
                          label=f"Mcheck:{n}")
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def signature_of_gram(gram: Mat) -> tuple[int, int]:
    """(p, q) counts of positive/negative squares, by exact congruence
    diagonalization over Q."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    p = q = 0
    for k in range(n):
        if a[k][k] == 0:
            # find a nonzero diagonal entry to swap in, else create one
            piv = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if piv is not None:
                a[k], a[piv] = a[piv], a[k]
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
            else:
                off = next((r for r in range(k + 1, n) if a[k][r] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                # add row/col `off` into k: diagonal becomes 2*a[k][off] != 0
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


def signature(lat: IntLattice) -> tuple[int, int]:
    return signature_of_gram(lat.gram)


def is_isometry(lat: IntLattice, m: Mat) -> bool:
    """True iff m^T G m = G exactly."""
    m = freeze_mat(m)
    if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
        return False
    return congruent(lat.gram, m) == lat.gram


def orientation_sign_positive(lat: IntLattice, g: Isometry | Mat) -> int:
    """Sign (+1/-1) of det of the form-orthogonal projection of the image of
    the canonical positive basis back onto it.

    +1 means g preserves the orientation of maximal positive-definite
    subspaces.  The sign does not depend on the witness basis because the
    set of positive p-planes is connected.
    """
    if lat.positive_basis is None or len(lat.positive_basis) == 0:
        raise ValueError(f"no canonical positive basis defined for {lat.label!r}")
    mat = g.matrix if isinstance(g, Isometry) else freeze_mat(g)
    if not is_isometry(lat, mat):
        raise ValueError("not an isometry of the lattice")
    basis = lat.positive_basis
    # the projection coordinates are gp^-1 rhs, gp the positive-definite Gram
    # of the basis, so their det has the sign of det(rhs)
    images = [mat_vec(mat, v) for v in basis]
    rhs = tuple(tuple(bilinear(lat, u, img) for img in images) for u in basis)
    d = det(rhs)
    if d == 0:
        raise ArithmeticError("singular projection; input was not an isometry")
    return 1 if d > 0 else -1


def root_reflection(lat: IntLattice, v: Vec) -> Isometry:
    """Reflection x -> x + (x, v) v in a vector of square -2."""
    if bilinear(lat, v, v) != -2:
        raise ValueError("reflection requires a vector of square -2")
    gv = mat_vec(lat.gram, tuple(v))
    n = lat.rank
    m = tuple(tuple((1 if i == j else 0) + v[i] * gv[j] for j in range(n)) for i in range(n))
    return Isometry(lat, m)


# -- serialization ----------------------------------------------------------

def lattice_to_obj(lat: IntLattice) -> dict:
    """Structured object with exact integers rendered as decimal strings."""
    return {
        "label": lat.label,
        "rank": lat.rank,
        "gram": [str(x) for row in lat.gram for x in row],
    }
