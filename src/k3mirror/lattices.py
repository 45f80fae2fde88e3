"""Integer lattices, exact bilinear forms, isometries and orientation tests.

A lattice is a free Z-module of finite rank with a fixed basis and a
symmetric nondegenerate integer Gram matrix, and nothing else: every
derived datum is computed from the Gram matrix.  Every computation is exact:
signatures come from rational congruence diagonalization, and orientation
signs from exact projections onto the positive subspace that the same
diagonalization spans.

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
    _as_ints,
    _bareiss,
    _numerators,
    block_diag,
    congruent,
    det,
    freeze_mat,
    identity,
    is_integral,
    mat_mul,
    mat_vec,
    transpose,
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
    """A finite-rank lattice: a symmetric nondegenerate integer Gram matrix
    and an optional label.  Everything else, the orientation of positive
    planes included, is derived from the Gram matrix."""

    __slots__ = ("gram", "label")
    _defaults = {"label": None}

    def __post_init__(self):
        g = freeze_mat(self.gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        if n and not is_integral(g):
            raise ValueError("Gram matrix must be integral")
        g = _as_ints(g)
        object.__setattr__(self, "gram", g)
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        try:
            signature_of_gram(g)
        except ValueError:
            raise ValueError("Gram matrix must be nondegenerate") from None

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return det(self.gram)

    @property
    def is_even(self) -> bool:
        # For an integer symmetric form, b(x,x) even for all x iff the
        # diagonal is even in any basis.
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def __repr__(self):
        return f"IntLattice({self.label or self.gram}, rank={self.rank})"


class Isometry(Frozen):
    """An integer matrix M acting on coordinate columns with M^T G M = G, checked once.

    The constructor checks a matrix from outside the library and stores
    integral entries of another type (2.0, Fraction(2)) as ints; derived
    isometries are built by ``_known`` without a second check."""

    __slots__ = ("lattice", "matrix")

    def __post_init__(self):
        m = freeze_mat(self.matrix)
        if len(m) != self.lattice.rank or any(len(row) != len(m) for row in m):
            raise ValueError("matrix size does not match lattice rank")
        if not is_integral(m):
            raise ValueError("isometry matrix must be integral")
        m = _as_ints(m)
        object.__setattr__(self, "matrix", m)
        if not is_isometry(self.lattice, m):
            raise ValueError("matrix does not preserve the Gram form")

    @staticmethod
    def _require(lat: IntLattice, g: "Isometry") -> None:
        if not isinstance(g, Isometry) or g.lattice != lat:
            raise ValueError("expected an Isometry of this lattice, not a raw matrix "
                             "or an isometry of a different lattice")

    @property
    def determinant(self) -> int:
        return int(det(self.matrix))

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    def inverse(self) -> "Isometry":
        """G^-1 M^T G, in integers: G X = M^T G solved fraction-free."""
        g, n = self.lattice.gram, self.lattice.rank
        rows = [[*gi, *ri] for gi, ri in zip(g, mat_mul(transpose(self.matrix), g))]
        _bareiss(rows, n)   # row i ends as d (e_i | X_i)
        return Isometry._known(self.lattice, tuple(tuple(x // r[i] for x in r[n:])
                                                   for i, r in enumerate(rows)))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        Isometry._require(self.lattice, other)
        return Isometry._known(self.lattice, mat_mul(self.matrix, other.matrix))

    def __neg__(self) -> "Isometry":
        return Isometry._known(self.lattice, tuple(tuple(-x for x in row) for row in self.matrix))

    @classmethod
    def identity(cls, lattice: IntLattice) -> "Isometry":
        return cls._known(lattice, identity(lattice.rank))


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
    """Orthogonal direct sum, basis of l1 then l2; valid as l1 and l2 are."""
    if label is None and l1.label and l2.label:
        label = f"{l1.label}+{l2.label}"
    return IntLattice._known(block_diag(l1.gram, l2.gram), label)


def hyperbolic_extension(lat: IntLattice, label: str | None = None) -> IntLattice:
    """U + lat, basis (e, lat basis..., f), <e,f> = -1, e,f isotropic; valid as lat is."""
    n = lat.rank
    rows = [(0,) * (n + 1) + (-1,)]
    rows += [(0,) + row + (0,) for row in lat.gram]
    rows += [(-1,) + (0,) * (n + 1)]
    return IntLattice._known(tuple(rows), label)


def _e8_minus() -> IntLattice:
    g = tuple(tuple(-x for x in row) for row in _E8_CARTAN)
    return IntLattice(g, label="E8minus")


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
        return IntLattice(_U_GRAM, label="U")
    if name == "E8minus":
        return _e8_minus()
    if name == "two_n":
        return IntLattice(((2 * n,),), label=f"<{2 * n}>")
    if name == "minus_two_n":
        return IntLattice(((-2 * n,),), label=f"<-{2 * n}>")
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


def _diagonal(gram: Mat) -> list[tuple[Fraction, list]]:
    """The pairs (d_k, t_k) with T G T^T = diag(d_k), T the matrix of rows t_k;
    raises ValueError exactly when the form is degenerate.  G is diagonalized
    by exact congruence over Q with row operations alone, which leave the
    trailing block symmetric (its Schur complement); row k is not read after
    step k.  The same row operations act on an identity block kept beside G,
    which ends as T."""
    n = len(gram)
    a = [[Fraction(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(gram)]
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
                a[k] = [x + y for x, y in zip(a[k], a[off])]
                for i in range(n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / d
            if f:
                for j in range(k, 2 * n):
                    a[r][j] -= f * a[k][j]
    return [(row[k], row[n:]) for k, row in enumerate(a)]


@lru_cache(maxsize=None)
def signature_of_gram(gram: Mat) -> tuple[int, int]:
    """(p, q) counts of positive/negative squares; raises ValueError exactly
    when the form is degenerate.  It adds over orthogonal blocks, each through
    this cache (E8(-1) is diagonalized once), and counts the signs of the
    diagonal of each block."""
    blocks = []   # the connected components of the nonzero entries
    for i, row in enumerate(gram):
        linked = [b for b in blocks if any(row[j] for j in b)]
        blocks = [b for b in blocks if b not in linked] + [sorted([i, *sum(linked, [])])]
    if len(blocks) > 1:
        sigs = [signature_of_gram(tuple(tuple(gram[i][j] for j in b) for i in b)) for b in blocks]
        return sum(p for p, _ in sigs), sum(q for _, q in sigs)
    p = sum(d > 0 for d, _ in _diagonal(gram))
    return (p, len(gram) - p)


@lru_cache(maxsize=128)
def _positive_rows(gram: Mat) -> Mat:
    """The rows t_k with d_k > 0 of the diagonalization of G, scaled to
    integers: a basis of a maximal positive-definite subspace, () when G is
    negative definite.  It depends on G alone, so it is computed once per Gram."""
    return _numerators(tuple(t for d, t in _diagonal(gram) if d > 0))[0]


def signature(lat: IntLattice) -> tuple[int, int]:
    return signature_of_gram(lat.gram)


def is_isometry(lat: IntLattice, m: Mat) -> bool:
    """True iff m^T G m = G exactly."""
    m = freeze_mat(m)
    if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
        return False
    return congruent(lat.gram, m) == lat.gram


def orientation_sign_positive(lat: IntLattice, g: Isometry) -> int:
    """Sign (+1/-1) of det of the form-orthogonal projection of the image of
    a positive basis back onto it.

    +1 means g preserves the orientation of maximal positive-definite
    subspaces.  The basis is the rows t_k with d_k > 0 of the congruence
    diagonalization of the Gram matrix, scaled to integers.  The sign does not
    depend on the plane, because the positive p-planes form a connected set,
    nor on its basis, because a change of basis A multiplies the det by
    det(A)^2.
    """
    Isometry._require(lat, g)
    basis = _positive_rows(lat.gram)
    if not basis:
        raise ValueError(f"{lat.label or lat.gram!r} is negative definite: "
                         "it has no positive plane to orient")
    # the projection coordinates are gp^-1 rhs, gp the positive-definite Gram of the
    # basis, so their det has the sign of det(rhs), not 0 as g keeps positive planes positive
    rhs = mat_mul(mat_mul(basis, lat.gram), mat_mul(g.matrix, transpose(basis)))
    return 1 if det(rhs) > 0 else -1


def root_reflection(lat: IntLattice, v: Vec) -> Isometry:
    """Reflection x -> x + (x, v) v in a lattice vector of square -2."""
    if bilinear(lat, v, v) != -2 or not is_integral(v):
        raise ValueError("reflection requires an integer vector of square -2")
    gv = mat_vec(lat.gram, tuple(v))
    n = lat.rank
    m = tuple(tuple((1 if i == j else 0) + v[i] * gv[j] for j in range(n)) for i in range(n))
    return Isometry._known(lat, m)


# -- serialization ----------------------------------------------------------

def lattice_to_obj(lat: IntLattice) -> dict:
    """Structured object with exact integers rendered as decimal strings."""
    return {
        "label": lat.label,
        "rank": lat.rank,
        "gram": [str(x) for row in lat.gram for x in row],
    }
