"""Mukai vectors over a chosen Neron-Severi lattice and the exact degree-0/2/4
actions of the standard derived-category autoequivalences: shift, line-bundle
tensor, the switching transform, spherical twists, the curve reflection they
compose to, and the sign involution on the degree-2 part.

Also the isotropic-vector normalization used to bring a primitive isotropic
vector to the form (r, m h, s) with r > 1, gcd(r, s) = 1, m > 0 in Picard
rank one, and the mirror-map period formula.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

from ._frozen import Frozen
from .lattices import IntLattice, bilinear, hyperbolic_extension, make_standard, signature
from .linalg import Vec


class NSContext(Frozen):
    """An even Neron-Severi lattice of signature (1, rho-1), optionally with the
    ample generator h (required for normalization, where rho must be 1)."""

    __slots__ = ("ns", "ample")
    _defaults = {"ample": None}

    def __post_init__(self):
        if not self.ns.is_even:
            raise ValueError("NS lattice must be even")
        if signature(self.ns)[0] != 1:
            raise ValueError("NS lattice must have signature (1, rho-1)")
        if self.ample is not None:
            object.__setattr__(self, "ample", tuple(self.ample))
            if bilinear(self.ns, self.ample, self.ample) <= 0:
                raise ValueError("ample class must have positive square")

    @property
    def rho(self) -> int:
        return self.ns.rank


def rank_one_context(n: int) -> NSContext:
    """NS = Z h with (h,h) = 2n, the degree-2n Picard-rank-one case."""
    return NSContext(make_standard("two_n", n), ample=(1,))


class MukaiVector(Frozen):
    """(r, d, s) with d in the fixed NS lattice; derived vectors skip the check."""

    __slots__ = ("ctx", "r", "d", "s")

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        if len(self.d) != self.ctx.ns.rank:
            raise ValueError("degree-2 part has wrong rank")

    def __neg__(self):
        return MukaiVector._known(self.ctx, -self.r, tuple(-x for x in self.d), -self.s)

    def is_primitive(self) -> bool:
        return gcd(self.r, *map(int, self.d), self.s) == 1


def _check_ctx(v: MukaiVector, w: MukaiVector):
    if v.ctx != w.ctx:
        raise ValueError("Mukai vectors live over different NS contexts")


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    """<(a,b,c),(a',b',c')> = -a c' - c a' + (b,b')."""
    _check_ctx(v, w)
    return -v.r * w.s - v.s * w.r + bilinear(v.ctx.ns, v.d, w.d)


def ring_mul(v: MukaiVector, w: MukaiVector) -> MukaiVector:
    """Cup product truncated in degree 4:
    (r,d,s)(r',d',s') = (r r', r d' + r' d, r s' + r' s + (d,d'))."""
    _check_ctx(v, w)
    d = tuple(v.r * y + w.r * x for x, y in zip(v.d, w.d))
    return MukaiVector._known(v.ctx, v.r * w.r,
                              d, v.r * w.s + w.r * v.s + bilinear(v.ctx.ns, v.d, w.d))


def line_bundle_vector(ctx: NSContext, b: Vec) -> MukaiVector:
    """(1, b, (b,b)/2), the Mukai vector of a line bundle with class b (NS is even)."""
    b = tuple(b)
    return MukaiVector._known(ctx, 1, b, bilinear(ctx.ns, b, b) // 2)


# -- actions -----------------------------------------------------------------

class Shift(Frozen):
    """Odd shift: negation of the Mukai vector."""

    __slots__ = ()


class Switch(Frozen):
    """(a, b, c) -> (c, -b, a), the ideal-sheaf-of-the-diagonal transform."""

    __slots__ = ()


class Iota2(Frozen):
    """(a, b, c) -> (a, -b, c)."""

    __slots__ = ()


class Tensor(Frozen):
    """Multiplication by the line-bundle vector (1, b, (b,b)/2)."""

    __slots__ = ("b",)

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))


class Twist(Frozen):
    """Spherical twist: x -> x + <w, x> w, with <w,w> = -2."""

    __slots__ = ("w",)

    def __post_init__(self):
        if mukai_pairing(self.w, self.w) != -2:
            raise ValueError("spherical twist requires a vector of square -2")


class ReflectCurve(Frozen):
    """Reflection x -> x + <x,(0,c,0)> (0,c,0) in a class with (c,c) = -2."""

    __slots__ = ("c",)

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))


Action = Shift | Switch | Iota2 | Tensor | Twist | ReflectCurve


def apply_action(action: Action, x: MukaiVector) -> MukaiVector:
    """Apply one autoequivalence action to a Mukai vector; pairing-preserving."""
    match action:
        case Shift():
            return -x
        case Switch():
            return MukaiVector._known(x.ctx, x.s, tuple(-c for c in x.d), x.r)
        case Iota2():
            return MukaiVector._known(x.ctx, x.r, tuple(-c for c in x.d), x.s)
        case Tensor(b=b):
            return ring_mul(line_bundle_vector(x.ctx, b), x)
        case Twist(w=w):
            _check_ctx(w, x)
            k = mukai_pairing(w, x)
            return MukaiVector._known(x.ctx, x.r + k * w.r,
                                      tuple(c + k * e for c, e in zip(x.d, w.d)),
                                      x.s + k * w.s)
        case ReflectCurve(c=c):
            return reflect_curve(c, x)
    raise TypeError(f"unknown action {action!r}")


def apply_word(word, x: MukaiVector) -> MukaiVector:
    for a in word:
        x = apply_action(a, x)
    return x


def reflect_curve(c: Vec, x: MukaiVector) -> MukaiVector:
    """x + <x, (0,c,0)> (0,c,0) for a (-2)-class c.

    Identical, as a map, to Tensor(c) composed after Twist((0,c,1)).
    """
    if bilinear(x.ctx.ns, c, c) != -2:
        raise ValueError("reflection requires a class of square -2")
    k = bilinear(x.ctx.ns, x.d, c)
    return MukaiVector._known(x.ctx, x.r, tuple(a + k * b for a, b in zip(x.d, c)), x.s)


# -- normalization ------------------------------------------------------------

_SEARCH_DEPTH = 5
_TENSOR_RANGE = 4


def _move_alphabet(ctx: NSContext):
    h = ctx.ample
    moves = [Switch(), Shift()]
    for k in range(1, _TENSOR_RANGE + 1):
        moves.append(Tensor(tuple(k * c for c in h)))
        moves.append(Tensor(tuple(-k * c for c in h)))
    return moves


def _raise_rank_word(ctx: NSContext, v: MukaiVector):
    """Shortest word over (Switch, Shift, Tensor(+-k h)) making r > 1;
    breadth-first, first success in the fixed alphabet order wins."""
    if v.r > 1:
        return ()
    moves = _move_alphabet(ctx)
    seen = {(v.r, v.d, v.s)}
    queue = deque([(v, ())])
    while queue:
        cur, word = queue.popleft()
        if len(word) >= _SEARCH_DEPTH:
            continue
        for mv in moves:
            nxt = apply_action(mv, cur)
            key = (nxt.r, nxt.d, nxt.s)
            if key in seen:
                continue
            if nxt.r > 1:
                return word + (mv,)
            seen.add(key)
            queue.append((nxt, word + (mv,)))
    raise ArithmeticError("rank-raising search exhausted")  # unreachable for valid input


def normalize_mukai_vector(ctx: NSContext, v: MukaiVector, u: MukaiVector):
    """Word of actions sending a primitive isotropic v to (r', m' h, s') with
    r' > 1, gcd(r', s') = 1 and m' > 0, applied alongside the companion u.

    Requires rho = 1, <v,v> = 0, v primitive and <u,v> = -1.  Returns
    (word, v', u'); the word preserves the pairing, so <u',v'> = -1.
    """
    if ctx.rho != 1 or ctx.ample is None:
        raise ValueError("normalization requires Picard rank one with ample generator")
    if ctx.ample[0] <= 0:
        raise ValueError("ample generator must be on the positive ray")
    if v.ctx != ctx or u.ctx != ctx:
        raise ValueError("vectors live over a different NS context")
    if mukai_pairing(v, v) != 0:
        raise ValueError("v must be isotropic")
    if not v.is_primitive():
        raise ValueError("v must be primitive")
    if mukai_pairing(u, v) != -1:
        raise ValueError("companion must pair to -1 with v")

    word = list(_raise_rank_word(ctx, v))
    v1 = apply_word(word, v)
    u1 = apply_word(word, u)

    # coprimality: tensor by m*b, b the NS part of the companion; the pairing
    # relation -1 = -a s - c r + (b, l) makes r, s, (b, l) coprime as a triple
    r, s = v1.r, v1.s
    b = u1.d
    bl = bilinear(ctx.ns, b, v1.d)
    m = next((m for m in range(abs(r) + 1) if gcd(r, s + m * bl) == 1), None)
    if m is None:
        raise ArithmeticError("no coprimality multiple exists; invariants violated")
    if m > 0:
        mv = Tensor(tuple(m * c for c in b))
        word.append(mv)
        v1 = apply_action(mv, v1)
        u1 = apply_action(mv, u1)

    # ampleness: tensor by r*k*h with the smallest k >= 1 making the NS part
    # m0 + k r^2 a0 a positive multiple of h; this keeps r and s mod r untouched
    m0 = int(v1.d[0])
    amp0 = int(ctx.ample[0])
    k = max(1, -m0 // (v1.r * v1.r * amp0) + 1)
    mv = Tensor(tuple(k * v1.r * c for c in ctx.ample))
    word.append(mv)
    v1 = apply_action(mv, v1)
    u1 = apply_action(mv, u1)

    if not (v1.r > 1 and gcd(v1.r, v1.s) == 1 and v1.d[0] > 0):
        raise ArithmeticError("the normal form is not (r > 1, ample, s coprime to r)")
    if mukai_pairing(u1, v1) != -1 or mukai_pairing(v1, v1) != 0:
        raise ArithmeticError("the normalization broke an isotropy or a pairing")
    return tuple(word), v1, u1


# -- mirror map ---------------------------------------------------------------

def mirror_period(mirror_ns: IntLattice, x: Vec) -> Vec:
    """Period vector e + x + (1/2)<x,x> f of the complexified class x, in the
    basis (e, x-coordinates, f) of the hyperbolic extension U + mirror_ns.

    The result is isotropic and pairs to -1 with f, for every rational x.
    """
    if len(x) != mirror_ns.rank:
        raise ValueError("class has wrong rank")
    xx = Fraction(bilinear(mirror_ns, tuple(Fraction(c) for c in x),
                           tuple(Fraction(c) for c in x)))
    return (Fraction(1),) + tuple(Fraction(c) for c in x) + (xx / 2,)


def mirror_period_ambient(mirror_ns: IntLattice) -> IntLattice:
    """The lattice U + mirror_ns in which :func:`mirror_period` vectors live."""
    return hyperbolic_extension(mirror_ns, label=f"U+{mirror_ns.label}")


# -- serialization ------------------------------------------------------------

def mukai_vector_to_obj(v: MukaiVector) -> dict:
    return {"r": v.r, "d": [int(c) for c in v.d], "s": v.s}


def action_to_obj(a: Action) -> dict:
    match a:
        case Shift():
            return {"kind": "shift"}
        case Switch():
            return {"kind": "switch"}
        case Iota2():
            return {"kind": "iota2"}
        case Tensor(b=b):
            return {"kind": "tensor", "b": [int(c) for c in b]}
        case Twist(w=w):
            return {"kind": "twist", "w": mukai_vector_to_obj(w)}
        case ReflectCurve(c=c):
            return {"kind": "reflect", "c": [int(x) for x in c]}
    raise TypeError(f"unknown action {a!r}")
