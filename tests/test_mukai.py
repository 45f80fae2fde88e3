import random
import time
from fractions import Fraction

import pytest

from k3mirror.lattices import IntLattice, Isometry, bilinear, make_standard
from k3mirror.mukai import (
    Iota2,
    MukaiVector,
    NSContext,
    ReflectCurve,
    Shift,
    Switch,
    Tensor,
    Twist,
    action_to_obj,
    apply_action,
    apply_word,
    line_bundle_vector,
    mirror_period,
    mirror_period_ambient,
    mukai_pairing,
    normalize_mukai_vector,
    rank_one_context,
    reflect_curve,
    ring_mul,
)

CTX6 = rank_one_context(6)
# rank-two NS with plenty of (-2)-classes, signature (1,1)
CTX2 = NSContext(IntLattice(((2, 1), (1, -2)), label="rank2"))


def mk(ctx, r, d, s):
    return MukaiVector(ctx, r, d, s)


def roots_rank2():
    out = []
    for a in range(-4, 5):
        for b in range(-4, 5):
            if bilinear(CTX2.ns, (a, b), (a, b)) == -2:
                out.append((a, b))
    return out


ROOTS2 = roots_rank2()


def test_pairing_examples():
    assert mukai_pairing(mk(CTX6, 1, (0,), 0), mk(CTX6, 0, (0,), 1)) == -1
    c = ROOTS2[0]
    assert mukai_pairing(mk(CTX2, 0, c, 1), mk(CTX2, 0, c, 1)) == -2
    assert mukai_pairing(mk(CTX6, 1, (0,), 1), mk(CTX6, 1, (0,), 1)) == -2


def test_pairing_context_mismatch():
    with pytest.raises(ValueError):
        mukai_pairing(mk(CTX6, 1, (0,), 0), mk(rank_one_context(5), 1, (0,), 0))


def test_ring_mul_examples():
    sqrt_td = mk(CTX6, 1, (0,), 1)
    td = ring_mul(sqrt_td, sqrt_td)
    assert (td.r, td.d, td.s) == (1, (0,), 2)
    b = (3,)
    lb = line_bundle_vector(CTX6, b)
    inv = line_bundle_vector(CTX6, (-3,))
    prod = ring_mul(lb, inv)
    assert (prod.r, prod.d, prod.s) == (1, (0,), 0)
    c = ROOTS2[0]
    oc = mk(CTX2, 0, c, 1)
    res = ring_mul(oc, mk(CTX2, 1, (0, 0), 1))
    assert (res.r, res.d, res.s) == (0, c, 1)


def test_ring_mul_commutative_associative(rng):
    for _ in range(300):
        v, w, z = (mk(CTX2, rng.randint(-4, 4),
                      (rng.randint(-4, 4), rng.randint(-4, 4)),
                      rng.randint(-4, 4)) for _ in range(3))
        a = ring_mul(v, w)
        b = ring_mul(w, v)
        assert (a.r, a.d, a.s) == (b.r, b.d, b.s)
        lhs = ring_mul(ring_mul(v, w), z)
        rhs = ring_mul(v, ring_mul(w, z))
        assert (lhs.r, lhs.d, lhs.s) == (rhs.r, rhs.d, rhs.s)


def test_switch_example():
    x = mk(CTX6, 2, (1,), 5)
    y = apply_action(Switch(), x)
    assert (y.r, y.d, y.s) == (5, (-1,), 2)


def test_iota2_negates_degree_two_part():
    y = apply_action(Iota2(), mk(CTX6, 2, (3,), 5))
    assert (y.r, y.d, y.s) == (2, (-3,), 5)


def test_shift_example():
    y = apply_action(Shift(), mk(CTX6, 1, (0,), 0))
    assert (y.r, y.d, y.s) == (-1, (0,), 0)


def test_twist_matches_expanded_formula(rng):
    # twist by (0, C, 1): (a, b, c) -> (a, b + (-a + (b,C)) C, c - a + (b,C))
    for _ in range(300):
        c = rng.choice(ROOTS2)
        w = mk(CTX2, 0, c, 1)
        x = mk(CTX2, rng.randint(-5, 5), (rng.randint(-5, 5), rng.randint(-5, 5)),
               rng.randint(-5, 5))
        got = apply_action(Twist(w), x)
        k = -x.r + bilinear(CTX2.ns, x.d, c)
        want = (x.r, tuple(b + k * cc for b, cc in zip(x.d, c)), x.s + k)
        assert (got.r, got.d, got.s) == want


def test_twist_rejects_non_root():
    with pytest.raises(ValueError):
        Twist(mk(CTX6, 1, (0,), 0))


def test_reflect_examples():
    c = (0, 1)
    assert bilinear(CTX2.ns, c, c) == -2
    x = mk(CTX2, 1, (0, 0), 0)
    y = reflect_curve(c, x)
    assert (y.r, y.d, y.s) == (1, (0, 0), 0)
    x = mk(CTX2, 0, c, 0)
    y = reflect_curve(c, x)
    assert (y.r, y.d, y.s) == (0, (0, -1), 0)
    beta = (1, 1)   # (beta, C) with C = (0,1): 1*1 + 1*1*... = (0+1, 1-2) dot
    k = bilinear(CTX2.ns, beta, c)
    x = mk(CTX2, 0, beta, 0)
    y = reflect_curve(c, x)
    assert y.d == tuple(b + k * cc for b, cc in zip(beta, c))


def test_reflect_curve_matches_lattice_root_reflection(rng):
    from k3mirror.lattices import root_reflection
    for c in ROOTS2:
        refl = root_reflection(CTX2.ns, c)
        for _ in range(20):
            beta = (rng.randint(-6, 6), rng.randint(-6, 6))
            got = reflect_curve(c, mk(CTX2, 0, beta, 0))
            assert got.d == refl.apply(beta)


def test_tensor_twist_composition_is_reflection(rng):
    for _ in range(1000):
        c = rng.choice(ROOTS2)
        x = mk(CTX2, rng.randint(-6, 6), (rng.randint(-6, 6), rng.randint(-6, 6)),
               rng.randint(-6, 6))
        via_functors = apply_action(Tensor(c), apply_action(Twist(mk(CTX2, 0, c, 1)), x))
        direct = reflect_curve(c, x)
        assert (via_functors.r, via_functors.d, via_functors.s) \
            == (direct.r, direct.d, direct.s)


def _random_vec(rng, ctx, bound=8):
    return mk(ctx, rng.randint(-bound, bound),
              tuple(rng.randint(-bound, bound) for _ in range(ctx.ns.rank)),
              rng.randint(-bound, bound))


def _random_action(rng, ctx):
    kind = rng.randrange(6)
    if kind == 0:
        return Shift()
    if kind == 1:
        return Switch()
    if kind == 2:
        return Iota2()
    if kind == 3:
        b = tuple(rng.randint(-3, 3) for _ in range(ctx.ns.rank))
        return Tensor(b)
    if kind == 4 and ctx.ns.rank == 2:
        c = rng.choice(ROOTS2)
        return Twist(mk(ctx, 0, c, rng.randint(-3, 3)))
    if kind == 5 and ctx.ns.rank == 2:
        return ReflectCurve(rng.choice(ROOTS2))
    # rank-one fallback: a twist vector (1, b, ((b,b)+2)/2) of square -2
    b = tuple(rng.randint(-3, 3) for _ in range(ctx.ns.rank))
    bb = bilinear(ctx.ns, b, b)
    return Twist(mk(ctx, 1, b, (bb + 2) // 2))


def test_every_action_preserves_pairing(rng):
    for _ in range(10000):
        ctx = CTX6 if rng.random() < 0.5 else CTX2
        a = _random_action(rng, ctx)
        x = _random_vec(rng, ctx)
        y = _random_vec(rng, ctx)
        ax, ay = apply_action(a, x), apply_action(a, y)
        assert mukai_pairing(ax, ay) == mukai_pairing(x, y)


def test_involutions(rng):
    for _ in range(500):
        ctx = CTX6 if rng.random() < 0.5 else CTX2
        x = _random_vec(rng, ctx)
        for a in (Switch(), Iota2(), Shift()):
            y = apply_action(a, apply_action(a, x))
            assert (y.r, y.d, y.s) == (x.r, x.d, x.s)
        a = _random_action(rng, ctx)
        if isinstance(a, Twist):
            y = apply_action(a, apply_action(a, x))
            assert (y.r, y.d, y.s) == (x.r, x.d, x.s)


def _seeded_inputs(rng, ctx):
    """Vectors, a class and actions from outside the layer, each checked once."""
    x, y = _random_vec(rng, ctx), _random_vec(rng, ctx)
    b = tuple(rng.randint(-3, 3) for _ in range(ctx.rho))
    actions = [Shift(), Switch(), Iota2(), Tensor(b),
               _random_action(rng, ctx), _random_action(rng, ctx)]
    if ctx.rho == 2:
        c = rng.choice(ROOTS2)
        actions += [Twist(mk(ctx, 0, c, rng.randint(-3, 3))), ReflectCurve(c)]
    return ctx, x, y, b, actions


def _derived_vectors(ctx, x, y, b, actions):
    """Every way the layer derives a vector from the seeded inputs."""
    out = [-x, ring_mul(x, y), line_bundle_vector(ctx, b), line_bundle_vector(ctx, list(b)),
           apply_word(actions, x)]
    return out + [apply_action(a, x) for a in actions]


def test_derived_vectors_equal_the_validating_constructor(rng):
    """The vectors the actions, ring_mul and line_bundle_vector derive are
    built without a check; each equals what the constructor makes of it."""
    for ctx in [CTX2] + [rank_one_context(n) for n in range(1, 61)]:
        for _ in range(20):
            for v in _derived_vectors(*_seeded_inputs(rng, ctx)):
                assert type(v.d) is tuple and len(v.d) == ctx.rho
                assert all(type(c) is int for c in (v.r, *v.d, v.s))
                assert MukaiVector(v.ctx, v.r, list(v.d), v.s) == v
    assert line_bundle_vector(CTX6, (2,)) == mk(CTX6, 1, (2,), 24)
    assert line_bundle_vector(CTX2, [1, 1]) == mk(CTX2, 1, (1, 1), 1)


def test_derived_vectors_are_not_validated_again(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} validated a value known by construction")
    rng = random.Random(5)
    inputs = [_seeded_inputs(rng, ctx) for ctx in (CTX6, CTX2, rank_one_context(30))
              for _ in range(5)]
    want = [_derived_vectors(*args) for args in inputs]
    pairs = [(CTX6, mk(CTX6, 0, (0,), 1), mk(CTX6, 1, (0,), 0))]
    scramble = [Switch(), Tensor((-3,)), Shift(), Twist(mk(CTX6, 1, (1,), 7))]
    pairs.append((CTX6, *(apply_word(scramble, w) for w in pairs[0][1:])))
    normalized = [normalize_mukai_vector(*pair) for pair in pairs]
    for cls in (IntLattice, Isometry, MukaiVector):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert [_derived_vectors(*args) for args in inputs] == want
    assert [normalize_mukai_vector(*pair) for pair in pairs] == normalized


def test_odd_ns_lattice_is_refused():
    with pytest.raises(ValueError, match="NS lattice must be even"):
        NSContext(IntLattice(((1,),)), ample=(1,))
    with pytest.raises(ValueError, match="NS lattice must be even"):
        NSContext(IntLattice(((2, 1), (1, -1))))


def test_normalize_golden_example():
    v = mk(CTX6, 0, (0,), 1)
    u = mk(CTX6, 1, (0,), 0)
    word, v2, u2 = normalize_mukai_vector(CTX6, v, u)
    kinds = [action_to_obj(a) for a in word]
    assert kinds == [
        {"kind": "switch"},
        {"kind": "tensor", "b": [1]},
        {"kind": "switch"},
        {"kind": "tensor", "b": [6]},
    ]
    assert (v2.r, v2.d, v2.s) == (6, (35,), 1225)
    assert (u2.r, u2.d, u2.s) == (1, (6,), 216)
    assert mukai_pairing(u2, v2) == -1


def test_normalize_rejects_wrong_companion_sign():
    # (-1,0,0) pairs to +1 with (0,0,1), violating the -1 precondition
    v = mk(CTX6, 0, (0,), 1)
    bad = mk(CTX6, -1, (0,), 0)
    assert mukai_pairing(bad, v) == 1
    with pytest.raises(ValueError):
        normalize_mukai_vector(CTX6, v, bad)


def test_normalize_rejects_non_isotropic():
    ctx3 = rank_one_context(3)
    v = mk(ctx3, 2, (1,), 3)             # <v,v> = 6 - 12 = -6
    u = mk(ctx3, 1, (0,), 0)
    with pytest.raises(ValueError):
        normalize_mukai_vector(ctx3, v, u)


def test_normalize_rejects_imprimitive():
    v = mk(CTX6, 0, (0,), 2)
    u = mk(CTX6, 1, (0,), 0)
    with pytest.raises(ValueError):
        normalize_mukai_vector(CTX6, v, u)


def test_normalize_random_inputs():
    rng = random.Random(777)
    done = 0
    while done < 100:
        n = rng.randint(1, 20)
        ctx = rank_one_context(n)
        v = mk(ctx, 0, (0,), 1)
        u = mk(ctx, 1, (0,), 0)
        # scramble both by a random pairing-preserving word
        scramble = [_random_action(rng, ctx) for _ in range(rng.randint(0, 6))]
        v = apply_word(scramble, v)
        u = apply_word(scramble, u)
        word, v2, u2 = normalize_mukai_vector(ctx, v, u)
        assert v2.r > 1
        from math import gcd
        assert gcd(v2.r, v2.s) == 1
        assert v2.d[0] > 0
        assert mukai_pairing(v2, v2) == 0
        assert mukai_pairing(u2, v2) == -1
        assert v2.is_primitive()
        done += 1


def _former_ampleness_k(m0, r, amp0):
    """The former ampleness step: the smallest k >= 1 with m0 + k r^2 a0 > 0,
    one k at a time."""
    k = 1
    while m0 + k * r * r * amp0 <= 0:
        k += 1
    return k


def test_normalize_ampleness_step_matches_the_former_loop():
    """The last action is the tensor by r k h, with the k the loop found, on
    scrambled inputs pushed far onto the negative side of h."""
    rng = random.Random(4711)
    ks = set()
    for _ in range(200):
        ctx = rank_one_context(rng.randint(1, 20))
        scramble = [_random_action(rng, ctx) for _ in range(rng.randint(0, 6))]
        scramble.append(Tensor((rng.randint(-300, 300),)))
        v = apply_word(scramble, mk(ctx, 0, (0,), 1))
        u = apply_word(scramble, mk(ctx, 1, (0,), 0))
        word, v2, _ = normalize_mukai_vector(ctx, v, u)
        v1 = apply_word(word[:-1], v)
        k = _former_ampleness_k(v1.d[0], v1.r, ctx.ample[0])
        assert action_to_obj(word[-1]) == {"kind": "tensor", "b": [k * v1.r]}
        assert v2.d[0] > 0
        ks.add(k)
    assert len(ks) > 10


def test_normalize_a_huge_negative_degree_two_part_in_one_step():
    """v = (2, m h, m^2) on the degree-4 surface: the former loop took
    |m| / 4 steps, months at this m."""
    ctx = rank_one_context(2)
    m = -999999999999999
    v, u = mk(ctx, 2, (m,), m * m), mk(ctx, 1, (0,), (1 - m * m) // 2)
    start = time.perf_counter()
    word, v2, u2 = normalize_mukai_vector(ctx, v, u)
    assert time.perf_counter() - start < 5
    # the tensor by r k h with k = (1 - m) / 4 leaves m + r^2 k = 1
    assert [action_to_obj(a) for a in word] == [{"kind": "tensor", "b": [2 * (1 - m) // 4]}]
    assert (v2.r, v2.d, v2.s) == (2, (1,), 1)
    assert mukai_pairing(u2, v2) == -1


def test_mirror_period_basics():
    mc = make_standard("minus_two_n", 6)
    amb = mirror_period_ambient(mc)
    w = mirror_period(mc, (0,))
    assert w == (1, 0, 0)
    f_vec = (0,) * (amb.rank - 1) + (1,)
    rng_local = random.Random(4242)
    for _ in range(1000):
        x = (Fraction(rng_local.randint(-40, 40), rng_local.randint(1, 12)),)
        w = mirror_period(mc, x)
        assert bilinear(amb, w, w) == 0
        assert bilinear(amb, w, f_vec) == -1


def test_mirror_period_full_rank():
    mc = make_standard("Mcheck_n", 6)
    amb = mirror_period_ambient(mc)
    x = tuple(Fraction(k - 9, 5) for k in range(mc.rank))
    w = mirror_period(mc, x)
    assert bilinear(amb, w, w) == 0
    f_vec = (0,) * (amb.rank - 1) + (1,)
    assert bilinear(amb, w, f_vec) == -1
