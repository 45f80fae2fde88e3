"""Acceptance gate: every criterion at its stated tolerance, with one
pass/fail line and the elapsed time printed per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""

import doctest
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
from sympy import primefactors

import k3mirror as km
from k3mirror.lattices import Isometry, bilinear, make_standard
from k3mirror.linalg import mat_mul
from k3mirror.modular import table1_stabilizers, u_plus_mn
from k3mirror.mukai import apply_word

TOL_NUMERIC = 1e-6


class criterion:
    """Times a criterion body, prints one pass/fail line, enforces the
    stated runtime budget."""

    def __init__(self, num, limit_s, description):
        self.num = num
        self.limit = limit_s
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.num} ({elapsed:.2f}s / limit {self.limit}s): "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.num} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s")
        return False


def test_criterion_1_monodromy_generator_table():
    with criterion(1, 1.0, "generator matrices reproduced exactly with fixed signs"):
        report = km.verify_degree12(6)
        by_id = {c.check_id: c for c in report.checks}
        assert by_id["table-matrices"].passed
        gens = km.monodromy_generators(6)
        stab = table1_stabilizers()
        assert gens["T"].matrix == ((1, 0, 0), (1, 1, 0), (6, 12, 1))
        assert gens["S1"].matrix == ((0, 0, -1), (0, 1, 0), (-1, 0, 0))
        assert gens["S2"].matrix == ((-2, -12, -3), (1, 5, 1), (-3, -12, -2))
        assert gens["T"].matrix == km.R_map(stab["T"], 6).to_isometry().matrix
        assert gens["S1"].matrix == (-km.R_map(stab["S1"], 6)).to_isometry().matrix
        assert gens["S2"].matrix == (-km.R_map(stab["S2"], 6)).to_isometry().matrix
        assert gens["S1"].determinant == -1 and gens["S2"].determinant == -1


def test_criterion_2_discriminant_actions():
    with criterion(2, 1.0, "discriminant actions: S2bar is x5, Tbar and S1bar trivial"):
        lat = u_plus_mn(6)
        gens = km.monodromy_generators(6)
        assert km.induced_disc_action(lat, gens["S2"]) == ((5,),)
        assert km.induced_disc_action(lat, gens["T"]) == ((1,),)
        assert km.induced_disc_action(lat, gens["S1"]) == ((1,),)
        assert not km.in_kernel_star(lat, gens["S2"])
        assert km.in_kernel_star(lat, gens["T"]) and km.in_kernel_star(lat, gens["S1"])


def test_criterion_3_partner_count_equals_monodromy_index():
    with criterion(3, 10.0, "2^(p(n)-1) = monodromy index for 2 <= n <= 200, both routes"):
        for n in range(2, 201):
            brute = km.cyclic_disc_isometry_count(n)
            factored = 2 ** len(primefactors(n))
            assert brute == factored
            assert km.monodromy_index(n) == km.fm_partner_count(2 * n) == factored // 2


def test_criterion_4_glue_extension_dichotomy():
    with criterion(4, 1.0, "glue extends for (Tbar,id), (S1bar,id); refuses (S2bar,id)"):
        gd = km.construct_mirror_embedding(6)
        gens = km.monodromy_generators(6)
        ident = Isometry.identity(gd.right)
        assert km.glue_extends(gd, gens["T"], ident) is not None
        assert km.glue_extends(gd, gens["S1"], ident) is not None
        assert km.glue_extends(gd, gens["S2"], ident) is None


def test_criterion_5_period_series_two_oracles():
    with criterion(5, 5.0, "period coefficients agree to N=100; operator kills the series"):
        by_sum = km.pi_series(100)
        by_rec = km.pi_series_by_recurrence(100)
        assert [by_sum.coeff(k) for k in range(4)] == [1, 6, 90, 1860]
        assert by_sum.eq_through(by_rec, 100)
        assert km.apply_operator(km.pf_operator(), by_sum.truncate(50)).is_zero_through(50)


def test_criterion_6_schwarzian_and_standard_form():
    with criterion(6, 10.0, "Schwarzian quartic at order 40; standard form at order 30"):
        chk = km.schwarzian_check(40)
        assert chk.ok, chk.first_mismatch
        chk = km.standard_form_check(30)
        assert chk.ok, chk.first_mismatch


def test_criterion_7_numeric_monodromy():
    with criterion(7, 60.0, "loop invariants at 0, 1/36, 1/4 within 1e-6"):
        res0 = km.numeric_monodromy(0, tol=TOL_NUMERIC)
        m0 = np.array(res0.matrix)
        nil = m0 - np.eye(3)
        assert np.abs(np.linalg.matrix_power(nil, 3)).max() == 0.0
        assert np.abs(nil @ nil).max() > 0.0
        for point in (Fraction(1, 36), Fraction(1, 4)):
            res = km.numeric_monodromy(point, tol=TOL_NUMERIC)
            m = np.array(res.matrix)
            assert np.abs(m @ m - np.eye(3)).max() < TOL_NUMERIC
            assert abs(res.det - (-1.0)) < TOL_NUMERIC
            assert abs(res.trace - 1.0) < TOL_NUMERIC


def _random_vec(rng, ctx, bound=8):
    return km.MukaiVector(ctx, rng.randint(-bound, bound),
                          tuple(rng.randint(-bound, bound) for _ in range(ctx.ns.rank)),
                          rng.randint(-bound, bound))


def _rank2_roots(ctx):
    return [(a, b) for a in range(-4, 5) for b in range(-4, 5)
            if bilinear(ctx.ns, (a, b), (a, b)) == -2]


def _random_action(rng, ctx, roots):
    kind = rng.randrange(6)
    if kind == 0:
        return km.Shift()
    if kind == 1:
        return km.Switch()
    if kind == 2:
        return km.Iota2()
    if kind == 3:
        return km.Tensor(tuple(rng.randint(-3, 3) for _ in range(ctx.ns.rank)))
    if kind == 4 and roots:
        return km.Twist(km.MukaiVector(ctx, 0, rng.choice(roots), rng.randint(-3, 3)))
    if kind == 5 and roots:
        return km.ReflectCurve(rng.choice(roots))
    b = tuple(rng.randint(-3, 3) for _ in range(ctx.ns.rank))
    bb = bilinear(ctx.ns, b, b)
    return km.Twist(km.MukaiVector(ctx, 1, b, (bb + 2) // 2))


def test_criterion_8_property_suites():
    with criterion(8, 30.0, "bulk property suites at the stated sample sizes"):
        rng = random.Random(90125)
        ctx1 = km.rank_one_context(6)
        ctx2 = km.NSContext(km.IntLattice(((2, 1), (1, -2))))
        roots2 = _rank2_roots(ctx2)

        # pairing preservation, >= 10^4 random (action, x, y) with rho in {1,2}
        for _ in range(10000):
            ctx, roots = (ctx1, []) if rng.random() < 0.5 else (ctx2, roots2)
            action = _random_action(rng, ctx, roots)
            x, y = _random_vec(rng, ctx), _random_vec(rng, ctx)
            assert km.mukai_pairing(km.apply_action(action, x),
                                    km.apply_action(action, y)) \
                == km.mukai_pairing(x, y)

        # tensor-after-twist equals the curve reflection, >= 10^3 cases
        for _ in range(1000):
            c = rng.choice(roots2)
            x = _random_vec(rng, ctx2)
            lhs = km.apply_action(km.Tensor(c),
                                  km.apply_action(km.Twist(km.MukaiVector(ctx2, 0, c, 1)), x))
            rhs = km.reflect_curve(c, x)
            assert (lhs.r, lhs.d, lhs.s) == (rhs.r, rhs.d, rhs.s)

        # involutions
        for _ in range(1000):
            ctx, roots = (ctx1, []) if rng.random() < 0.5 else (ctx2, roots2)
            x = _random_vec(rng, ctx)
            for a in (km.Switch(), km.Iota2(), km.Shift()):
                y = km.apply_action(a, km.apply_action(a, x))
                assert (y.r, y.d, y.s) == (x.r, x.d, x.s)
            tw = _random_action(rng, ctx, roots)
            if isinstance(tw, km.Twist):
                y = km.apply_action(tw, km.apply_action(tw, x))
                assert (y.r, y.d, y.s) == (x.r, x.d, x.s)

        # the 2x2 -> SO(2,1) dictionary reverses products, >= 10^3 words
        gens = list(km.gamma0_plus_generators(6, "plus"))
        for _ in range(1000):
            g, h = rng.choice(gens), rng.choice(gens)
            for _ in range(rng.randint(0, 3)):
                h = h @ rng.choice(gens)
            assert km.R_map(g @ h, 6).matrix \
                == mat_mul(km.R_map(h, 6).matrix, km.R_map(g, 6).matrix)

        # period vectors of the mirror map are isotropic, >= 10^3 rational classes
        mc = make_standard("minus_two_n", 6)
        amb = km.mirror_period_ambient(mc)
        f_vec = (0,) * (amb.rank - 1) + (1,)
        for _ in range(1000):
            x = (Fraction(rng.randint(-60, 60), rng.randint(1, 15)),)
            w = km.mirror_period(mc, x)
            assert bilinear(amb, w, w) == 0
            assert bilinear(amb, w, f_vec) == -1

        # normalization postconditions, >= 10^2 random valid inputs, n <= 20
        done = 0
        while done < 100:
            n = rng.randint(1, 20)
            ctx = km.rank_one_context(n)
            v = km.MukaiVector(ctx, 0, (0,), 1)
            u = km.MukaiVector(ctx, 1, (0,), 0)
            scramble = [_random_action(rng, ctx, []) for _ in range(rng.randint(0, 6))]
            v, u = apply_word(scramble, v), apply_word(scramble, u)
            _, v2, u2 = km.normalize_mukai_vector(ctx, v, u)
            assert v2.r > 1 and gcd(v2.r, v2.s) == 1 and v2.d[0] > 0
            assert km.mukai_pairing(u2, v2) == -1
            done += 1


def test_readme_example_runs():
    """The README's >>> block, as `python -m doctest README.md` runs it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert failed == 0 and attempted >= 8
