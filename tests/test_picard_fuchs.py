import cmath
import importlib.util
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from k3mirror.picard_fuchs import (
    MAX_ORDER,
    SINGULAR_POINTS,
    SeriesCheck,
    ToleranceNotMet,
    ThetaOperator,
    _compare,
    _IDENTITY,
    _STANDARD_BETA,
    _STANDARD_POINTS,
    _frobenius_initial_matrix,
    _log_shift,
    _loop_legs,
    _mirror_map_check,
    _schwarzian,
    _schwarzian_of,
    _standard_in_x,
    _taylor_step,
    _theta_t,
    _times_poly,
    _transport,
    apply_operator,
    dform_coefficients,
    frobenius_basis,
    mirror_map,
    numeric_monodromy,
    pf_operator,
    pi_series,
    pi_series_by_recurrence,
    schwarzian_check,
    solve_ivp,
    standard_form_check,
)
from k3mirror import picard_fuchs
from k3mirror.modular import S1BAR, S2BAR, TBAR
from k3mirror.series import RationalSeries, poly

TOL = 1e-6


def test_pi_first_values_both_oracles():
    order = 8
    by_sum = pi_series(order)
    by_rec = pi_series_by_recurrence(order)
    assert [by_sum.coeff(k) for k in range(4)] == [1, 6, 90, 1860]
    assert [by_rec.coeff(k) for k in range(4)] == [1, 6, 90, 1860]
    # a_1 by hand: the three permutations of (1,0,0) each contribute 2!/1 = 2
    assert by_sum.coeff(1) == 6


def test_pi_oracles_agree_through_100():
    assert pi_series(100).eq_through(pi_series_by_recurrence(100), 100)


def test_operator_annihilates_pi():
    res = apply_operator(pf_operator(), pi_series(50))
    assert res.is_zero_through(50)


def test_operator_does_not_kill_constants():
    res = apply_operator(pf_operator(), poly((1,), top=6))
    assert not res.is_zero_through(2)
    assert res.coeff(1) == -6   # the x-part of the operator applied to 1


def test_theta_cubed_on_x_squared():
    cube = ThetaOperator(((0, (0, 0, 0, 1)),))
    res = apply_operator(cube, poly((0, 0, 1), top=4))
    assert res.coeff(2) == 8


def test_frobenius_structure():
    y0, y1, y2 = frobenius_basis(30)
    op = pf_operator()
    assert apply_operator(op, y0).is_zero_through(30)
    assert apply_operator(op, y1).is_zero_through(30)
    assert apply_operator(op, y2).is_zero_through(30)
    g1 = y1.parts[0]
    g2 = y2.parts[0]
    assert g1.coeff(0) == 0 and g2.coeff(0) == 0
    assert y1.parts[1].coeff(0) == 1          # log coefficient is the period itself
    assert y2.parts[1].eq_through(g1 * 2, 30)
    # golden value, frozen after verifying annihilation: g1 = 14x + 261x^2 + ...
    assert g1.coeff(1) == 14
    assert g1.coeff(2) == 261


def test_frobenius_rejects_small_order():
    with pytest.raises(ValueError):
        frobenius_basis(3)


def test_dform_matches_theta_form():
    p0, p1, p2, p3 = dform_coefficients()
    assert p3 == (0, 0, 0, 1, -40, 144)
    assert p2 == (0, 0, 3, -180, 864)
    assert p1 == (0, 1, -132, 972)
    assert p0 == (0, -6, 108)
    # the d/dx form annihilates the period series too
    order = 40
    a = pi_series_by_recurrence(order)
    terms = [a, a.deriv(), a.deriv().deriv(), a.deriv().deriv().deriv()]
    total = None
    for p, dk in zip((p0, p1, p2, p3), terms):
        piece = poly(p, top=order) * dk
        total = piece if total is None else total + piece
    assert total.is_zero_through(order - 3)


def test_mirror_map_matches_lagrange_inversion():
    """Independent oracle: [q^k] x(q) = (1/k) [x^(k-1)] (x/q(x))^k."""
    order = 40
    mm = mirror_map(order)
    q_of_x = mm.log_shift.exp().shift(1)
    ratio = (poly((0, 1), top=order) / q_of_x).strip()   # x/q(x), a unit power series
    power = poly((1,), top=order)
    for k in range(1, order + 1):
        power = power * ratio
        assert mm.x_of_q.coeff(k) == power.coeff(k - 1) / k


def test_mirror_map_expansion():
    mm = mirror_map(30)
    x_of_q = mm.x_of_q
    assert x_of_q.coeff(1) == 1 and x_of_q.coeff(0) == 0
    assert x_of_q.coeff(2) == -14
    assert x_of_q.coeff(3) == 117
    coeffs = [x_of_q.coeff(k) for k in range(31)]
    assert all(c.denominator == 1 for c in coeffs)
    # reversion round trip: q(x(q)) = q
    q_of_x = mm.log_shift.exp().shift(1)
    round_trip = q_of_x.compose(x_of_q)
    assert round_trip.eq_through(poly((0, 1), top=30), 30)


# -- the mirror map from the Gamma_0(6)+ eta product ------------------------------

def _x_of_q_by_reversion(order):
    """The former route: q(x) = x exp(g1/Pi), reverted by Lagrange inversion."""
    return _log_shift(order).exp().shift(1).revert()


@pytest.mark.parametrize("order", [*range(4, 61), 100, 200])
def test_mirror_map_matches_former_reversion(order):
    got, want = mirror_map(order).x_of_q, _x_of_q_by_reversion(order)
    assert (got.lead, got.nums, got.den, got.top) == (want.lead, want.nums, want.den, want.top)


def test_stored_log_shift_matches_fresh_division(monkeypatch):
    fresh = {}
    for n in range(4, 201):
        pi, g1 = picard_fuchs._frobenius_layers(n, 2)
        q = g1 / pi
        fresh[n] = (q.lead, q.nums, q.den, q.top)
    # descending, the first request fills the store; ascending, each one extends it
    for orders in (range(200, 3, -1), range(4, 201)):
        monkeypatch.setattr(picard_fuchs, "_SHIFT", RationalSeries._from_ints([0]))
        for n in orders:
            h = _log_shift(n)
            assert (h.lead, h.nums, h.den, h.top) == fresh[n], n
    assert picard_fuchs._SHIFT.top == 200


def test_stored_log_shift_grows_only_on_a_higher_order(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_SHIFT", RationalSeries._from_ints([0]))
    _log_shift(30)
    stored = picard_fuchs._SHIFT
    _log_shift(12)
    assert picard_fuchs._SHIFT is stored and stored.top == 30

    def interrupted(order, count=3):
        raise KeyboardInterrupt

    monkeypatch.setattr(picard_fuchs, "_frobenius_layers", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _log_shift(31)
    assert picard_fuchs._SHIFT is stored


def test_stored_pi_series_matches_the_multinomial(monkeypatch):
    # the store starts as the constant term 1, which is the period through x^0
    empty = RationalSeries._from_ints([1])
    assert _fields(empty) == _fields(picard_fuchs._multinomial(0))
    fresh = {n: _fields(picard_fuchs._multinomial(n)) for n in range(201)}
    # descending, the first request fills the store; ascending, each one replaces it
    for orders in (range(200, -1, -1), range(201)):
        monkeypatch.setattr(picard_fuchs, "_PI_SUM", empty)
        for n in orders:
            got = pi_series(n)
            assert _fields(got) == fresh[n], n
            assert got is not picard_fuchs._PI_SUM
    assert picard_fuchs._PI_SUM.top == 200


def test_stored_pi_series_grows_only_on_a_higher_order(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_PI_SUM", RationalSeries._from_ints([1]))
    pi_series(30)
    stored = picard_fuchs._PI_SUM
    pi_series(12)
    pi_series(30)
    assert picard_fuchs._PI_SUM is stored and stored.top == 30

    def interrupted(*args):
        raise KeyboardInterrupt

    # comb builds the central binomials inside _multinomial
    monkeypatch.setattr(picard_fuchs, "comb", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pi_series(31)
    assert picard_fuchs._PI_SUM is stored


def test_stored_x_of_q_matches_the_eta_product(monkeypatch):
    fresh = {n: _fields(picard_fuchs._x_of_q(n)) for n in range(4, 201)}
    assert all(fresh[n][3] == n + 1 for n in fresh)
    # descending, the first request fills the store; ascending, each one replaces it
    for orders in (range(200, 3, -1), range(4, 201)):
        monkeypatch.setattr(picard_fuchs, "_X_OF_Q", RationalSeries._from_ints([1], 1, 1))
        for n in orders:
            got = mirror_map(n).x_of_q
            assert _fields(got) == fresh[n], n
            assert got is not picard_fuchs._X_OF_Q
    assert picard_fuchs._X_OF_Q.top == 201


def test_stored_x_of_q_grows_only_on_a_higher_order(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_X_OF_Q", RationalSeries._from_ints([1], 1, 1))
    mirror_map(30)
    stored = picard_fuchs._X_OF_Q
    mirror_map(12)
    mirror_map(30)
    assert picard_fuchs._X_OF_Q is stored and stored.top == 31

    def interrupted(top, sign):
        raise KeyboardInterrupt

    monkeypatch.setattr(picard_fuchs, "_eta_quotient", interrupted)
    with pytest.raises(KeyboardInterrupt):
        mirror_map(31)
    assert picard_fuchs._X_OF_Q is stored


def _refused(*args):
    raise AssertionError("the other oracle's route was taken")


def test_the_period_oracles_are_independent_routes(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_PI_SUM", RationalSeries._from_ints([1]))
    monkeypatch.setattr(picard_fuchs, "_LAYERS", [[[1], 1], [[0], 1], [[0], 1]])
    with monkeypatch.context() as m:
        m.setattr(picard_fuchs, "_extend_layers", _refused)
        by_sum = pi_series(150)
    assert picard_fuchs._LAYERS[0][0] == [1]
    with monkeypatch.context() as m:
        m.setattr(picard_fuchs, "_multinomial", _refused)
        by_rec = pi_series_by_recurrence(150)
    assert picard_fuchs._PI_SUM.top == 150
    assert by_sum.eq_through(by_rec, 150)


def _perfbench_checks():
    """perfbench/checks.py, loaded from its file without writing bytecode."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("store", ["_PI_SUM", "_LAYERS"])
def test_a_planted_coefficient_in_either_oracle_is_caught(monkeypatch, store):
    checks, m = _perfbench_checks(), 120
    op = SimpleNamespace(kind="pi_series", args=(m,))
    # both stores reach past the planted coefficient 100
    pi_series(150)
    pi_series_by_recurrence(150)
    out = pi_series(m), pi_series_by_recurrence(m)
    assert checks.check_periods(picard_fuchs, op, out) is None
    if store == "_PI_SUM":
        nums = list(picard_fuchs._PI_SUM.nums)
        nums[100] += 1
        monkeypatch.setattr(picard_fuchs, "_PI_SUM", RationalSeries._from_ints(nums))
    else:
        layers = [[list(nums), den] for nums, den in picard_fuchs._LAYERS]
        layers[0][0][100] += 1
        monkeypatch.setattr(picard_fuchs, "_LAYERS", layers)
    out = pi_series(m), pi_series_by_recurrence(m)
    assert not out[0].eq_through(out[1], m)
    assert checks.check_periods(picard_fuchs, op, out) == \
        "multinomial and recurrence period series disagree"


def _eta_float(q, terms=200):
    """E(q) = prod_(m >= 1) (1 - q^m) in complex floats."""
    out = 1
    for m in range(1, terms + 1):
        out *= 1 - q ** m
    return out


def _s_by_eta_float(tau):
    """s = q (E(q^2) E(q^6) / (E(q) E(q^3)))^6 at q = exp(2 pi i tau)."""
    q = cmath.exp(2j * math.pi * tau)
    e = [_eta_float(q ** k) for k in (1, 2, 3, 6)]
    return q * (e[1] * e[3] / (e[0] * e[2])) ** 6


def _x_from_s(s, middle=20, last=64):
    return s / (1 + middle * s + last * s * s)


def _x_by_eta_float(tau):
    return _x_from_s(_s_by_eta_float(tau))


def test_x_at_the_fricke_fixed_point_is_one_over_36():
    # tau = i/sqrt(6) is fixed by W_6, so s = 1/8 there and x = 1/36
    q = math.exp(-2 * math.pi / math.sqrt(6))
    x = mirror_map(100).x_of_q
    assert abs(sum(float(c) * q ** k for k, c in zip(range(1, 102), x.coeffs)) - 1 / 36) < 1e-12
    assert abs(_x_by_eta_float(1j / math.sqrt(6)) - 1 / 36) < 1e-12


def test_x_at_the_elliptic_point_is_one_quarter():
    # s = -1/8 at tau = 1/3 + i sqrt(2)/6, a double root of 1 + 20s + 64s^2 = 4s
    tau = 1 / 3 + 1j * math.sqrt(2) / 6
    assert abs(_x_by_eta_float(tau) - 1 / 4) < 1e-12
    # the q-series of x does not converge there: its terms grow
    q = cmath.exp(2j * math.pi * tau)
    x = mirror_map(200).x_of_q
    sizes = [abs(float(x.coeff(k)) * q ** k) for k in (50, 100, 150, 200)]
    assert sizes == sorted(sizes) and sizes[0] > 1


def _w6_pairs():
    """Five seeded tau with tau and its Fricke image -1/(6 tau) both at
    Im >= 0.3, where the float eta products converge fast."""
    rng = random.Random(6)
    pairs = []
    while len(pairs) < 5:
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.3, 0.6))
        image = -1 / (6 * tau)
        if image.imag >= 0.3:
            pairs.append((tau, image))
    return pairs


def test_x_is_invariant_under_the_fricke_involution():
    # W_6 sends s to 1/(64 s), and x = s/(1 + 20 s + 64 s^2) is W_6-invariant
    # for any middle coefficient (it reads 64 s / ((64 s)^2 + 64 c s + 64) at
    # the image), but not for a last coefficient other than 64
    x = mirror_map(200).x_of_q
    for tau, image in _w6_pairs():
        s, s_image = _s_by_eta_float(tau), _s_by_eta_float(image)
        assert abs(s * s_image - 1 / 64) < 1e-12
        assert abs(_x_from_s(s) - _x_from_s(s_image)) < 1e-12
        assert abs(_x_from_s(s, middle=21) - _x_from_s(s_image, middle=21)) < 1e-12
        assert abs(_x_from_s(s, last=65) - _x_from_s(s_image, last=65)) > 1e-6
        # the exact q-series sums to the same value at the point of the pair
        # nearer the cusp, where it converges fastest
        near = max(tau, image, key=lambda t: t.imag)
        q = cmath.exp(2j * math.pi * near)
        total = sum(float(c) * q ** k for k, c in zip(range(1, 202), x.coeffs))
        assert abs(total - _x_by_eta_float(near)) < 1e-12


@pytest.mark.parametrize("order", [4, 8, 31, 60, 150])
def test_mirror_map_check_passes(order):
    assert _mirror_map_check(mirror_map(order).x_of_q, order) == SeriesCheck(True, order)


def test_mirror_map_check_rejects_a_planted_coefficient():
    x = mirror_map(60).x_of_q
    nums = list(x.nums)
    nums[29] += 1                       # the coefficient of q^30
    chk = _mirror_map_check(RationalSeries._from_ints(nums, x.den, x.lead), 60)
    assert not chk.ok and chk.first_mismatch[0] == 29
    # a planted coefficient beyond the checked order goes unseen
    assert _mirror_map_check(RationalSeries._from_ints(nums, x.den, x.lead), 28).ok


def test_schwarzian_exact():
    chk = schwarzian_check(40)
    assert chk.ok and chk.first_mismatch is None
    # spot check the target quartic itself; the helper gives x^2 {t,x}
    s = _schwarzian_of(_theta_t(12))
    weight = poly((2,), top=s.top)
    for f in ((1, -36), (1, -36), (1, -4), (1, -4)):
        weight = weight * poly(f, top=s.top)
    lhs = s * weight
    assert lhs.coeff(0) == 1
    assert lhs.coeff(1) == -52
    assert lhs.coeff(2) == 1500


def test_schwarzian_mobius_invariance():
    # replacing t by 3t or -2t/7 leaves {t,x} unchanged; the second gives
    # theta t a leading coefficient whose numerator is not a unit
    dt = _theta_t(16)
    base = _schwarzian_of(dt)
    for c in (3, Fraction(-2, 7)):
        scaled = dt * c
        assert scaled.nums[0] not in (scaled.den, -scaled.den)
        assert base.eq_through(_schwarzian_of(scaled), base.top)


def _schwarzian_by_laurent(order):
    """The former route: t'''/t' - (3/2)(t''/t')^2 on the Laurent series
    (2 pi i) t' = 1/x + (g1/Pi)', times x^2."""
    tp = RationalSeries([1] + [0] * order, -1) + _log_shift(order).deriv()
    tpp = tp.deriv()
    s2 = tpp / tp
    return (tpp.deriv() / tp - s2 * s2 * Fraction(3, 2)).shift(2)


@pytest.mark.parametrize("order", [8, 9, 12, 20, 33, 60, 120])
def test_theta_form_matches_laurent_schwarzian(order):
    # x^2 {t,x} = {t, log x} + 1/2 against the direct Laurent computation
    new = _schwarzian_of(_theta_t(order))
    old = _schwarzian_by_laurent(order)
    assert (new.lead, new.top) == (old.lead, old.top) == (0, order)
    assert new.coeffs == old.coeffs


def _fields(s):
    return (s.lead, s.nums, s.den, s.top)


def test_stored_schwarzian_matches_fresh_computation(monkeypatch):
    # the store starts as the constant term 1/2, which is x^2 {t,x} through x^0
    empty = RationalSeries._from_ints([1], 2)
    assert _fields(empty) == _fields(_schwarzian_of(_theta_t(0)))
    fresh = {n: _fields(_schwarzian_of(_theta_t(n))) for n in range(8, 201)}
    # descending, the first request fills the store; ascending, each one replaces it
    for orders in (range(200, 7, -1), range(8, 201)):
        monkeypatch.setattr(picard_fuchs, "_SCHWARZ", empty)
        for n in orders:
            assert _fields(_schwarzian(n)) == fresh[n], n
    assert picard_fuchs._SCHWARZ.top == 200


def test_stored_schwarzian_grows_only_on_a_higher_order(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_SCHWARZ", RationalSeries._from_ints([1], 2))
    _schwarzian(30)
    stored = picard_fuchs._SCHWARZ
    _schwarzian(12)
    _schwarzian(30)
    assert picard_fuchs._SCHWARZ is stored and stored.top == 30

    def interrupted(dt):
        raise KeyboardInterrupt

    monkeypatch.setattr(picard_fuchs, "_schwarzian_of", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _schwarzian(31)
    assert picard_fuchs._SCHWARZ is stored


def test_both_checks_share_one_schwarzian(monkeypatch):
    calls = []

    def counted(dt):
        calls.append(dt.top)
        return _schwarzian_of(dt)

    monkeypatch.setattr(picard_fuchs, "_SCHWARZ", RationalSeries._from_ints([1], 2))
    monkeypatch.setattr(picard_fuchs, "_schwarzian_of", counted)
    for order in (30, 20, 30):
        assert schwarzian_check(order).ok and standard_form_check(order).ok
    assert calls == [30]


def _standard_n_d():
    return _standard_in_x(picard_fuchs._STANDARD_POINTS, picard_fuchs._STANDARD_ALPHA,
                          picard_fuchs._STANDARD_BETA)


def test_times_poly_matches_series_products():
    assert picard_fuchs._TWICE_DISC_SQ == (2, -160, 3776, -23040, 41472)
    p = _standard_n_d()[1]
    for n in range(8, 201):
        s = _schwarzian(n)
        d = poly(picard_fuchs._DISC, top=n)
        assert _fields(_times_poly(s, picard_fuchs._TWICE_DISC_SQ, n)) == _fields(s * d * d * 2), n
        assert _fields(_times_poly(s, p, n)) == _fields(s * poly(p, top=n)), n
    # leading zeros, a lead above 0, and a top below len(p)
    for s in (RationalSeries([0, 0, Fraction(3, 7), -2, 5, Fraction(1, 11)]),
              RationalSeries([Fraction(3, 7), -2, 5, Fraction(1, 11)], 2)):
        for top in range(0, s.top + 1):
            prod = s.truncate(top) * poly(p, top=max(top, len(p) - 1))
            got = _times_poly(s, p, top)
            assert (got.lead, got.top) == (0, top) and got.eq_through(prod, top), (s, top)
    # a zero tap adds nothing
    s = _schwarzian(20)
    assert _times_poly(s, (0, 0, 3), 20).eq_through((s * 3).shift(2), 20)


@pytest.mark.parametrize("i", range(5))
def test_schwarzian_fails_on_a_changed_quartic(monkeypatch, i):
    quartic = picard_fuchs._SCHWARZIAN_NUMERATOR
    monkeypatch.setattr(picard_fuchs, "_SCHWARZIAN_NUMERATOR",
                        _replaced(quartic, i, quartic[i] + 1))
    chk = schwarzian_check(20)
    assert not chk.ok and chk.first_mismatch[0] == i


def test_standard_form_exact():
    chk = standard_form_check(40)
    assert chk.ok


def test_standard_form_chart():
    # z = 48x/(12x+1) maps the finite singular points, and x = oo to 48/12
    chart = [48 * x / (12 * x + 1) for x in SINGULAR_POINTS] + [Fraction(48, 12)]
    assert chart == list(_STANDARD_POINTS)


def test_checks_reject_small_orders():
    with pytest.raises(ValueError):
        schwarzian_check(4)
    with pytest.raises(ValueError):
        standard_form_check(4)


def test_monodromy_unipotent_at_zero():
    res = numeric_monodromy(0, tol=TOL)
    m = np.array(res.matrix)
    n = m - np.eye(3)
    assert np.abs(np.linalg.matrix_power(n, 3)).max() == 0.0
    assert np.abs(n @ n).max() > 1.0
    assert res.residual < TOL


@pytest.mark.parametrize("point,trace", [(Fraction(1, 36), 1.0), (Fraction(1, 4), 1.0)])
def test_monodromy_involutions(point, trace):
    res = numeric_monodromy(point, tol=TOL)
    assert res.order2_residual < TOL
    assert abs(res.det - (-1.0)) < TOL
    assert abs(res.trace - trace) < TOL


def test_monodromy_product_determinant():
    ms = [np.array(numeric_monodromy(p, tol=TOL).matrix) for p in SINGULAR_POINTS]
    prod = ms[2] @ ms[1] @ ms[0]
    assert abs(np.linalg.det(prod) - 1.0) < TOL


def test_monodromy_rejects_bad_input():
    with pytest.raises(ValueError):
        numeric_monodromy(Fraction(1, 5))
    with pytest.raises(ValueError):
        numeric_monodromy(0, basepoint=Fraction(1, 2))
    with pytest.raises(ValueError):
        numeric_monodromy(0, basepoint=Fraction(1000, 36001))
    # Frobenius order 220 at 1/45, whose coefficients are too large for floats
    with pytest.raises(ValueError, match="convergence boundary"):
        numeric_monodromy(Fraction(1, 36), basepoint=Fraction(1, 45))
    with pytest.raises(ToleranceNotMet):
        numeric_monodromy(0, tol=1e-16)
    for tol in (float("nan"), float("inf"), 0, -1):
        with pytest.raises(ValueError, match="tol"):
            numeric_monodromy(Fraction(1, 36), tol=tol)


def test_monodromy_basepoint_shift_keeps_invariants():
    res = numeric_monodromy(Fraction(1, 36), basepoint=Fraction(1, 50), tol=TOL)
    assert res.order2_residual < TOL
    assert abs(res.det - (-1.0)) < TOL


def test_pi_oracles_agree_through_400():
    assert pi_series(400).eq_through(pi_series_by_recurrence(400), 400)


def _standard_chart(s, top):
    """The former chart change of standard_form_check: s(x(z)) / (1 - z/4)^2
    through z^top, for a power series s and the chart x(z) = (z/48)/(1 - z/4),
    over the denominator s.den 12^top 4^top.

    With u = z/4 and v = u/(1 - u), x = v/12, so the sum is
    sum_k s_k v^k / 12^k over (1 - u)^2.  Horner in v runs on the numerators
    of s: B <- 12^(top-k) s_k + v B for k = top .. 0, where multiplying by v
    is a prefix sum (1/(1 - u)) shifted by one (u).  The term of index k is
    later multiplied by v^k, so B is kept only through u^(top-k).  Two more
    prefix sums divide by (1 - u)^2, and u^m = z^m / 4^m is scaled by
    4^(top-m) onto the common denominator."""
    nums = s._nums_from(0, top)
    b, p = [nums[top]], 1
    for k in range(top - 1, -1, -1):
        p *= 12
        b = [p * nums[k], *accumulate(b)]
    return RationalSeries._from_ints(
        [x << 2 * (top - m) for m, x in enumerate(accumulate(accumulate(b)))],
        s.den * 12 ** top * 4 ** top)


def _standard_rhs(order):
    """The former right-hand side of standard_form_check, in the z chart: the
    coefficients of z^0 .. z^order of
    z^2 sum_i [c_i/(z-a_i)^2 + beta_i/(z-a_i)], c_i = (1-alpha_i^2)/2, on the
    singular-point data the module holds now, as int numerators over
    D = m A^order, where A is the lcm of the nonzero points and m the lcm of
    the denominators of the c_i and beta_i.

    A point 0 adds c to z^0 and beta to z^1.  A point a != 0 adds
    c (j-1)/a^j - beta/a^(j-1) to z^j for j >= 2; with r = A/a, so that
    1/a^j = r^j / A^j, its numerator over D is
    r^(j-1) A^(order-j) (m c (j-1) r - m beta A)."""
    points = picard_fuchs._STANDARD_POINTS
    consts = [(Fraction(1 - alpha * alpha, 2), Fraction(beta))
              for alpha, beta in zip(picard_fuchs._STANDARD_ALPHA, picard_fuchs._STANDARD_BETA)]
    m = math.lcm(*(x.denominator for pair in consts for x in pair))
    big_a = math.lcm(*(a for a in points if a))
    a_pow = [big_a ** e for e in range(order + 1)]
    nums = [0] * (order + 1)
    for a, (c, beta) in zip(points, consts):
        mc, mbeta = int(m * c), int(m * beta)
        if not a:
            nums[0] += mc * a_pow[order]
            nums[1] += mbeta * a_pow[order]
            continue
        r, r_pow = big_a // a, 1
        for j in range(2, order + 1):
            r_pow *= r
            nums[j] += r_pow * a_pow[order - j] * (mc * (j - 1) * r - mbeta * big_a)
    return nums, m * a_pow[order]


def _standard_form_in_z(order):
    """The former standard_form_check, in the z chart: z^2 {t,z}, the stored
    x^2 {t,x} carried to the chart by _standard_chart, against _standard_rhs."""
    return _compare(_standard_chart(_schwarzian(order), order), *_standard_rhs(order), order)


def _standard_chart_by_composition(s, top):
    """The former chart change: substitute x(z) = z/(48 - 12z) by Horner and
    multiply by (48 - 12z)^2 (dx/dz)^2."""
    x_of_z = RationalSeries([Fraction(1, 48 * 4 ** (k - 1)) for k in range(1, top + 1)], 1)
    dx_dz = RationalSeries([Fraction(k + 1, 48 * 4 ** k) for k in range(0, top + 1)], 0)
    comp = s.compose(x_of_z)
    front = poly((48, -12), top=comp.top)
    return front * front * comp * dx_dz * dx_dz


def _standard_chart_by_binomials(s, top):
    """The former chart change: the coefficient of z^m is
    sum_k s_k C(m+1, k+1) / (12^k 4^m), on the numerators of s."""
    nums = [c * 12 ** (top - k) for k, c in enumerate(s._nums_from(0, top))]
    return RationalSeries._from_ints(
        [sum(nums[k] * math.comb(m + 1, k + 1) for k in range(m + 1)) * 4 ** (top - m)
         for m in range(top + 1)], s.den * 12 ** top * 4 ** top)


def test_standard_chart_matches_former_binomial_sum():
    for n in range(0, 201):
        s = _schwarzian(n)
        assert _fields(_standard_chart(s, n)) == _fields(_standard_chart_by_binomials(s, n)), n
    # a series with a leading zero, past its first coefficient
    s = RationalSeries([0, Fraction(3, 7), -2, 5, Fraction(1, 11)])
    for n in range(5):
        assert _fields(_standard_chart(s, n)) == _fields(_standard_chart_by_binomials(s, n)), n


@settings(max_examples=60)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                min_size=2, max_size=16))
def test_standard_chart_matches_composition(coeffs):
    s = RationalSeries(coeffs)
    top = s.top
    assert _standard_chart(s, top).eq_through(_standard_chart_by_composition(s, top), top)


def test_transport_matches_frobenius_continuation():
    # inside the disc |x| < 1/36 the Frobenius series continue the basis on
    # their own, so the companion system must carry W(x0)^T to W(x1)^T
    literal = ((0, -6, 108), (0, 1, -132, 972), (0, 0, 3, -180, 864), (0, 0, 0, 1, -40, 144))
    assert dform_coefficients() == literal
    x0, x1 = 1 / 200, 1 / 60
    u = np.array(_transport([(x0, x1)])).T      # the fundamental matrix
    w0 = np.array(_frobenius_initial_matrix(100, x0))
    w1 = np.array(_frobenius_initial_matrix(100, x1))
    assert np.abs(u @ w0.T - w1.T).max() < 1e-9


@pytest.mark.parametrize("order", [-1, -3])
@pytest.mark.parametrize("func", [pi_series, pi_series_by_recurrence])
def test_negative_orders_are_refused(func, order):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        func(order)


@pytest.mark.parametrize("func", [pi_series, pi_series_by_recurrence, frobenius_basis,
                                  mirror_map, schwarzian_check, standard_form_check])
def test_orders_above_max_order_are_refused(func):
    with pytest.raises(ValueError, match="exceeds the maximum"):
        func(MAX_ORDER + 1)
    with pytest.raises(ValueError, match="exceeds the maximum"):
        func(3_000_000_000)


# -- the Frobenius layers, computed once per process ------------------------------

def _layer_digest(order):
    """(lead, numerators, denominator) of every part of the Frobenius basis and
    of the log shift through the given order."""
    parts = [p for ls in frobenius_basis(order) for p in ls.parts] + [_log_shift(order)]
    return repr([(p.lead, p.nums, p.den) for p in parts])


def test_layers_do_not_depend_on_call_order():
    code = ("from k3mirror.picard_fuchs import frobenius_basis, _log_shift\n"
            "parts = [p for ls in frobenius_basis(30) for p in ls.parts] + [_log_shift(30)]\n"
            "print(repr([(p.lead, p.nums, p.den) for p in parts]))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": src}).stdout.strip()
    frobenius_basis(197)
    assert _layer_digest(30) == fresh


def test_layer_prefixes_survive_extension(monkeypatch):
    monkeypatch.setattr(picard_fuchs, "_LAYERS", [[[1], 1], [[0], 1], [[0], 1]])
    early = _layer_digest(20)
    frobenius_basis(150)
    assert [len(nums) for nums, _ in picard_fuchs._LAYERS] == [151] * 3
    assert _layer_digest(20) == early
    # the period alone extends only its own layer
    middle = _layer_digest(150)
    pi_series_by_recurrence(170)
    assert [len(nums) for nums, _ in picard_fuchs._LAYERS] == [171, 151, 151]
    assert _layer_digest(150) == middle


def test_layers_refuse_orders_above_max_order():
    frobenius_basis(40)
    before = [(len(nums), den) for nums, den in picard_fuchs._LAYERS]
    stored = picard_fuchs._SHIFT
    for func in (frobenius_basis, pi_series_by_recurrence, _log_shift):
        with pytest.raises(ValueError, match="exceeds the maximum"):
            func(MAX_ORDER + 1)
    assert [(len(nums), den) for nums, den in picard_fuchs._LAYERS] == before
    assert picard_fuchs._SHIFT is stored


# -- the former hand-written copies of the operator, kept as references -------

# x^0, x^1, x^2 parts of the operator in theta, low degree first
_Q_EXPANDED = ((0, 0, 0, 1), (-6, -32, -60, -40), (108, 396, 432, 144))


def _value(q, n):
    return sum(c * n ** i for i, c in enumerate(q))


def _deriv(q):
    return tuple(i * q[i] for i in range(1, len(q))) or (0,)


def _pi_coeffs_literal(order):
    """N^3 a_N = 2(2N-1)(10N^2-10N+3) a_{N-1} - 36(N-1)(2N-3)(2N-1) a_{N-2}."""
    a = [Fraction(1)]
    for n in range(1, order + 1):
        v = 2 * (2 * n - 1) * (10 * n * n - 10 * n + 3) * a[n - 1]
        if n >= 2:
            v -= 36 * (n - 1) * (2 * n - 3) * (2 * n - 1) * a[n - 2]
        a.append(Fraction(v, n ** 3))
    return a


def _log_partner_literal(a, lower_pairs):
    """N^3 b_N + sum_j Q_j(N-j) b_{N-j} = -sum weight Q_j^(derivs)(N-j) coeffs[N-j]
    over the lower layers given as (weight, coeffs, derivs)."""
    b = [Fraction(0)]
    for n in range(1, len(a)):
        s = Fraction(0)
        for j in (1, 2):
            if n - j >= 0:
                s += _value(_Q_EXPANDED[j], n - j) * b[n - j]
        for weight, coeffs, derivs in lower_pairs:
            for j in (0, 1, 2):
                if n - j >= 0:
                    q = _Q_EXPANDED[j]
                    for _ in range(derivs):
                        q = _deriv(q)
                    s += weight * _value(q, n - j) * coeffs[n - j]
        b.append(Fraction(-s, n ** 3))
    return b


@pytest.mark.parametrize("order", [4, 30, 120])
def test_frobenius_layers_match_former_recurrences(order):
    a = _pi_coeffs_literal(order)
    b = _log_partner_literal(a, [(1, a, 1)])
    c = _log_partner_literal(a, [(1, a, 2), (2, b, 1)])
    y0, y1, y2 = frobenius_basis(order)
    assert [p.coeffs for p in y0.parts] == [tuple(a)]
    assert [p.coeffs for p in y1.parts] == [tuple(b), tuple(a)]
    assert [p.coeffs for p in y2.parts] == [tuple(c), tuple(2 * v for v in b), tuple(a)]


def test_recurrence_matches_former_literal_through_400():
    assert pi_series_by_recurrence(400).coeffs == tuple(_pi_coeffs_literal(400))


def _initial_matrix_by_horner(order, x0):
    """The former float evaluator: each series and derivative turned into a
    numpy array and summed by its own Horner loop."""
    def horner(c):
        acc = 0.0
        for v in c[::-1]:
            acc = acc * x0 + v
        return acc

    lx = math.log(x0)
    rows = []
    for ls in frobenius_basis(order):
        y = yp = ypp = 0.0
        for j, part in enumerate(ls.parts):
            c = part.coeffs
            f0 = horner(np.array([float(v) for v in c]))
            f1 = horner(np.array([float(k * c[k]) for k in range(1, len(c))]))
            f2 = horner(np.array([float(k * (k - 1) * c[k]) for k in range(2, len(c))]))
            y += f0 * lx ** j
            yp += f1 * lx ** j + (j * f0 * lx ** (j - 1) / x0 if j >= 1 else 0.0)
            ypp += f2 * lx ** j
            if j >= 1:
                ypp += 2 * j * f1 * lx ** (j - 1) / x0 - j * f0 * lx ** (j - 1) / x0 ** 2
            if j >= 2:
                ypp += j * (j - 1) * f0 * lx ** (j - 2) / x0 ** 2
        rows.append((y, yp, ypp))
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("order, x0", [(48, 1 / 200), (60, 1 / 100), (80, 1 / 70)])
def test_initial_matrix_matches_former_horner(order, x0):
    got = np.array(_frobenius_initial_matrix(order, x0), dtype=complex)
    want = _initial_matrix_by_horner(order, x0)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()     # bit for bit, signed zeros included


def test_schwarzian_checks_pass_at_every_order_through_80():
    for order in range(8, 81):
        assert schwarzian_check(order) == SeriesCheck(True, order), order
        assert standard_form_check(order) == SeriesCheck(True, order), order


def _standard_rhs_by_fractions(order):
    """The former right-hand side of standard_form_check, one Fraction
    operation at a time, on the singular-point data the module holds now."""
    points = picard_fuchs._STANDARD_POINTS
    alpha, beta = picard_fuchs._STANDARD_ALPHA, picard_fuchs._STANDARD_BETA
    rhs = [Fraction(0)] * (order + 1)
    rhs[0] += Fraction(1, 2) * (1 - alpha[0] ** 2)
    rhs[1] += beta[0]
    for i in (1, 2, 3):
        ai = points[i]
        c2 = Fraction(1, 2) * (1 - alpha[i] ** 2)
        for k in range(order - 1):
            rhs[k + 2] += c2 * Fraction(k + 1, ai ** (k + 2))
            rhs[k + 2] -= beta[i] * Fraction(1, ai ** (k + 1))
    return rhs


def test_standard_rhs_matches_former_fraction_loop():
    for order in range(8, 201):
        nums, den = _standard_rhs(order)
        assert len(nums) == order + 1 and den > 0, order
        assert [Fraction(x, den) for x in nums] == _standard_rhs_by_fractions(order), order


def _replaced(values, i, new):
    return values[:i] + (new,) + values[i + 1:]


@pytest.mark.parametrize("name, i, new", [
    *[("_STANDARD_ALPHA", i, Fraction(1, 3)) for i in (1, 2, 3)],
    *[("_STANDARD_BETA", i, _STANDARD_BETA[i] + Fraction(1, 7)) for i in range(4)],
    # the denominator is read from the data: 48 // 47 = 1 would hide this one
    ("_STANDARD_BETA", 2, Fraction(1, 47)),
    ("_STANDARD_POINTS", 1, 2),
    ("_STANDARD_POINTS", 2, 5),
    ("_STANDARD_POINTS", 3, 6),
])
def test_standard_form_fails_on_changed_data(monkeypatch, name, i, new):
    assert standard_form_check(20).ok
    monkeypatch.setattr(picard_fuchs, name, _replaced(getattr(picard_fuchs, name), i, new))
    nums, den = _standard_rhs(20)
    assert [Fraction(x, den) for x in nums] == _standard_rhs_by_fractions(20)
    # the x chart and the z chart of the former route fail at one power
    in_x, in_z = standard_form_check(20), _standard_form_in_z(20)
    assert not in_x.ok and not in_z.ok
    power = 1 if (name, i) == ("_STANDARD_BETA", 0) else 2   # beta_0 enters at z^1
    assert in_x.first_mismatch[0] == in_z.first_mismatch[0] == power


def test_the_x_and_z_charts_agree_at_every_order_through_200():
    for order in range(8, 201):
        want = SeriesCheck(True, order)
        assert standard_form_check(order) == _standard_form_in_z(order) == want, order


def _planted_schwarzian(monkeypatch, power):
    """Replace the stored x^2 {t,x} through x^200 by one with 1 added to its
    numerator at x^power."""
    _schwarzian(200)
    stored = picard_fuchs._SCHWARZ
    nums = list(stored._nums_from(0, stored.top))
    nums[power] += 1
    monkeypatch.setattr(picard_fuchs, "_SCHWARZ", RationalSeries._from_ints(nums, stored.den))


@pytest.mark.parametrize("power", [0, 1, 2, 3, 7, 40, 150, 199])
def test_a_planted_schwarzian_fails_both_charts_at_its_power(monkeypatch, power):
    _planted_schwarzian(monkeypatch, power)
    for chk in (standard_form_check(200), _standard_form_in_z(200), schwarzian_check(200)):
        assert not chk.ok and chk.first_mismatch[0] == power, chk


def test_a_planted_schwarzian_reports_x_chart_coefficients(monkeypatch):
    # x^2 {t,x} = 1/2 + ... is stored over 2, so the plant raises x^0 to 1;
    # the x chart reads 1 D(0) = 2 against N(0) = 1, the z chart 1 against 1/2
    _planted_schwarzian(monkeypatch, 0)
    assert standard_form_check(20).first_mismatch == (0, "2", "1")
    assert _standard_form_in_z(20).first_mismatch == (0, "1", "1/2")


def test_changed_data_reach_the_x_chart_through_a_fresh_key(monkeypatch):
    assert standard_form_check(20).ok
    before = _standard_in_x.cache_info()
    beta = _replaced(_STANDARD_BETA, 2, Fraction(1, 4747))   # a value no other test plants
    monkeypatch.setattr(picard_fuchs, "_STANDARD_BETA", beta)
    chk = standard_form_check(20)
    after = _standard_in_x.cache_info()
    assert not chk.ok and chk.first_mismatch[0] == 2
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    alpha = picard_fuchs._STANDARD_ALPHA
    assert _standard_n_d() == _standard_in_x.__wrapped__(_STANDARD_POINTS, alpha, beta)
    assert _standard_n_d() != _standard_in_x(_STANDARD_POINTS, alpha, _STANDARD_BETA)


def _poly_product(*ps):
    out = [1]
    for p in ps:
        out = [sum(out[i] * p[k - i] for i in range(len(out)) if 0 <= k - i < len(p))
               for k in range(len(out) + len(p) - 1)]
    return tuple(out)


def test_standard_form_data_and_the_quartic_are_one_rational_function():
    nums, den = _standard_n_d()
    assert nums == (1, -16, 60, 27216, 355968, 539136, -3732480, 26873856)
    assert den == (2, -88, -1120, 47232, 566784, -1935360, -21897216, 71663616)
    twice_disc_sq = _poly_product((2,), picard_fuchs._DISC, picard_fuchs._DISC)
    assert den == _poly_product((1, 12), (1, 12), (1, 12), twice_disc_sq)
    quartic = picard_fuchs._SCHWARZIAN_NUMERATOR
    assert _poly_product(nums, twice_disc_sq) == _poly_product(quartic, den)


@pytest.mark.parametrize("name, i, new", [
    ("_STANDARD_ALPHA", 1, Fraction(1, 3)),
    ("_STANDARD_ALPHA", 3, Fraction(1, 3)),
    *[("_STANDARD_BETA", i, _STANDARD_BETA[i] + Fraction(1, 7)) for i in range(4)],
])
def test_a_planted_exponent_or_accessory_parameter_breaks_the_identity(monkeypatch, name, i, new):
    monkeypatch.setattr(picard_fuchs, name, _replaced(getattr(picard_fuchs, name), i, new))
    nums, den = _standard_n_d()
    twice_disc_sq = _poly_product((2,), picard_fuchs._DISC, picard_fuchs._DISC)
    quartic = picard_fuchs._SCHWARZIAN_NUMERATOR
    assert _poly_product(nums, twice_disc_sq) != _poly_product(quartic, den)


def test_compare_reports_first_mismatch():
    lhs = poly((1, Fraction(1, 2), 3, 5))
    assert _compare(lhs, (2, 1, 6), 2, 2) == SeriesCheck(True, 2)
    assert _compare(lhs, (1, 0, 4, 5), 1, 3) == SeriesCheck(False, 3, (1, "1/2", "0"))


def test_compare_pads_a_short_target_with_zeros():
    lhs = poly((2, -4, 0, 0, 6))
    assert _compare(lhs, (4, -8), 2, 3) == SeriesCheck(True, 3)
    assert _compare(lhs, (4, -8), 2, 4) == SeriesCheck(False, 4, (4, "6", "0"))
    assert _compare(lhs, (), 1, 0) == SeriesCheck(False, 0, (0, "2", "0"))
    assert _compare(poly((0, 0, 0)), (), 1, 2) == SeriesCheck(True, 2)
    # a target longer than order + 1 is read through x^order only
    assert _compare(lhs, (2, -4, 0, 9), 1, 2) == SeriesCheck(True, 2)
    with pytest.raises(ValueError):
        _compare(lhs, (2,), 1, 5)


def test_largest_float_order_is_finite():
    rows = _frobenius_initial_matrix(197, 1 / 47)
    assert all(math.isfinite(v) for row in rows for v in row)
    with pytest.raises(OverflowError):
        _frobenius_initial_matrix(198, 1 / 47)
    # 1/47 is the last basepoint 1/k below the boundary that is accepted
    res = numeric_monodromy(Fraction(1, 36), basepoint=Fraction(1, 47), tol=TOL)
    assert res.order2_residual < TOL


# -- the two halves of the paper meet -------------------------------------------

_TABLE1 = {Fraction(0): TBAR, Fraction(1, 36): S1BAR,
           # the connector to 1/4 passes above 1/36, which conjugates S2BAR by S1BAR
           Fraction(1, 4): np.array(S1BAR) @ np.array(S2BAR) @ np.array(S1BAR)}


@pytest.mark.parametrize("basepoint", [Fraction(1, 200), Fraction(1, 100), Fraction(1, 70)])
@pytest.mark.parametrize("point", SINGULAR_POINTS)
def test_monodromy_is_the_table1_generator(point, basepoint):
    # in the basis (1, t, 6t^2) of U+<12>, with 2 pi i t = y1/y0, each loop
    # matrix is the integral isometry that Table 1 assigns to the loop
    two_pi_i = 2j * math.pi
    d = np.diag([1, 1 / two_pi_i, 6 / two_pi_i ** 2])
    m = np.array(numeric_monodromy(point, basepoint=basepoint).matrix)
    assert np.abs(d @ m @ np.linalg.inv(d) - np.array(_TABLE1[point])).max() < 1e-9


# -- the former scipy DOP853 transport, kept as a reference ----------------------

def _former_segment(z0, z1):
    return (lambda t: z0 + t * (z1 - z0), lambda t: z1 - z0)


def _former_circle(center, radius, start_angle=math.pi):
    return (lambda t: center + radius * cmath.exp(1j * (start_angle + 2 * math.pi * t)),
            lambda t: radius * 2j * math.pi * cmath.exp(1j * (start_angle + 2 * math.pi * t)))


def _former_loop_legs(point, basepoint):
    if point == 0:
        return [_former_circle(0.0, basepoint, start_angle=0.0)]
    if point == Fraction(1, 36):
        c, r = 1 / 36, 1 / 72
        return [_former_segment(basepoint, c - r), _former_circle(c, r),
                _former_segment(c - r, basepoint)]
    c, r, lift = 1 / 4, 1 / 9, 0.05j
    up = [_former_segment(basepoint, basepoint + lift),
          _former_segment(basepoint + lift, c - r + lift),
          _former_segment(c - r + lift, c - r)]
    down = [_former_segment(c - r, c - r + lift),
            _former_segment(c - r + lift, basepoint + lift),
            _former_segment(basepoint + lift, basepoint)]
    return up + [_former_circle(c, r)] + down


def _transport_dop853(legs):
    """The fundamental matrix of the companion system, integrated by scipy's
    DOP853 along the true circles at rtol 1e-12."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    p0, p1, p2, p3 = dform_coefficients()

    def polyval(p, x):
        return sum(c * x ** i for i, c in enumerate(p))

    u = np.eye(3, dtype=complex)
    for path, dpath in legs:
        def rhs(t, y):
            x, d = path(t), dpath(t)
            c0, c1, c2 = (-polyval(p, x) / polyval(p3, x) for p in (p0, p1, p2))
            v = y.reshape(3, 3)
            return (d * np.vstack([v[1], v[2], c0 * v[0] + c1 * v[1] + c2 * v[2]])).reshape(-1)
        sol = scipy_solve_ivp(rhs, (0.0, 1.0), u.reshape(-1), method="DOP853",
                              rtol=1e-12, atol=1e-14)
        assert sol.success
        u = sol.y[:, -1].reshape(3, 3)
    return u


@pytest.mark.parametrize("basepoint", [1 / 200, 1 / 100, 1 / 70])
@pytest.mark.parametrize("point", SINGULAR_POINTS)
def test_transport_matches_former_dop853(point, basepoint):
    want = _transport_dop853(_former_loop_legs(point, basepoint))
    got = np.array(_transport(_loop_legs(point, basepoint))).T
    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()


def test_leg_solution_counts_terms():
    sol = solve_ivp((1 / 200, 1 / 60), _IDENTITY)
    assert sol.nfev > 0
    assert sol.states == _transport([(1 / 200, 1 / 60)])


def test_taylor_step_beyond_convergence_fails():
    # from 1/100 the series converges only within 1/100 of the centre
    with pytest.raises(ToleranceNotMet, match="did not converge"):
        _taylor_step(_IDENTITY, 1 / 100, 0.02)


# -- the former Taylor kernel, kept as a reference --------------------------------

def _taylor_step_reference(states, c, h):
    """The former _taylor_step: any number of states, each solution's terms
    in one list read by index, the five weights from a list comprehension."""
    rec = picard_fuchs._step_recurrence(c, h)
    series = [[0j, 0j, y, yp * h, ypp * h * h / 2] for y, yp, ypp in states]
    limits = [picard_fuchs._TERM_EPS * max(abs(b[2]), abs(b[3]), abs(b[4])) for b in series]
    quiet = 0
    for n in range(3, picard_fuchs._MAX_TERMS):
        inv = 1 / (n * (n - 1) * (n - 2))
        w0, w1, w2, w3, w4 = [(((e[3] * m + e[2]) * m + e[1]) * m + e[0]) * inv
                              for m, e in zip(range(n - 5, n), rec)]
        small = True
        for b, limit in zip(series, limits):
            t = w0 * b[n - 3] + w1 * b[n - 2] + w2 * b[n - 1] + w3 * b[n] + w4 * b[n + 1]
            b.append(t)
            small = small and abs(t) <= limit
        quiet = quiet + 1 if small else 0
        if quiet == 2:
            break
    else:
        raise ToleranceNotMet("did not converge")
    out = []
    for b in series:
        y = yp = ypp = 0j
        for k in range(len(b) - 1, 1, -1):
            y += b[k]
            yp += (k - 2) * b[k]
            ypp += (k - 2) * (k - 3) * b[k]
        out.append((y, yp / h, ypp / (h * h)))
    return out, len(b) - 2


def _bits(states):
    """The states as the hex images of their parts, so that -0.0 and 0.0 differ."""
    return tuple(tuple((complex(v).real.hex(), complex(v).imag.hex()) for v in s)
                 for s in states)


def test_taylor_step_matches_the_former_kernel():
    rng = random.Random(26)
    singular = [float(p) for p in SINGULAR_POINTS]
    for _ in range(300):
        c = complex(rng.uniform(-0.1, 0.4), rng.uniform(-0.1, 0.1))
        reach = picard_fuchs._STEP_FRACTION * min(abs(c - p) for p in singular)
        h = reach * rng.uniform(0.05, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        states = [tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
                  for _ in range(3)]
        got, n = _taylor_step(states, c, h)
        want, n_want = _taylor_step_reference(states, c, h)
        assert got == tuple(want) and n == n_want, (c, h)
        assert _bits(got) == _bits(want), (c, h)


_LEG_BASEPOINTS = [1 / 200, 1 / 150, 1 / 120, 1 / 100, 1 / 90, 1 / 80, 1 / 75, 1 / 70, 1 / 50,
                   1 / 47]


@pytest.mark.parametrize("basepoint", _LEG_BASEPOINTS)
@pytest.mark.parametrize("point", SINGULAR_POINTS)
def test_every_leg_matches_the_former_kernel(monkeypatch, point, basepoint):
    # from the unit states along the whole loop, and from the Frobenius states
    # at the basepoint, as numeric_monodromy starts
    w = _frobenius_initial_matrix(48, basepoint)
    for start in (_IDENTITY, w):
        got, want = start, start
        for leg in _loop_legs(point, basepoint):
            sol = solve_ivp(leg, got)
            with monkeypatch.context() as m:
                m.setattr(picard_fuchs, "_taylor_step", _taylor_step_reference)
                ref = solve_ivp(leg, want)
            assert _bits(sol.states) == _bits(ref.states) and sol.nfev == ref.nfev, leg
            got, want = sol.states, ref.states


@pytest.mark.parametrize("count", [2, 4])
def test_taylor_step_carries_exactly_three_states(count):
    states = [(1.0, 0.0, 0.0)] * count
    with pytest.raises(ValueError):
        _taylor_step(states, 1 / 100, 1 / 400)
