from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from k3mirror.picard_fuchs import (
    MAX_ORDER,
    SINGULAR_POINTS,
    ToleranceNotMet,
    ThetaOperator,
    _companion,
    _schwarzian_of,
    _standard_chart,
    _t_prime,
    apply_operator,
    dform_coefficients,
    frobenius_basis,
    mirror_map,
    numeric_monodromy,
    pf_operator,
    pi_series,
    pi_series_by_recurrence,
    schwarzian_check,
    standard_form_check,
    z_of_x,
)
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
    order = 14
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


def test_schwarzian_exact():
    chk = schwarzian_check(40)
    assert chk.ok and chk.first_mismatch is None
    # spot check the target quartic itself
    schw = _schwarzian_of(_t_prime(12))
    w = schw.top
    weight = poly((0, 0, 2), top=w)
    for f in ((1, -36), (1, -36), (1, -4), (1, -4)):
        weight = weight * poly(f, top=w)
    lhs = schw * weight
    assert lhs.coeff(0) == 1
    assert lhs.coeff(1) == -52
    assert lhs.coeff(2) == 1500


def test_schwarzian_mobius_invariance():
    # replacing t by 3t or t+1 leaves {t,x} unchanged
    tp = _t_prime(16)
    base = _schwarzian_of(tp)
    scaled = _schwarzian_of(tp * 3)
    assert base.eq_through(scaled, base.top - 2)
    shifted = _schwarzian_of(tp)   # d(t+1)/dx = dt/dx
    assert base.eq_through(shifted, base.top - 2)


def test_standard_form_exact():
    chk = standard_form_check(40)
    assert chk.ok


def test_standard_form_chart():
    assert z_of_x(Fraction(0)) == 0
    assert z_of_x(Fraction(1, 36)) == 1
    assert z_of_x(Fraction(1, 4)) == 3
    assert z_of_x(None) == 4


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
    with pytest.raises(ToleranceNotMet):
        numeric_monodromy(0, tol=1e-16)


def test_monodromy_basepoint_shift_keeps_invariants():
    res = numeric_monodromy(Fraction(1, 36), basepoint=Fraction(1, 50), tol=TOL)
    assert res.order2_residual < TOL
    assert abs(res.det - (-1.0)) < TOL


def test_pi_oracles_agree_through_400():
    assert pi_series(400).eq_through(pi_series_by_recurrence(400), 400)


def _standard_chart_by_composition(s, top):
    """The former chart change: substitute x(z) = z/(48 - 12z) by Horner and
    multiply by (48 - 12z)^2 (dx/dz)^2."""
    x_of_z = RationalSeries([Fraction(1, 48 * 4 ** (k - 1)) for k in range(1, top + 1)], 1)
    dx_dz = RationalSeries([Fraction(k + 1, 48 * 4 ** k) for k in range(0, top + 1)], 0)
    comp = s.compose(x_of_z)
    front = poly((48, -12), top=comp.top)
    return front * front * comp * dx_dz * dx_dz


@settings(max_examples=60)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                min_size=2, max_size=16))
def test_standard_chart_matches_composition(coeffs):
    s = RationalSeries(coeffs)
    top = s.top
    assert _standard_chart(s, top).eq_through(_standard_chart_by_composition(s, top), top)


def test_companion_uses_dform_literals():
    literal = ((0, -6, 108), (0, 1, -132, 972), (0, 0, 3, -180, 864), (0, 0, 0, 1, -40, 144))
    assert dform_coefficients() == literal
    for x in (0.01 + 0.0j, 0.25 + 0.05j, 1 / 36 - 1 / 72 + 1e-3j):
        p0, p1, p2, p3 = (np.polyval(p[::-1], x) for p in literal)
        want = np.array([[0, 1, 0], [0, 0, 1], [-p0 / p3, -p1 / p3, -p2 / p3]])
        assert np.array_equal(_companion(x), want)


@pytest.mark.parametrize("func", [pi_series, pi_series_by_recurrence, frobenius_basis,
                                  mirror_map, schwarzian_check, standard_form_check])
def test_orders_above_max_order_are_refused(func):
    with pytest.raises(ValueError, match="exceeds the maximum"):
        func(MAX_ORDER + 1)
    with pytest.raises(ValueError, match="exceeds the maximum"):
        func(3_000_000_000)
