from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from k3mirror.picard_fuchs import mirror_map
from k3mirror.series import LogSeries, RationalSeries, geometric, poly

coeff_lists = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                       min_size=4, max_size=8)


def test_coeff_and_window():
    s = RationalSeries([1, 2, 3], lead=-1)
    assert s.coeff(-1) == 1 and s.coeff(0) == 2 and s.coeff(1) == 3
    assert s.coeff(-5) == 0
    with pytest.raises(ValueError):
        s.coeff(2)
    assert s.top == 1


def test_add_takes_min_window():
    a = RationalSeries([1, 1, 1, 1])          # through x^3
    b = RationalSeries([2, 2], lead=1)        # x .. x^2
    c = a + b
    assert c.lead == 0 and c.top == 2
    assert [c.coeff(k) for k in range(3)] == [1, 3, 3]


def test_mul_window_and_values():
    a = poly((1, 1), top=5)            # 1 + x, padded
    b = poly((1, -1), top=5)
    c = a * b
    assert c.coeff(0) == 1 and c.coeff(1) == 0 and c.coeff(2) == -1
    assert c.top == 5


def test_laurent_mul_and_div():
    inv_x = RationalSeries([1, 0, 0, 0], lead=-1)
    x2 = poly((0, 0, 1), top=4)
    prod = inv_x * x2
    assert prod.coeff(1) == 1 and prod.strip().lead == 1
    q = poly((1,), top=4) / geometric(1, 4)    # 1 / (1/(1-x)) = 1 - x
    assert [q.coeff(k) for k in range(2)] == [1, -1]


def test_division_round_trip():
    a = RationalSeries([1, 3, Fraction(1, 2), -2, 5])
    b = RationalSeries([2, -1, 4, 1, 0])
    q = a / b
    back = q * b
    assert back.eq_through(a, 4)


def test_divide_by_zero_leading():
    a = poly((1, 1), top=3)
    z = poly((0, 0), top=3)
    with pytest.raises(ZeroDivisionError):
        a / z


def test_deriv_theta():
    s = poly((5, 1, 3), top=4)
    d = s.deriv()
    assert d.lead == -1 and d.coeff(-1) == 0 and d.coeff(0) == 1 and d.coeff(1) == 6
    t = s.theta()
    assert t.coeff(0) == 0 and t.coeff(1) == 1 and t.coeff(2) == 6


def test_compose_geometric():
    # 1/(1-y) at y = x + x^2: coefficients count compositions
    outer = geometric(1, 6)
    inner = poly((0, 1, 1), top=6)
    c = outer.compose(inner)
    assert [c.coeff(k) for k in range(5)] == [1, 1, 2, 3, 5]  # Fibonacci


def test_exp_and_log_structure():
    h = poly((0, 1), top=8)
    e = h.exp()
    import math
    assert all(e.coeff(k) == Fraction(1, math.factorial(k)) for k in range(9))
    with pytest.raises(ValueError):
        poly((1, 1), top=4).exp()


def test_revert_round_trip():
    f = poly((0, 1, -14, 117), top=10)
    g = f.revert()
    assert f.compose(g).eq_through(poly((0, 1), top=10), 10)
    assert g.compose(f).eq_through(poly((0, 1), top=10), 10)


def test_revert_requires_monic_valuation_one():
    with pytest.raises(ValueError):
        poly((0, 2, 1), top=5).revert()


@given(coeff_lists, coeff_lists)
def test_mul_commutes(xs, ys):
    a, b = RationalSeries(xs), RationalSeries(ys)
    lhs, rhs = a * b, b * a
    assert lhs.eq_through(rhs, lhs.top)


@given(coeff_lists)
def test_add_sub_inverse(xs):
    a = RationalSeries(xs)
    z = a - a
    assert z.is_zero_through(z.top)


def test_log_series_theta_rule():
    # theta(f log^2 + g log + h) = (theta f) log^2 + (2f + theta g) log + (g + theta h)
    f = poly((0, 1), top=5)       # x
    g = poly((3, 0, 1), top=5)    # 3 + x^2
    h = poly((0, 0, 0, 1), top=5)
    ls = LogSeries([h, g, f])
    t = ls.theta()
    assert t.parts[2].eq_through(f.theta(), 5)
    assert t.parts[1].eq_through(g.theta() + 2 * f, 5)
    assert t.parts[0].eq_through(h.theta() + g, 5)


def test_log_series_add_mixed_depth():
    a = LogSeries([poly((1,), top=3)])
    b = LogSeries([poly((0, 1), top=3), poly((2,), top=3)])
    c = a + b
    assert c.log_degree == 1
    assert c.parts[0].coeff(0) == 1 and c.parts[0].coeff(1) == 1
    assert c.parts[1].coeff(0) == 2


def test_truncate_clips_to_zero():
    s = RationalSeries([5, 5], lead=3)
    t = s.truncate(1)
    assert t.is_zero_through(1)


def _revert_by_fixed_point(f):
    """The former reversion, kept as a reference: one full composition per
    coefficient, correcting g until f(g(q)) = q."""
    top = f.strip().top
    g = RationalSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * (top - 1), 0)
    for k in range(2, top + 1):
        err = f.compose(g).coeff(k)
        coeffs = list(g.coeffs)
        coeffs[k] -= err
        g = RationalSeries(coeffs, 0)
    return g.strip()


# x + c_2 x^2 + ... + c_top x^top, with top 1..12, non-integral rational
# coefficients and exact zeros in between; lead 0 adds an exact constant zero
monic_valuation_one = st.builds(
    lambda rest, lead: RationalSeries([0] * (1 - lead) + [1] + rest, lead),
    st.lists(st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-7, max_value=7, max_denominator=9)),
             min_size=0, max_size=11),
    st.sampled_from((0, 1)))


@given(monic_valuation_one)
def test_revert_matches_fixed_point_reference(f):
    g = f.revert()
    ref = _revert_by_fixed_point(f)
    assert (g.lead, g.coeffs) == (ref.lead, ref.coeffs)
    x = poly((0, 1), top=g.top)
    assert f.compose(g).eq_through(x, g.top)
    assert g.compose(f).eq_through(x, g.top)


def test_mirror_map_integral_and_inverse_through_60():
    mm = mirror_map(60)
    assert all(mm.x_of_q.coeff(k).denominator == 1 for k in range(61))
    q_of_x = mm.log_shift.exp().shift(1)
    assert q_of_x.compose(mm.x_of_q).eq_through(poly((0, 1), top=60), 60)
