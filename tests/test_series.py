import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k3mirror.picard_fuchs import mirror_map
from k3mirror.series import LogSeries, RationalSeries, poly


def geometric(ratio, top: int) -> RationalSeries:
    """1/(1 - ratio*x) through x^top."""
    r = Fraction(ratio)
    out = [Fraction(1)]
    for _ in range(top):
        out.append(out[-1] * r)
    return RationalSeries(out, 0)


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


def test_truncate_refuses_unknown_coefficients():
    # as coeff and is_zero_through do; before, a short series came back
    s = RationalSeries._from_ints([1, 2, 3])
    assert s.truncate(2).nums == (1, 2, 3)
    for top in (3, 10):
        with pytest.raises(ValueError, match="beyond the known coefficients"):
            s.truncate(top)
    with pytest.raises(ValueError):
        RationalSeries([5, 5], lead=3).truncate(5)


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


# -- the former Fraction series, kept as a reference for the int core -----------

class _FractionSeries:
    """The former RationalSeries: one Fraction per coefficient, and every
    operation on Fractions."""

    def __init__(self, coeffs, lead=0):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.lead = lead

    @property
    def top(self):
        return self.lead + len(self.coeffs) - 1

    def coeff(self, k):
        if k < self.lead:
            return Fraction(0)
        if k > self.top:
            raise ValueError("beyond the truncation")
        return self.coeffs[k - self.lead]

    def strip(self):
        i = 0
        while i < len(self.coeffs) - 1 and self.coeffs[i] == 0:
            i += 1
        return _FractionSeries(self.coeffs[i:], self.lead + i)

    def truncate(self, top):
        if top > self.top:
            raise ValueError("beyond the truncation")
        if top >= self.lead:
            return _FractionSeries(self.coeffs[:top - self.lead + 1], self.lead)
        if top >= 0:
            return _FractionSeries([0] * (top + 1), 0)
        raise ValueError("truncation below the leading exponent")

    def __add__(self, other):
        if not isinstance(other, _FractionSeries):
            other = _FractionSeries([other] + [0] * max(self.top, 0))
        lead, top = min(self.lead, other.lead), min(self.top, other.top)
        if top < lead:
            raise ValueError("empty overlap of reliable coefficients")
        return _FractionSeries([self.coeff(k) + other.coeff(k) for k in range(lead, top + 1)],
                               lead)

    def __neg__(self):
        return _FractionSeries([-c for c in self.coeffs], self.lead)

    def __sub__(self, other):
        return self + (-other if isinstance(other, _FractionSeries) else -Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, _FractionSeries):
            return _FractionSeries([Fraction(other) * x for x in self.coeffs], self.lead)
        n = min(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i in range(n):
            for j in range(n - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return _FractionSeries(out, self.lead + other.lead)

    def __truediv__(self, other):
        if not isinstance(other, _FractionSeries):
            return _FractionSeries([x / Fraction(other) for x in self.coeffs], self.lead)
        b = other.strip()
        if b.coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with no known nonzero coefficient")
        out = []
        for k in range(min(len(self.coeffs), len(b.coeffs))):
            s = self.coeffs[k]
            for j in range(1, min(k, len(b.coeffs) - 1) + 1):
                s -= b.coeffs[j] * out[k - j]
            out.append(s / b.coeffs[0])
        return _FractionSeries(out, self.lead - b.lead)

    def deriv(self):
        return _FractionSeries([(self.lead + i) * c for i, c in enumerate(self.coeffs)],
                               self.lead - 1)

    def theta(self):
        return _FractionSeries([(self.lead + i) * c for i, c in enumerate(self.coeffs)],
                               self.lead)

    def shift(self, k):
        return _FractionSeries(self.coeffs, self.lead + k)

    def exp(self):
        top = self.top
        if top < 0 or any(self.coeff(k) != 0 for k in range(min(self.lead, 0), 1)):
            raise ValueError("exp needs a series vanishing at the origin")
        hs = [self.coeff(k) for k in range(top + 1)]
        out = [Fraction(1)] + [Fraction(0)] * top
        for n in range(1, top + 1):
            out[n] = sum(k * hs[k] * out[n - k] for k in range(1, n + 1)) / n
        return _FractionSeries(out, 0)

    def revert(self):
        f = self.strip()
        if f.lead != 1 or f.coeffs[0] != 1:
            raise ValueError("reversion needs a series of the form x + O(x^2)")
        n = len(f.coeffs)
        w = (_FractionSeries([1] + [0] * (n - 1)) / _FractionSeries(f.coeffs)).coeffs
        power = [Fraction(1)] + [Fraction(0)] * (n - 1)
        out = []
        for k in range(1, n + 1):
            power = [sum(power[i] * w[m - i] for i in range(m + 1)) for m in range(n)]
            out.append(power[k - 1] / k)
        return _FractionSeries(out, 1)


def _both(new_op, old_op):
    """Run an operation on the int core and on the Fraction reference: both
    raise the same exception, or both give the same lead, top and coeffs."""
    try:
        want = old_op()
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            new_op()
        return
    got = new_op()
    assert (got.lead, got.top, got.coeffs) == (want.lead, want.top, want.coeffs)
    # stored once, reduced: the numerators over den have no common factor
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
    assert all(type(x) is int for x in got.nums)


fractions_with_zeros = st.one_of(st.just(Fraction(0)),
                                 st.fractions(min_value=-9, max_value=9, max_denominator=12))
# Laurent and power series of one to eight coefficients, all-zero ones included
series_args = st.tuples(st.one_of(st.lists(fractions_with_zeros, min_size=1, max_size=8),
                                  st.lists(st.just(Fraction(0)), min_size=1, max_size=4)),
                        st.integers(min_value=-2, max_value=2))
scalars = st.one_of(st.just(Fraction(0)), st.integers(min_value=-5, max_value=5),
                    st.fractions(min_value=-7, max_value=7, max_denominator=9))


def _pair(args):
    coeffs, lead = args
    return RationalSeries(coeffs, lead), _FractionSeries(coeffs, lead)


@settings(max_examples=300)
@given(series_args, series_args)
def test_ring_operations_match_fraction_reference(xa, xb):
    (a, ra), (b, rb) = _pair(xa), _pair(xb)
    _both(lambda: a + b, lambda: ra + rb)
    _both(lambda: a - b, lambda: ra - rb)
    _both(lambda: a * b, lambda: ra * rb)
    _both(lambda: a / b, lambda: ra / rb)


@settings(max_examples=200)
@given(series_args, st.fractions(min_value=-9, max_value=9, max_denominator=12)
       .filter(lambda c: c != 0).map(lambda c: c if c.numerator not in (1, -1) else c * 2),
       st.lists(fractions_with_zeros, min_size=0, max_size=7), st.integers(-2, 2))
def test_division_by_non_unit_leading_coefficient(xa, b0, rest, lead):
    # the divisor's leading coefficient is never +-1/d, so its numerator is a
    # non-unit over the common denominator
    (a, ra), (b, rb) = _pair(xa), _pair(([b0] + rest, lead))
    _both(lambda: a / b, lambda: ra / rb)
    _both(lambda: b / b, lambda: rb / rb)


@settings(max_examples=200)
@given(series_args, scalars)
def test_scalar_operations_match_fraction_reference(xa, c):
    a, ra = _pair(xa)
    _both(lambda: a * c, lambda: ra * c)
    _both(lambda: a / c, lambda: ra / c)
    _both(lambda: a + c, lambda: ra + c)
    _both(lambda: a - c, lambda: ra - c)
    _both(lambda: -a, lambda: -ra)


@settings(max_examples=200)
@given(series_args, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=9))
def test_calculus_and_windows_match_fraction_reference(xa, k, top):
    a, ra = _pair(xa)
    _both(a.theta, ra.theta)
    _both(a.deriv, ra.deriv)
    _both(lambda: a.shift(k), lambda: ra.shift(k))
    _both(a.strip, ra.strip)
    _both(lambda: a.truncate(top), lambda: ra.truncate(top))
    _both(a.exp, ra.exp)
    _both(a.revert, ra.revert)


# series with an exact zero constant term, so that exp applies
vanishing_at_zero = st.tuples(st.lists(fractions_with_zeros, min_size=0, max_size=10)
                              .map(lambda rest: [Fraction(0)] + rest),
                              st.integers(min_value=-1, max_value=2))


@settings(max_examples=200)
@given(vanishing_at_zero)
def test_exp_matches_fraction_reference(xa):
    coeffs, lead = xa
    if lead < 0:
        coeffs = [Fraction(0)] * (1 - lead) + coeffs[1:]
    a, ra = _pair((coeffs, lead))
    _both(a.exp, ra.exp)


@settings(max_examples=200)
@given(monic_valuation_one)
def test_revert_matches_fraction_reference(f):
    _both(f.revert, _FractionSeries(f.coeffs, f.lead).revert)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(series_args, series_args, st.lists(fractions_with_zeros, max_size=3),
       st.integers(min_value=-3, max_value=11))
def test_eq_through_matches_coefficient_comparison(xa, xb, tail, top):
    # the former route compared one Fraction pair per power and raised, through
    # coeff, at the first power past either truncation
    (coeffs, lead), (b, _) = xa, _pair(xb)
    a = RationalSeries(coeffs, lead)
    # the same values on a longer window, stored over another denominator
    longer = RationalSeries([Fraction(c) for c in coeffs] + tail + [Fraction(1, 7)], lead)
    for x, y in ((a, b), (b, a), (a, longer), (longer, a), (a, a * 1)):
        want = _outcome(lambda: all(x.coeff(k) == y.coeff(k)
                                    for k in range(min(x.lead, y.lead), top + 1)))
        assert _outcome(lambda: x.eq_through(y, top)) == want


def test_single_coefficient_and_zero_series():
    one = RationalSeries([Fraction(-3, 4)], 2)
    assert (one.lead, one.top, one.nums, one.den) == (2, 2, (-3,), 4)
    zero = RationalSeries([0, 0, 0], -1)
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)
    assert zero.is_zero_through(1) and (zero * Fraction(5, 7)).den == 1
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        one / 0
