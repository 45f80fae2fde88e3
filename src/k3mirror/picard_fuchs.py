"""The degree-12 mirror-family period equation: exact series solutions at the
maximally unipotent point, the Frobenius basis with its log structure, the
mirror map and its q-expansion, exact Schwarzian and standard-form checks,
and floating-point monodromy transport around the three finite singular
points 0, 1/36, 1/4.

The operator, written with theta = x d/dx, is

    theta^3 + 36 x^2 (theta+1)(2theta+1)(2theta+3)
            - 2 x (2theta+1)(10 theta^2 + 10 theta + 3),

whose analytic solution at x = 0 is the power series with coefficients
sum_{k+l+m=N} (2N)! / (k! l! m!)^2.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache
from itertools import compress, count, repeat
from math import comb, gcd, lcm
from operator import add, mul, ne

from ._frozen import Frozen
from .series import LogSeries, RationalSeries, _push

SINGULAR_POINTS = (Fraction(0), Fraction(1, 36), Fraction(1, 4))

# the largest series order the exact routines accept; the work grows like a
# power of the order, so a larger request is refused before any of it starts
MAX_ORDER = 1000

# theta-polynomial coefficients (low degree first) of the x^0, x^1, x^2 parts
_Q = (
    (0, 0, 0, 1),              # theta^3
    (-6, -32, -60, -40),       # -2(2theta+1)(10theta^2+10theta+3)
    (108, 396, 432, 144),      # 36(theta+1)(2theta+1)(2theta+3)
)


class ToleranceNotMet(RuntimeError):
    """Numeric result failed its accuracy contract."""


class ThetaOperator(Frozen):
    """sum_j x^j Q_j(theta) with integer polynomial coefficients: ``terms``
    holds the pairs (j, coefficients of Q_j)."""

    __slots__ = ("terms",)


def pf_operator() -> ThetaOperator:
    return ThetaOperator(tuple((j, q) for j, q in enumerate(_Q)))


def apply_operator(op: ThetaOperator, s: LogSeries | RationalSeries):
    """Apply the operator exactly; LogSeries in, LogSeries out (and the same
    for plain series)."""
    wrapped = LogSeries([s]) if isinstance(s, RationalSeries) else s
    total = None
    for j, q in op.terms:
        cur = wrapped
        acc = cur.scale(q[0])
        for c in q[1:]:
            cur = cur.theta()
            acc = acc + cur.scale(c)
        acc = acc.shift(j)
        total = acc if total is None else total + acc
    if isinstance(s, RationalSeries):
        assert total.log_degree == 0
        return total.parts[0]
    return total


def _polyval(q: tuple[int, ...], n: int | complex) -> int | complex:
    acc = 0
    for c in reversed(q):
        acc = acc * n + c
    return acc


def _pderiv(p):
    return tuple(i * p[i] for i in range(1, len(p))) or (0,)


def _poly_mul(*ps) -> list[int]:
    """The product of int polynomials, low degree first."""
    out = [1]
    for p in ps:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_ORDER}")


def pi_series(order: int) -> RationalSeries:
    """The analytic period by the multinomial form (``_multinomial``), read
    from the stored series ``_PI_SUM``.  The coefficient of x^N does not
    depend on the order asked, so a prefix of the stored series equals a
    fresh computation at the lower order.  This oracle never reads the layer
    store that ``pi_series_by_recurrence`` reads, so the two stay
    independent routes."""
    global _PI_SUM
    _check_order(order)
    stored = _PI_SUM
    if stored.top < order:
        stored = _PI_SUM = _multinomial(order)
    return stored.truncate(order)


def _multinomial(order: int) -> RationalSeries:
    """The analytic period through x^order: coefficient of x^N is
    sum_{k+l+m=N} (2N)!/(k! l! m!)^2, with the sum over l collapsed by
    Vandermonde's identity, sum_l C(N-k, l)^2 = C(2(N-k), N-k).  The
    binomials C(N, k) are one row of Pascal's triangle, updated from the row
    before."""
    central = [comb(2 * j, j) for j in range(order + 1)]
    row = [1]
    out = []
    for n in range(order + 1):
        tot = sum(c * c * central[n - k] for k, c in enumerate(row))
        out.append(central[n] * tot)
        row = [1, *map(add, row, row[1:]), 1]
    return RationalSeries._from_ints(out)


def pi_series_by_recurrence(order: int) -> RationalSeries:
    """The same coefficients from the recurrence the theta table gives,
    N^3 a_N = -Q_1(N-1) a_{N-1} - Q_2(N-2) a_{N-2}, with a_0 = 1."""
    return _frobenius_layers(order, 1)[0]


# The coefficient numerators and the denominator of the log layers Pi, g1, g2
# through the highest order asked so far in this process.  They are extended
# in place, never beyond MAX_ORDER, and handed out as prefixes.
_LAYERS = [[[1], 1], [[0], 1], [[0], 1]]
# g1/Pi through the highest order asked so far, handed out the same way; it is
# replaced whole, so an interrupted extension leaves it intact
_SHIFT = RationalSeries._from_ints([0])
# x^2 {t, x} through the highest order asked so far, stored like _SHIFT; it
# starts as its constant term 1/2
_SCHWARZ = RationalSeries._from_ints([1], 2)
# the multinomial period (pi_series) through the highest order asked so far,
# stored like _SHIFT; it starts as its constant term 1
_PI_SUM = RationalSeries._from_ints([1])
# x(q) (mirror_map) through q^(N + 1) for the highest order N asked so far,
# stored like _SHIFT; it starts as its first term q
_X_OF_Q = RationalSeries._from_ints([1], 1, 1)


def _frobenius_layers(order: int, count: int = 3) -> list[RationalSeries]:
    """The first count of the layers Pi, g1, g2 through x^order."""
    _check_order(order)
    _extend_layers(order, count)
    return [RationalSeries._from_ints(nums[:order + 1], den) for nums, den in _LAYERS[:count]]


def _extend_layers(order: int, count: int) -> None:
    """Extend the first count stored layers through x^order.

    Layer g_m has b_0 = 1 for m = 0 and 0 above.  The solution
    sum_i C(m, i) g_(m-i) log^i x is annihilated when
    sum_i C(m, i) sum_j Q_j^(i)(N-j) [x^(N-j)] g_(m-i) = 0 for every N, and
    Q_0(N) = N^3 isolates b_N."""
    derivs = [_Q]
    for _ in range(1, count):
        derivs.append(tuple(_pderiv(q) for q in derivs[-1]))
    for m, layer in enumerate(_LAYERS[:count]):
        if len(layer[0]) > order:
            continue
        # extended on a copy, so an interrupted extension leaves the layer whole
        nums, den = list(layer[0]), layer[1]
        lower = _LAYERS[:m]
        low_den = lcm(*(d for _, d in lower))
        # (j, polynomial, numerators, factor): x^N collects polynomial(N-j)
        # [x^(N-j)] of a lower layer, whose numerators times factor lie over
        # low_den; the layer g_k below enters with C(m, k) Q_j^(m-k)
        terms = [(j, tuple(comb(m, k) * c for c in derivs[m - k][j]), g, low_den // d)
                 for k, (g, d) in enumerate(lower) for j in (0, 1, 2)]
        for n in range(len(nums), order + 1):
            own = sum(_polyval(_Q[j], n - j) * nums[n - j] for j in (1, 2) if j <= n)
            low = sum(_polyval(q, n - j) * g[n - j] * f for j, q, g, f in terms if j <= n)
            common = lcm(den, low_den)
            den = _push(nums, den, -own * (common // den) - low * (common // low_den),
                        n ** 3 * (common // den))
        layer[:] = nums, den


def frobenius_basis(order: int):
    """The three solutions at the maximally unipotent point x = 0:

        y0 = Pi,
        y1 = Pi log x + g1,          g1(0) = 0,
        y2 = Pi log^2 x + 2 g1 log x + g2,   g2(0) = 0,

    with g1, g2 pure power series produced by the recurrence with a log
    ansatz (all indices coincide at 0, so no new exponents appear).
    """
    if order < 4:
        raise ValueError("order must be at least 4")
    pi, g1, g2 = _frobenius_layers(order)
    return LogSeries([pi]), LogSeries([g1, pi]), LogSeries([g2, g1 * 2, pi])


# -- mirror map ---------------------------------------------------------------

class MirrorMap(Frozen):
    """The unipotent-normalized flat coordinate and its inverse:
    2 pi i t = log x + log_shift(x), and x expanded in q = exp(2 pi i t)."""

    __slots__ = ("log_shift", "x_of_q")


def _log_shift(order: int) -> RationalSeries:
    """g1/Pi through x^order, so that log x + g1/Pi is 2 pi i t."""
    global _SHIFT
    _check_order(order)
    shift = _SHIFT
    if shift.top < order:
        pi, g1 = _frobenius_layers(order, 2)
        shift = _SHIFT = g1 / pi
    return shift.truncate(order)


def _eta_quotient(top: int, sign: int) -> list[int]:
    """The coefficients of q^0 .. q^top of P^sign, P = (E(q^2) E(q^6) /
    (E(q) E(q^3)))^6 and E(q) = prod_m (1 - q^m).  A product
    F = prod_m (1 - q^m)^(c_m) has q F'/F = sum_n b_n q^n with
    b_n = -sum_(d | n) d c_d, so n f_n = sum_(k=1..n) b_k f_(n-k)."""
    # P = prod over odd m of (1 - q^m)^-6 (1 - q^(3m))^-6, so c_m is 0 for
    # even m and -6 (1 + [3 | m]) for odd m
    b = [0] * (top + 1)
    for d in range(1, top + 1, 2):
        for n in range(d, top + 1, d):
            b[n] += 6 * sign * d * (1 + (d % 3 == 0))
    f = [1]
    for n in range(1, top + 1):
        f.append(sum(map(mul, b[1:n + 1], reversed(f))) // n)
    return f


def mirror_map(order: int) -> MirrorMap:
    """Exact mirror map data through the given order; x_of_q = q + O(q^2),
    through q^(order + 1).  Both parts are read from stored series
    (``_log_shift`` and ``_X_OF_Q``): x through q^(N + 1) depends only on the
    eta quotients through q^N, so a prefix of the stored x(q) equals a fresh
    ``_x_of_q`` at the lower order."""
    global _X_OF_Q
    if order < 4:
        raise ValueError("order must be at least 4")
    h = _log_shift(order)
    stored = _X_OF_Q
    if stored.top < order + 1:
        stored = _X_OF_Q = _x_of_q(order)
    return MirrorMap(log_shift=h, x_of_q=stored.truncate(order + 1))


def _x_of_q(order: int) -> RationalSeries:
    """x(q) through q^(order + 1).  x is a Hauptmodul of Gamma_0(6)+
    (Lian-Yau, hep-th/9507151): with the eta quotient s = q P of
    ``_eta_quotient``, x = s / (1 + 20 s + 64 s^2), that is
    q / (1/P + 20 q + 64 q^2 P)."""
    p, u = _eta_quotient(order, 1), _eta_quotient(order, -1)
    u[1] += 20
    for k in range(2, order + 1):
        u[k] += 64 * p[k - 2]
    return RationalSeries._from_ints([1] + [0] * order, 1, 1) / RationalSeries._from_ints(u)


# -- Schwarzian and standard form ---------------------------------------------

class SeriesCheck(Frozen):
    __slots__ = ("ok", "order",
                 "first_mismatch")   # None, or (power, got str, expected str)
    _defaults = {"first_mismatch": None}


_SCHWARZIAN_NUMERATOR = (1, -52, 1500, -6048, 15552)
_DISC = tuple(q[-1] for q in _Q)   # the theta^3 column: (1 - 36x)(1 - 4x)
_TWICE_DISC_SQ = tuple(_poly_mul((2,), _DISC, _DISC))   # 2 disc^2, low degree first

# z = 48x/(12x+1) sends the singular points (0, 1/36, 1/4, oo) to (0, 1, 3, 4)
_STANDARD_POINTS = (0, 1, 3, 4)
_STANDARD_ALPHA = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
_STANDARD_BETA = (Fraction(13, 24), Fraction(-3, 16), Fraction(1, 48), Fraction(-3, 8))


def _theta_t(order: int) -> RationalSeries:
    """(2 pi i) theta t = 1 + theta(g1/Pi) through x^order, theta = x d/dx;
    the constant 2 pi i drops out of every Schwarzian."""
    return _log_shift(order).theta() + 1


def _schwarzian_of(dt: RationalSeries) -> RationalSeries:
    """x^2 {t, x} from dt = theta t.  With s = log x the chain rule gives
    {t, x} = {t, s}/x^2 + {s, x}, and {s, x} = 1/(2x^2), so
    x^2 {t, x} = {t, s} + 1/2 = theta w - w^2/2 + 1/2, w = theta^2 t / theta t."""
    w = dt.theta() / dt
    return w.theta() - w * w * Fraction(1, 2) + Fraction(1, 2)


def _schwarzian(order: int) -> RationalSeries:
    """x^2 {t, x} through x^order, read from the stored series.  Its
    coefficients through x^N depend only on g1/Pi through x^N, so a prefix of
    the stored series equals a fresh computation at the lower order."""
    global _SCHWARZ
    _check_order(order)
    stored = _SCHWARZ
    if stored.top < order:
        stored = _SCHWARZ = _schwarzian_of(_theta_t(order))
    return stored.truncate(order)


def _compare(lhs: RationalSeries, nums, den: int, order: int) -> SeriesCheck:
    """lhs against the exact coefficients nums[k] / den, k = 0 .. order, with
    nums read as zero past its end.  One lazy pass cross-multiplies the int
    numerators of lhs with nums and stops at the first difference; Fractions
    are built only to report it."""
    lhs.coeff(order)   # refuses an order past the truncation of lhs
    got = lhs._nums_from(0, order)
    want = [*nums[:order + 1], *repeat(0, order + 1 - len(nums))]
    differs = map(ne, map(mul, got, repeat(den)), map(mul, want, repeat(lhs.den)))
    k = next(compress(count(), differs), None)
    if k is None:
        return SeriesCheck(True, order)
    return SeriesCheck(False, order,
                       (k, str(Fraction(got[k], lhs.den)), str(Fraction(want[k], den))))


def _times_poly(s: RationalSeries, p, top: int) -> RationalSeries:
    """s p through x^top, for a power series s and an int polynomial p (low
    degree first): one linear pass over the numerators of s per nonzero
    coefficient of p."""
    nums = s._nums_from(0, top)
    out = [0] * (top + 1)
    for j, c in enumerate(p[:top + 1]):
        if c:
            out[j:] = map(add, out[j:], [c * x for x in nums[:top + 1 - j]])
    return RationalSeries._from_ints(out, s.den)


def schwarzian_check(order: int) -> SeriesCheck:
    """Exact comparison of {t,x} * 2x^2 (1-36x)^2 (1-4x)^2 with the quartic
    1 - 52x + 1500x^2 - 6048x^3 + 15552x^4, through the given order, with
    x^2 {t,x} read from the stored series (``_schwarzian``)."""
    if order < 8:
        raise ValueError("order must be at least 8")
    lhs = _times_poly(_schwarzian(order), _TWICE_DISC_SQ, order)
    return _compare(lhs, _SCHWARZIAN_NUMERATOR, 1, order)


def _mirror_map_check(x: RationalSeries, order: int) -> SeriesCheck:
    """The Schwarzian equation in q, a second route to x(q): with theta = q d/dq
    and w = theta^2 x / theta x, x^2 {t, x} = -(theta w - w^2/2) (x / theta x)^2,
    so 2 disc(x)^2 (theta w - w^2/2) + (theta x / x)^2 quartic(x) = 0 through
    q^order, with disc = _DISC and quartic = _SCHWARZIAN_NUMERATOR in x."""
    dx = x.theta()
    w, r = dx.theta() / dx, dx / x
    disc, quartic = x * 0, x * 0
    for c in reversed(_DISC):
        disc = disc * x + c
    for c in reversed(_SCHWARZIAN_NUMERATOR):
        quartic = quartic * x + c
    lhs = disc * disc * (w.theta() - w * w * Fraction(1, 2)) * 2 + r * r * quartic
    return _compare(lhs, (), 1, order)


@cache
def _standard_in_x(points, alpha, beta) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Int polynomials N, D, low degree first, with N/D = (1+12x)^-2 R(z(x)):
    the standard form's right-hand side
    R(z) = sum_i [c_i z^2/(z-a_i)^2 + beta_i z^2/(z-a_i)], c_i = (1-alpha_i^2)/2,
    in the x chart z = 48x/(1+12x).

    There z - a = L_a/(1+12x) with L_a = (48-12a)x - a, and
    z^2 = 48^2 x^2/(1+12x)^2.  Over D = m (1+12x)^3 prod_(a_j != 0) L_(a_j)^2,
    with m the lcm of the denominators of the c_i and beta_i, the point a_i adds
    m (c_i (1+12x) + beta_i L_(a_i)) prod_(j != i, a_j != 0) L_(a_j)^2 to N,
    times 48^2 x^2 when a_i != 0.  Both are divided by the gcd of all their
    coefficients and lose their trailing zeros (L_4 is the constant -4)."""
    consts = [(Fraction(1 - e * e, 2), Fraction(b)) for e, b in zip(alpha, beta)]
    m = lcm(*(x.denominator for pair in consts for x in pair))
    lins = [(-a, 48 - 12 * a) for a in points]
    squares = {j: _poly_mul(lin, lin) for j, lin in enumerate(lins) if points[j]}
    den = _poly_mul((m,), (1, 12), (1, 12), (1, 12), *squares.values())
    num = [0] * len(den)
    for i, (a, lin, (c, b)) in enumerate(zip(points, lins, consts)):
        mc, mb = int(m * c), int(m * b)
        term = _poly_mul((mc + mb * lin[0], 12 * mc + mb * lin[1]), (0, 0, 48 * 48) if a else (1,),
                         *(sq for j, sq in squares.items() if j != i))
        for k, v in enumerate(term):
            num[k] += v
    g = gcd(*num, *den)
    num, den = [v // g for v in num], [v // g for v in den]
    for p in (num, den):
        while len(p) > 1 and not p[-1]:
            p.pop()
    return tuple(num), tuple(den)


def standard_form_check(order: int) -> SeriesCheck:
    """The standard form z^2 {t,z} = R(z) at the singular points (0, 1, 3, 4)
    of the chart z = 48x/(12x+1), checked through the given order in the x
    chart: R, read from _STANDARD_POINTS, _STANDARD_ALPHA and _STANDARD_BETA,
    is carried back as N(x)/D(x) by ``_standard_in_x``.  The chart is Mobius,
    so {z,x} = 0, and with dz/dx = 48/(1+12x)^2 the cocycle gives
    z^2 {t,z} = (1+12x)^2 x^2 {t,x}.  The stored x^2 {t,x} (``_schwarzian``)
    times D is compared with N.  D(0) != 0, so x^2 {t,x} D - N vanishes through
    x^order exactly when x^2 {t,x} - N/D does; and since z(0) = 0, z'(0) = 48
    and (1+12x)^-2 is a unit, that holds exactly when z^2 {t,z} - R(z) vanishes
    through z^order, with the same first nonzero power in both charts."""
    if order < 8:
        raise ValueError("order must be at least 8")
    nums, den = _standard_in_x(_STANDARD_POINTS, _STANDARD_ALPHA, _STANDARD_BETA)
    return _compare(_times_poly(_schwarzian(order), den, order), nums, 1, order)


# -- theta form to d/dx form ---------------------------------------------------

# Stirling numbers of the second kind: theta^d = sum_k S(d, k) x^k D^k
_STIRLING2 = ((1,), (0, 1), (0, 1, 1), (0, 1, 3, 1))


@cache
def dform_coefficients() -> tuple[tuple[int, ...], ...]:
    """Polynomial coefficients (p0, p1, p2, p3) with the operator written as
    p3(x) y''' + p2(x) y'' + p1(x) y' + p0(x) y; the term c x^j theta^d of
    the theta form adds c S(d, k) to the x^(j+k) coefficient of p_k."""
    out = [[0] * (len(_Q) + k) for k in range(4)]
    for j, q in enumerate(_Q):
        for d, c in enumerate(q):
            for k, s in enumerate(_STIRLING2[d]):
                out[k][j + k] += c * s
    return tuple(map(tuple, out))


# -- numeric monodromy ----------------------------------------------------------
#
# The solutions are continued by local power series on plain complex floats
# (Mezzarobba & Salvy, arXiv:0904.2452; van der Hoeven, TCS 1999): at each
# step centre c the d/dx form is re-centred at c, and its recurrence gives the
# Taylor coefficients of a solution from its state (y, y', y'') at c.

# a step reaches at most this fraction of the distance from its centre to the
# nearest singular point, so the terms of its series shrink like 3^-n
_STEP_FRACTION = 1 / 3
# a step's series stops once two consecutive terms of every solution are this
# small against the solution's state; one that runs to _MAX_TERMS fails
_TERM_EPS = 1e-17
_MAX_TERMS = 200
# each circle is walked as an inscribed regular polygon; 2 sin(pi/19) < 1/3, so
# a chord of a circle of radius r around a singular point spans one step
_CHORDS = 19
# m(m-1)...(m-k+1) as a polynomial in m, low degree first, for k = 0 .. 3
_FALLING = ((1,), (0, 1), (0, -1, 1), (0, 2, -3, 1))
# the largest Frobenius order whose coefficients, times k(k-1), stay finite
# floats: they grow like 36^k and pass 1e308 at k = 198
_MAX_FLOAT_ORDER = 197
_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
# the singular points as floats, read by every step of solve_ivp
_SINGULAR_FLOATS = tuple(float(p) for p in SINGULAR_POINTS)


class MonodromyResult(Frozen):
    """Monodromy in the Frobenius basis (y0, y1, y2): the continued solution
    satisfies new_y_i = sum_j matrix[i][j] y_j."""

    __slots__ = ("loop", "matrix", "residual", "det", "trace", "order2_residual")


def _frobenius_initial_matrix(order: int, x0: float):
    """Rows (y_i, y_i', y_i'') at the real basepoint, for the Frobenius basis.
    One Horner pass over the exact coefficients c_k = num/den of each part
    gives f, f' and f''; the int true divisions num/den, k*num/den and
    k*(k-1)*num/den are correctly rounded, so they equal float() of the
    Fractions c_k, k c_k and k(k-1) c_k."""
    lx = math.log(x0)
    rows = []
    for ls in frobenius_basis(order):
        y = yp = ypp = 0.0
        for j, part in enumerate(ls.parts):
            f0 = f1 = f2 = 0.0
            den = part.den
            for k in range(len(part.nums) - 1, -1, -1):
                num = part.nums[k]
                f0 = f0 * x0 + num / den
                if k >= 1:
                    f1 = f1 * x0 + k * num / den
                if k >= 2:
                    f2 = f2 * x0 + k * (k - 1) * num / den
            y += f0 * lx ** j
            yp += f1 * lx ** j + (j * f0 * lx ** (j - 1) / x0 if j >= 1 else 0.0)
            ypp += f2 * lx ** j
            if j >= 1:
                ypp += 2 * j * f1 * lx ** (j - 1) / x0 - j * f0 * lx ** (j - 1) / x0 ** 2
            if j >= 2:
                ypp += j * (j - 1) * f0 * lx ** (j - 2) / x0 ** 2
        rows.append((y, yp, ypp))
    return rows


def _taylor_shift(p, c: complex) -> list:
    """Coefficients of p(c + u) in u, low degree first."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += c * q[j + 1]
    return q


def _step_recurrence(c: complex, h: complex) -> list[list[complex]]:
    """The operator's recurrence at the centre c, on the scaled Taylor
    coefficients b_n = a_n h^n of a solution y(c + u) = sum a_n u^n.

    With P_k(u) = p_k(c + u) of degree 2 + k, the coefficient of u^N in
    sum_k P_k y^(k) is sum_(s=-2..3) C_s(N+s) a_(N+s), where
    C_s(m) = sum_k [u^(k-s)]P_k m(m-1)..(m-k+1) and C_3(m) = p3(c) m(m-1)(m-2).
    So b_n = sum_(s=-2..2) E_s(n-3+s) b_(n-3+s) / (n(n-1)(n-2)) with
    E_s = -C_s h^(3-s) / p3(c); the polynomials E_(-2) .. E_2 are returned,
    low degree first."""
    shifted = [_taylor_shift(p, c) for p in dform_coefficients()]
    out = []
    for s in range(-2, 3):
        e = [0j] * 4
        for k in range(max(s, 0), 4):
            for d, f in enumerate(_FALLING[k]):
                e[d] += shifted[k][k - s] * f
        scale = -h ** (3 - s) / shifted[3][0]
        out.append([scale * v for v in e])
    return out


def _taylor_step(states, c: complex, h: complex):
    """Carry the states (y, y', y'') of a fundamental system, exactly three
    solutions, from c to c + h; returns the three new states and the number
    of Taylor terms summed per solution.  Any other number of states raises
    ValueError.

    b_n = w_0 b_(n-5) + .. + w_4 b_(n-1) for n >= 3, with the weights
    w_s = E_s(n-5+s) / (n(n-1)(n-2)) of ``_step_recurrence`` in Horner form;
    each solution keeps its last five terms at hand and all of them for the
    closing sums, which run from the top term down.

    The stopping rule is a heuristic, not a bound: the series are cut once
    two consecutive terms b_n of every solution fall below _TERM_EPS times
    the largest of its b_0, b_1, b_2, as the later terms shrink about
    geometrically when |h| is a third of the radius of convergence."""
    (y0, yp0, ypp0), (y1, yp1, ypp1), (y2, yp2, ypp2) = states
    ((r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23),
     (r30, r31, r32, r33), (r40, r41, r42, r43)) = _step_recurrence(c, h)
    # the last five terms b_(n-5) .. b_(n-1) of each solution, after two
    # zeros that stand for b_(-2), b_(-1)
    a0, a1, a2, a3, a4 = 0j, 0j, y0, yp0 * h, ypp0 * h * h / 2
    b0, b1, b2, b3, b4 = 0j, 0j, y1, yp1 * h, ypp1 * h * h / 2
    d0, d1, d2, d3, d4 = 0j, 0j, y2, yp2 * h, ypp2 * h * h / 2
    za, zb, zd = [a2, a3, a4], [b2, b3, b4], [d2, d3, d4]
    la = _TERM_EPS * max(abs(a2), abs(a3), abs(a4))
    lb = _TERM_EPS * max(abs(b2), abs(b3), abs(b4))
    ld = _TERM_EPS * max(abs(d2), abs(d3), abs(d4))
    quiet = False
    for n in range(3, _MAX_TERMS):
        inv = 1 / (n * (n - 1) * (n - 2))
        m = n - 5
        w0 = (((r03 * m + r02) * m + r01) * m + r00) * inv
        m += 1
        w1 = (((r13 * m + r12) * m + r11) * m + r10) * inv
        m += 1
        w2 = (((r23 * m + r22) * m + r21) * m + r20) * inv
        m += 1
        w3 = (((r33 * m + r32) * m + r31) * m + r30) * inv
        m += 1
        w4 = (((r43 * m + r42) * m + r41) * m + r40) * inv
        ta = w0 * a0 + w1 * a1 + w2 * a2 + w3 * a3 + w4 * a4
        tb = w0 * b0 + w1 * b1 + w2 * b2 + w3 * b3 + w4 * b4
        td = w0 * d0 + w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4
        za.append(ta)
        zb.append(tb)
        zd.append(td)
        a0, a1, a2, a3, a4 = a1, a2, a3, a4, ta
        b0, b1, b2, b3, b4 = b1, b2, b3, b4, tb
        d0, d1, d2, d3, d4 = d1, d2, d3, d4, td
        if abs(ta) <= la and abs(tb) <= lb and abs(td) <= ld:
            if quiet:
                break
            quiet = True
        else:
            quiet = False
    else:
        raise ToleranceNotMet(f"Taylor series at {c:.6g} did not converge "
                              f"within {_MAX_TERMS} terms")
    return (_closing_sums(za, h), _closing_sums(zb, h), _closing_sums(zd, h)), len(za)


def _closing_sums(b, h: complex):
    """The state (y, y', y'') at c + h from the scaled terms b_0 .. b_n,
    summed from the top term down."""
    y = yp = ypp = 0j
    for k in range(len(b) - 1, -1, -1):
        t = b[k]
        y += t
        yp += k * t
        ypp += k * (k - 1) * t
    return y, yp / h, ypp / (h * h)


class LegSolution(Frozen):
    __slots__ = ("states",   # the three states (y, y', y'') at the end of the leg
                 "nfev")     # Taylor terms summed, per solution


def solve_ivp(leg, states) -> LegSolution:
    """Carry the states (y, y', y'') of three solutions along a polygonal
    leg, given by its vertices.  Each step reaches at most _STEP_FRACTION of
    the distance from its centre to the nearest singular point.  The
    transport calls this through the module-level name, so a replacement
    bound here from outside is what runs."""
    terms = 0
    c = leg[0]
    for z in leg[1:]:
        while c != z:
            reach = _STEP_FRACTION * min(abs(c - p) for p in _SINGULAR_FLOATS)
            if abs(z - c) <= reach:
                h, nxt = z - c, z
            else:
                h = (z - c) * (reach / abs(z - c))
                nxt = c + h
            states, n = _taylor_step(states, c, h)
            terms += n
            c = nxt
    return LegSolution(states, terms)


def _circle(center: complex, radius: float, start_angle: float = math.pi):
    """The chord polygon of the counterclockwise circle, starting and ending
    at center + radius*exp(i*start_angle)."""
    return tuple(center + radius * cmath.exp(1j * (start_angle + 2 * math.pi * k / _CHORDS))
                 for k in range(_CHORDS + 1))


def _transport(legs, states=_IDENTITY):
    """The states (y, y', y'') of three solutions carried along the legs.
    From the identity (the unit states), row j of the result is column j of
    the fundamental matrix of the companion system."""
    for leg in legs:
        states = solve_ivp(leg, states).states
    return states


def _loop_legs(point: Fraction, basepoint: float):
    """The loop as polygonal legs, each given by its vertices."""
    if point == Fraction(0):
        return [_circle(0.0, basepoint, start_angle=0.0)]
    if point == Fraction(1, 36):
        c, r = 1 / 36, 1 / 72   # half the distance to the nearest singular point
        return [(basepoint, c - r), _circle(c, r), (c - r, basepoint)]
    if point == Fraction(1, 4):
        c, r = 1 / 4, 1 / 9
        lift = 0.05j            # detour above the singular point at 1/36
        up = (basepoint, basepoint + lift, c - r + lift, c - r)
        return [up, _circle(c, r), up[::-1]]
    raise ValueError(f"{point} is not a finite singular point of the equation")


def _mul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse3(m):
    """The adjugate over the determinant."""
    d = _det3(m)
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) / d
             for j in range(3)] for i in range(3)]


def _max_abs_difference(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _analytic_unipotent():
    two_pi_i = 2j * math.pi
    return [[1, 0, 0], [two_pi_i, 1, 0], [two_pi_i ** 2, 2 * two_pi_i, 1]]


def numeric_monodromy(point, basepoint=Fraction(1, 100), tol: float = 1e-6) -> MonodromyResult:
    """Monodromy matrix in the Frobenius basis for a counterclockwise loop
    around one of 0, 1/36, 1/4, based at a real point inside (0, 1/36).

    The loop around 0 is returned analytically from the log structure
    (log x -> log x + 2 pi i); its numerical transport doubles as the
    integrator calibration and must agree within ``tol``.  For the order-two
    loops the residual reported is the defect of M^2 = I, which must also
    meet ``tol``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    point = Fraction(point)
    if point not in SINGULAR_POINTS:
        snapped = point.limit_denominator(100)   # tolerate float inputs like 1/36
        if snapped in SINGULAR_POINTS and abs(snapped - point) < Fraction(1, 10 ** 9):
            point = snapped
        else:
            raise ValueError(f"point must be one of {SINGULAR_POINTS}")
    bf = float(basepoint)
    if not 0 < bf < 1 / 36:
        raise ValueError("basepoint must lie in (0, 1/36)")
    order = max(48, int(20 / -math.log10(36 * bf)) + 14)
    if order > _MAX_FLOAT_ORDER:
        raise ValueError("basepoint too close to the convergence boundary at 1/36")
    w = _frobenius_initial_matrix(order, bf)
    w_inv = _inverse3(w)

    def loop_matrix(legs):
        # row i of the transported w is the state of the continued y_i,
        # sum_j M_ij (y_j, y_j', y_j''), so the transport is M w
        return _mul3(_transport(legs, w), w_inv)

    if point == Fraction(0):
        m = _analytic_unipotent()
        residual = _max_abs_difference(loop_matrix(_loop_legs(point, bf)), m)
        if residual > tol:
            raise ToleranceNotMet(
                f"calibration loop around 0 off by {residual:.3e} > {tol:.3e}")
        order2 = None
    else:
        m = loop_matrix(_loop_legs(point, bf))
        order2 = _max_abs_difference(_mul3(m, m), _IDENTITY)
        residual = order2
        if order2 > tol:
            raise ToleranceNotMet(
                f"loop around {point} is not an involution within {tol:.3e} "
                f"(defect {order2:.3e})")
    return MonodromyResult(
        loop=str(point),
        matrix=tuple(tuple(complex(v) for v in row) for row in m),
        residual=residual,
        det=complex(_det3(m)),
        trace=complex(m[0][0] + m[1][1] + m[2][2]),
        order2_residual=order2,
    )
