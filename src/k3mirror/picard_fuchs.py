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
from math import comb, lcm
from operator import add

from ._frozen import Frozen
from .series import LogSeries, RationalSeries, _push, poly

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


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_ORDER}")


def pi_series(order: int) -> RationalSeries:
    """The analytic period: coefficient of x^N is
    sum_{k+l+m=N} (2N)!/(k! l! m!)^2, computed by the multinomial form with
    the sum over l collapsed by Vandermonde's identity,
    sum_l C(N-k, l)^2 = C(2(N-k), N-k).  The binomials C(N, k) are one row
    of Pascal's triangle, updated from the row before."""
    _check_order(order)
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
    pi, g1 = _frobenius_layers(order, 2)
    return g1 / pi


def mirror_map(order: int) -> MirrorMap:
    """Exact mirror map data through the given order; x_of_q = q + O(q^2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    h = _log_shift(order)
    q_of_x = h.exp().shift(1)          # q = x exp(g1/Pi)
    x_of_q = q_of_x.revert()
    return MirrorMap(log_shift=h, x_of_q=x_of_q)


# -- Schwarzian and standard form ---------------------------------------------

class SeriesCheck(Frozen):
    __slots__ = ("ok", "order",
                 "first_mismatch")   # None, or (power, got str, expected str)
    _defaults = {"first_mismatch": None}


_SCHWARZIAN_NUMERATOR = (1, -52, 1500, -6048, 15552)

# z = 48x/(12x+1) sends the singular points (0, 1/36, 1/4, oo) to (0, 1, 3, 4)
_STANDARD_POINTS = (0, 1, 3, 4)
_STANDARD_ALPHA = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
_STANDARD_BETA = (Fraction(13, 24), Fraction(-3, 16), Fraction(1, 48), Fraction(-3, 8))


def z_of_x(x: Fraction | None) -> Fraction | None:
    """The chart change z = 48x/(12x+1); None stands for the point at infinity."""
    if x is None:
        return Fraction(4)
    return Fraction(48) * x / (12 * x + 1)


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


def _compare(lhs: RationalSeries, want, order: int) -> SeriesCheck:
    """lhs against the exact coefficients want[0 .. order]."""
    for k in range(order + 1):
        if lhs.coeff(k) != want[k]:
            return SeriesCheck(False, order, (k, str(lhs.coeff(k)), str(want[k])))
    return SeriesCheck(True, order)


def schwarzian_check(order: int) -> SeriesCheck:
    """Exact comparison of {t,x} * 2x^2 (1-36x)^2 (1-4x)^2 with the quartic
    1 - 52x + 1500x^2 - 6048x^3 + 15552x^4, through the given order."""
    if order < 8:
        raise ValueError("order must be at least 8")
    s = _schwarzian_of(_theta_t(order))
    disc = poly((1, -40, 144), top=order)     # (1 - 36x)(1 - 4x)
    return _compare(s * disc * disc * 2, poly(_SCHWARZIAN_NUMERATOR, top=order).coeffs, order)


def _standard_chart(s: RationalSeries, top: int) -> RationalSeries:
    """s(x(z)) / (1 - z/4)^2 through z^top, for a power series s and the chart
    x(z) = (z/48)/(1 - z/4).  As x^k / (1 - z/4)^2 = (z/48)^k (1 - z/4)^-(k+2),
    the coefficient of z^m is sum_k s_k C(m+1, k+1) / (12^k 4^m); the sum runs
    on the numerators of s over one common denominator."""
    nums = [c * 12 ** (top - k) for k, c in enumerate(s._nums_from(0, top))]
    return RationalSeries._from_ints(
        [sum(nums[k] * comb(m + 1, k + 1) for k in range(m + 1)) * 4 ** (top - m)
         for m in range(top + 1)], s.den * 12 ** top * 4 ** top)


def standard_form_check(order: int) -> SeriesCheck:
    """Expand {t,z} around z = 0 in the chart z = 48x/(12x+1) and compare with
    sum_i [ (1/2)(1-alpha_i^2)/(z-a_i)^2 + beta_i/(z-a_i) ] for the points
    (0,1,3,4); the chart change is a Mobius map, so {z,x} contributes zero to
    the Schwarzian cocycle."""
    if order < 8:
        raise ValueError("order must be at least 8")
    # z^2 {t,z} = (z/x)^2 (dx/dz)^2 x^2 {t,x}, and (z/x)(dx/dz) = 1/(1 - z/4)
    lhs = _standard_chart(_schwarzian_of(_theta_t(order)), order)
    rhs = [Fraction(0)] * (order + 1)
    rhs[0] += Fraction(1, 2) * (1 - _STANDARD_ALPHA[0] ** 2)
    rhs[1] += _STANDARD_BETA[0]
    for i in (1, 2, 3):
        ai = _STANDARD_POINTS[i]
        c2 = Fraction(1, 2) * (1 - _STANDARD_ALPHA[i] ** 2)
        for k in range(order - 1):
            rhs[k + 2] += c2 * Fraction(k + 1, ai ** (k + 2))
            rhs[k + 2] -= _STANDARD_BETA[i] * Fraction(1, ai ** (k + 1))
    return _compare(lhs, rhs, order)


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
    """Carry the states (y, y', y'') of solutions from c to c + h; returns
    the new states and the number of Taylor terms summed.

    The stopping rule is a heuristic, not a bound: the series of a solution
    is cut once two consecutive terms b_n fall below _TERM_EPS times the
    largest of its b_0, b_1, b_2, as the later terms shrink about
    geometrically when |h| is a third of the radius of convergence."""
    rec = _step_recurrence(c, h)
    # each solution's b_0 .. b_n, after two zeros that stand for b_(-2), b_(-1)
    series = [[0j, 0j, y, yp * h, ypp * h * h / 2] for y, yp, ypp in states]
    limits = [_TERM_EPS * max(abs(b[2]), abs(b[3]), abs(b[4])) for b in series]
    quiet = 0
    for n in range(3, _MAX_TERMS):
        inv = 1 / (n * (n - 1) * (n - 2))
        w0, w1, w2, w3, w4 = [(((e[3] * m + e[2]) * m + e[1]) * m + e[0]) * inv
                              for m, e in zip(range(n - 5, n), rec)]
        small = True
        for b, limit in zip(series, limits):
            # b[n-3] is b_(n-5)
            t = w0 * b[n - 3] + w1 * b[n - 2] + w2 * b[n - 1] + w3 * b[n] + w4 * b[n + 1]
            b.append(t)
            small = small and abs(t) <= limit
        quiet = quiet + 1 if small else 0
        if quiet == 2:
            break
    else:
        raise ToleranceNotMet(f"Taylor series at {c:.6g} did not converge "
                              f"within {_MAX_TERMS} terms")
    out = []
    for b in series:
        y = yp = ypp = 0j
        for k in range(len(b) - 1, 1, -1):
            y += b[k]
            yp += (k - 2) * b[k]
            ypp += (k - 2) * (k - 3) * b[k]
        out.append((y, yp / h, ypp / (h * h)))
    return out, len(b) - 2


class LegSolution(Frozen):
    __slots__ = ("states",   # the states (y, y', y'') at the end of the leg
                 "nfev")     # Taylor terms summed, per solution


def solve_ivp(leg, states) -> LegSolution:
    """Carry the states (y, y', y'') of solutions along a polygonal leg, given
    by its vertices.  Each step reaches at most _STEP_FRACTION of the distance
    from its centre to the nearest singular point.  The transport calls this
    through the module-level name, so a replacement bound here from outside
    is what runs."""
    terms = 0
    c = leg[0]
    for z in leg[1:]:
        while c != z:
            reach = _STEP_FRACTION * min(abs(c - float(p)) for p in SINGULAR_POINTS)
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
    """The states (y, y', y'') of solutions carried along the legs.  From the
    identity (the unit states), row j of the result is column j of the
    fundamental matrix of the companion system."""
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
