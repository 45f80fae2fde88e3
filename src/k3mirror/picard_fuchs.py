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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .series import LogSeries, RationalSeries, poly

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


@dataclass(frozen=True)
class ThetaOperator:
    """sum_j x^j Q_j(theta) with integer polynomial coefficients."""

    terms: tuple[tuple[int, tuple[int, ...]], ...]


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


def _check_order_cap(order: int) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_ORDER}")


def pi_series(order: int) -> RationalSeries:
    """The analytic period: coefficient of x^N is
    sum_{k+l+m=N} (2N)!/(k! l! m!)^2, computed by the multinomial form with
    the sum over l collapsed by Vandermonde's identity,
    sum_l C(N-k, l)^2 = C(2(N-k), N-k)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_order_cap(order)
    central = [comb(2 * j, j) for j in range(order + 1)]
    out = []
    for n in range(order + 1):
        tot = sum(comb(n, k) ** 2 * central[n - k] for k in range(n + 1))
        out.append(central[n] * tot)
    return RationalSeries(out)


def pi_series_by_recurrence(order: int) -> RationalSeries:
    """The same coefficients from the recurrence the theta table gives,
    N^3 a_N = -Q_1(N-1) a_{N-1} - Q_2(N-2) a_{N-2}, with a_0 = 1."""
    _check_order_cap(order)
    return RationalSeries(_recurrence(order, 1))


def _recurrence(order: int, start: int, lower=()) -> list[Fraction]:
    """Coefficients b_0 = start, b_1 .. b_order of the log layer g_m, where
    lower = (g_0, .., g_(m-1)) holds the coefficients of the layers below.

    The solution sum_i C(m, i) g_(m-i) log^i x is annihilated when
    sum_i C(m, i) sum_j Q_j^(i)(N-j) [x^(N-j)] g_(m-i) = 0 for every N, and
    Q_0(N) = N^3 isolates b_N.  No order cap here: the Schwarzian checks
    expand t' four orders past the order asked for, so their working order
    may exceed MAX_ORDER."""
    m = len(lower)
    derivs = [_Q]
    for _ in range(m):
        derivs.append(tuple(_pderiv(q) for q in derivs[-1]))
    b = [Fraction(start)]
    # (j, polynomial, layer): x^N collects polynomial(N-j) [x^(N-j)] layer;
    # the layer g_k below enters with C(m, k) Q_j^(m-k)
    terms = [(j, _Q[j], b) for j in (1, 2)]
    terms += [(j, tuple(comb(m, k) * c for c in derivs[m - k][j]), g)
              for k, g in enumerate(lower) for j in (0, 1, 2)]
    for n in range(1, order + 1):
        # the sum runs on an integer numerator over a common denominator
        num, den = 0, 1
        for j, q, g in terms:
            if j <= n:
                x = g[n - j]
                common = lcm(den, x.denominator)
                num *= common // den
                num += _polyval(q, n - j) * x.numerator * (common // x.denominator)
                den = common
        b.append(Fraction(num, -den * n ** 3))
    return b


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
    _check_order_cap(order)
    a = _recurrence(order, 1)
    b = _recurrence(order, 0, (a,))
    c = _recurrence(order, 0, (a, b))
    pi, g1, g2 = RationalSeries(a), RationalSeries(b), RationalSeries(c)
    return LogSeries([pi]), LogSeries([g1, pi]), LogSeries([g2, g1 * 2, pi])


# -- mirror map ---------------------------------------------------------------

@dataclass(frozen=True)
class MirrorMap:
    """The unipotent-normalized flat coordinate and its inverse:
    2 pi i t = log x + log_shift(x), and x expanded in q = exp(2 pi i t)."""

    log_shift: RationalSeries
    x_of_q: RationalSeries


def _log_shift(order: int) -> RationalSeries:
    """g1/Pi through x^order, so that log x + g1/Pi is 2 pi i t."""
    a = _recurrence(order, 1)
    return RationalSeries(_recurrence(order, 0, (a,))) / RationalSeries(a)


def mirror_map(order: int) -> MirrorMap:
    """Exact mirror map data through the given order; x_of_q = q + O(q^2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    _check_order_cap(order)
    h = _log_shift(order)
    q_of_x = h.exp().shift(1)          # q = x exp(g1/Pi)
    x_of_q = q_of_x.revert()
    return MirrorMap(log_shift=h, x_of_q=x_of_q)


# -- Schwarzian and standard form ---------------------------------------------

@dataclass(frozen=True)
class SeriesCheck:
    ok: bool
    order: int
    first_mismatch: tuple[int, str, str] | None = None


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


def _t_prime(order: int) -> RationalSeries:
    """(2 pi i) t' = 1/x + (g1/Pi)' through x^(order-1), as an exact Laurent
    series; the constant 2 pi i drops out of every Schwarzian."""
    inv_x = RationalSeries([1] + [0] * order, -1)
    return inv_x + _log_shift(order).deriv()


def _schwarzian_of(tp: RationalSeries) -> RationalSeries:
    """{t, x} = t'''/t' - (3/2)(t''/t')^2 from a Laurent t'."""
    tpp = tp.deriv()
    tppp = tpp.deriv()
    s1 = tppp / tp
    s2 = tpp / tp
    return s1 - (s2 * s2) * Fraction(3, 2)


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
    _check_order_cap(order)
    # {t,x} is known through x^(order-2); the weight's exact factor x^2 lifts
    # the product to x^order
    schw = _schwarzian_of(_t_prime(order))
    disc =poly((1, -40, 144), top=schw.top + 2)     # (1 - 36x)(1 - 4x)
    weight = (disc * disc * 2).shift(2)
    return _compare(schw * weight, poly(_SCHWARZIAN_NUMERATOR, top=order).coeffs, order)


def _standard_chart(s: RationalSeries, top: int) -> RationalSeries:
    """s(x(z)) / (1 - z/4)^2 through z^top, for a power series s and the chart
    x(z) = (z/48)/(1 - z/4).  As x^k / (1 - z/4)^2 = (z/48)^k (1 - z/4)^-(k+2),
    the coefficient of z^m is sum_k s_k C(m+1, k+1) / (12^k 4^m); the sum runs
    on integer numerators over one common denominator."""
    scaled = [s.coeff(k) / 12 ** k for k in range(top + 1)]
    d = lcm(*(c.denominator for c in scaled))
    nums = [c.numerator * (d // c.denominator) for c in scaled]
    return RationalSeries([
        Fraction(sum(nums[k] * comb(m + 1, k + 1) for k in range(m + 1)), d * 4 ** m)
        for m in range(top + 1)])


def standard_form_check(order: int) -> SeriesCheck:
    """Expand {t,z} around z = 0 in the chart z = 48x/(12x+1) and compare with
    sum_i [ (1/2)(1-alpha_i^2)/(z-a_i)^2 + beta_i/(z-a_i) ] for the points
    (0,1,3,4); the chart change is a Mobius map, so {z,x} contributes zero to
    the Schwarzian cocycle."""
    if order < 8:
        raise ValueError("order must be at least 8")
    _check_order_cap(order)
    schw = _schwarzian_of(_t_prime(order))
    # z^2 {t,z} = (z/x)^2 (dx/dz)^2 x^2 {t,x}, and (z/x)(dx/dz) = 1/(1 - z/4)
    lhs = _standard_chart(schw.shift(2), order)
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
# numpy and scipy make up most of the package's import time and only the
# floating-point transport needs them, so each function that uses them
# imports them itself.


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.  The transport calls
    the integrator through this module-level name, so a replacement bound
    here from outside is what runs."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class MonodromyResult:
    """Monodromy in the Frobenius basis (y0, y1, y2): the continued solution
    satisfies new_y_i = sum_j matrix[i][j] y_j."""

    loop: str
    matrix: tuple[tuple[complex, ...], ...]
    residual: float
    det: complex
    trace: complex
    order2_residual: float | None


def _frobenius_initial_matrix(order: int, x0: float):
    """Rows (y_i, y_i', y_i'') at the real basepoint, for the Frobenius basis."""
    import numpy as np
    basis = frobenius_basis(order)
    lx = math.log(x0)
    rows = []
    for ls in basis:
        y = yp = ypp = 0.0
        for j, part in enumerate(ls.parts):
            # the k-th derivative without its k exact-zero leading terms
            d1 = part.deriv()
            f0, f1, f2 = (RationalSeries(s.coeffs[k:]).evalf(x0)
                          for k, s in enumerate((part, d1, d1.deriv())))
            y += f0 * lx ** j
            yp += f1 * lx ** j + (j * f0 * lx ** (j - 1) / x0 if j >= 1 else 0.0)
            ypp += f2 * lx ** j
            if j >= 1:
                ypp += 2 * j * f1 * lx ** (j - 1) / x0 - j * f0 * lx ** (j - 1) / x0 ** 2
            if j >= 2:
                ypp += j * (j - 1) * f0 * lx ** (j - 2) / x0 ** 2
        rows.append((y, yp, ypp))
    return np.array(rows, dtype=complex)


def _segment(z0: complex, z1: complex):
    return (lambda t: z0 + t * (z1 - z0), lambda t: z1 - z0)


def _circle(center: complex, radius: float, start_angle: float = math.pi):
    # counterclockwise, starting and ending at center + radius*exp(i*start_angle)
    return (lambda t: center + radius * cmath.exp(1j * (start_angle + 2 * math.pi * t)),
            lambda t: radius * 2j * math.pi * cmath.exp(1j * (start_angle + 2 * math.pi * t)))


def _transport(legs):
    """The fundamental matrix U of the companion system U' = C(x) U of the
    d/dx form, carried along the legs from U = I; U is flattened row-wise."""
    import numpy as np
    p0, p1, p2, p3 = dform_coefficients()
    u = np.eye(3, dtype=complex)
    for path, dpath in legs:
        def rhs(t, y):
            # C has rows e1, e2 and (c0, c1, c2) with c_k = -p_k/p3
            x, d = path(t), dpath(t)
            lead = _polyval(p3, x)
            c0, c1, c2 = (-_polyval(p, x) / lead for p in (p0, p1, p2))
            v = y.tolist()
            row2 = [c0 * a + c1 * b + c2 * c for a, b, c in zip(v[0:3], v[3:6], v[6:9])]
            return [d * e for e in v[3:9] + row2]
        sol = solve_ivp(rhs, (0.0, 1.0), u.reshape(-1), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise ToleranceNotMet(f"integration failed: {sol.message}")
        u = sol.y[:, -1].reshape(3, 3)
    return u


def _loop_legs(point: Fraction, basepoint: float):
    if point == Fraction(0):
        return [_circle(0.0, basepoint, start_angle=0.0)]
    if point == Fraction(1, 36):
        c, r = 1 / 36, 1 / 72   # half the distance to the nearest singular point
        return [_segment(basepoint, c - r), _circle(c, r), _segment(c - r, basepoint)]
    if point == Fraction(1, 4):
        c, r = 1 / 4, 1 / 9
        lift = 0.05j            # detour above the singular point at 1/36
        up = [_segment(basepoint, basepoint + lift),
              _segment(basepoint + lift, c - r + lift),
              _segment(c - r + lift, c - r)]
        down = [_segment(c - r, c - r + lift),
                _segment(c - r + lift, basepoint + lift),
                _segment(basepoint + lift, basepoint)]
        return up + [_circle(c, r)] + down
    raise ValueError(f"{point} is not a finite singular point of the equation")


def _analytic_unipotent():
    import numpy as np
    two_pi_i = 2j * math.pi
    return np.array([
        [1, 0, 0],
        [two_pi_i, 1, 0],
        [two_pi_i ** 2, 2 * two_pi_i, 1],
    ])


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
    if order > 400:
        raise ValueError("basepoint too close to the convergence boundary at 1/36")
    import numpy as np
    w = _frobenius_initial_matrix(order, bf)

    def loop_matrix(legs):
        t = _transport(legs)
        mt = np.linalg.solve(w.T, t @ w.T)
        return mt.T

    if point == Fraction(0):
        analytic = _analytic_unipotent()
        numeric = loop_matrix(_loop_legs(point, bf))
        residual = float(np.abs(numeric - analytic).max())
        if residual > tol:
            raise ToleranceNotMet(
                f"calibration loop around 0 off by {residual:.3e} > {tol:.3e}")
        m = analytic
        order2 = None
    else:
        m = loop_matrix(_loop_legs(point, bf))
        order2 = float(np.abs(m @ m - np.eye(3)).max())
        residual = order2
        if order2 > tol:
            raise ToleranceNotMet(
                f"loop around {point} is not an involution within {tol:.3e} "
                f"(defect {order2:.3e})")
    return MonodromyResult(
        loop=str(point),
        matrix=tuple(tuple(complex(v) for v in row) for row in m),
        residual=residual,
        det=complex(np.linalg.det(m)),
        trace=complex(np.trace(m)),
        order2_residual=order2,
    )
