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


def _polyval(q: tuple[int, ...], n: int) -> int:
    return sum(c * n ** i for i, c in enumerate(q))


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
    """The same coefficients from the three-term recurrence
    N^3 a_N = 2(2N-1)(10N^2-10N+3) a_{N-1} - 36(N-1)(2N-3)(2N-1) a_{N-2}."""
    _check_order_cap(order)
    return RationalSeries(_pi_coeffs(order))


def _pi_coeffs(order: int) -> list[Fraction]:
    # no order cap here: the Schwarzian checks expand t' ten orders past the
    # order asked for, so their working order may exceed MAX_ORDER
    a = [Fraction(1)]
    for n in range(1, order + 1):
        v = 2 * (2 * n - 1) * (10 * n * n - 10 * n + 3) * a[n - 1]
        if n >= 2:
            v -= 36 * (n - 1) * (2 * n - 3) * (2 * n - 1) * a[n - 2]
        a.append(Fraction(v, n ** 3))
    return a


def _log_partner_coeffs(a, lower_pairs):
    """Solve N^3 b_N + sum_j Q_j(N-j) b_{N-j} = -(inhomogeneous term), where
    the inhomogeneous term collects the polynomial-derivative contributions
    of the lower log layers given in lower_pairs as (weight, coeffs, d/dth)."""
    order = len(a) - 1
    b = [Fraction(0)]
    for n in range(1, order + 1):
        s = Fraction(0)
        for j in (1, 2):
            if n - j >= 0:
                s += _polyval(_Q[j], n - j) * b[n - j]
        for weight, coeffs, derivs in lower_pairs:
            for j in (0, 1, 2):
                if n - j >= 0:
                    q = _Q[j]
                    for _ in range(derivs):
                        q = _pderiv(q)
                    s += weight * _polyval(q, n - j) * coeffs[n - j]
        b.append(Fraction(-s, n ** 3))
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
    a = _pi_coeffs(order)
    b = _log_partner_coeffs(a, [(1, a, 1)])
    c = _log_partner_coeffs(a, [(1, a, 2), (2, b, 1)])
    pi = RationalSeries(a)
    g1 = RationalSeries(b)
    g2 = RationalSeries(c)
    y0 = LogSeries([pi])
    y1 = LogSeries([g1, pi])
    y2 = LogSeries([g2, g1 * 2, pi])
    return y0, y1, y2


# -- mirror map ---------------------------------------------------------------

@dataclass(frozen=True)
class MirrorMap:
    """The unipotent-normalized flat coordinate and its inverse:
    2 pi i t = log x + log_shift(x), and x expanded in q = exp(2 pi i t)."""

    log_shift: RationalSeries
    x_of_q: RationalSeries


def _log_shift(order: int) -> RationalSeries:
    """g1/Pi through x^order, so that log x + g1/Pi is 2 pi i t."""
    a = _pi_coeffs(order)
    return RationalSeries(_log_partner_coeffs(a, [(1, a, 1)])) / RationalSeries(a)


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
    """(2 pi i) t' = 1/x + (g1/Pi)' as an exact Laurent series; the constant
    2 pi i drops out of every Schwarzian."""
    work = order + 10
    inv_x = RationalSeries([1] + [0] * work, -1)
    return inv_x + _log_shift(work).deriv()


def _schwarzian_of(tp: RationalSeries) -> RationalSeries:
    """{t, x} = t'''/t' - (3/2)(t''/t')^2 from a Laurent t'."""
    tpp = tp.deriv()
    tppp = tpp.deriv()
    s1 = tppp / tp
    s2 = tpp / tp
    return s1 - (s2 * s2) * Fraction(3, 2)


def schwarzian_check(order: int) -> SeriesCheck:
    """Exact comparison of {t,x} * 2x^2 (1-36x)^2 (1-4x)^2 with the quartic
    1 - 52x + 1500x^2 - 6048x^3 + 15552x^4, through the given order."""
    if order < 8:
        raise ValueError("order must be at least 8")
    _check_order_cap(order)
    schw = _schwarzian_of(_t_prime(order))
    w = schw.top
    weight = poly((0, 0, 2), top=w)
    for factor in ((1, -36), (1, -36), (1, -4), (1, -4)):
        weight = weight * poly(factor, top=w)
    lhs = schw * weight
    target = poly(_SCHWARZIAN_NUMERATOR, top=order)
    for k in range(order + 1):
        got, want = lhs.coeff(k), target.coeff(k)
        if got != want:
            return SeriesCheck(False, order, (k, str(got), str(want)))
    return SeriesCheck(True, order)


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
    for k in range(order + 1):
        got, want = lhs.coeff(k), rhs[k]
        if got != want:
            return SeriesCheck(False, order, (k, str(got), str(want)))
    return SeriesCheck(True, order)


# -- theta form to d/dx form ---------------------------------------------------

def _padd(p, q):
    n = max(len(p), len(q))
    return tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _pshift(p, k):
    return (0,) * k + tuple(p)


def _pderiv(p):
    return tuple(i * p[i] for i in range(1, len(p))) or (0,)


def _pscale(c, p):
    return tuple(c * x for x in p)


@cache
def dform_coefficients() -> tuple[tuple[int, ...], ...]:
    """Polynomial coefficients (p0, p1, p2, p3) with the operator written as
    p3(x) y''' + p2(x) y'' + p1(x) y' + p0(x) y; derived from the theta form
    by theta (p D^k) = x p' D^k + x p D^(k+1)."""
    # theta^d in D-form: dict power-of-D -> coefficient polynomial
    theta_powers = [{0: (1,)}]
    for _ in range(3):
        prev = theta_powers[-1]
        nxt: dict[int, tuple[int, ...]] = {}
        for k, p in prev.items():
            xp = _pshift(p, 1)
            xdp = _pshift(_pderiv(p), 1)
            nxt[k] = _padd(nxt.get(k, (0,)), xdp)
            nxt[k + 1] = _padd(nxt.get(k + 1, (0,)), xp)
        theta_powers.append(nxt)
    out: dict[int, tuple[int, ...]] = {k: (0,) for k in range(4)}
    for j, q in enumerate(_Q):
        for d, c in enumerate(q):
            if c:
                for k, p in theta_powers[d].items():
                    out[k] = _padd(out[k], _pshift(_pscale(c, p), j))

    def trim(p):
        n = len(p)
        while n > 1 and p[n - 1] == 0:
            n -= 1
        return p[:n]

    return tuple(trim(out[k]) for k in range(4))


# -- numeric monodromy ----------------------------------------------------------
#
# numpy and scipy make up most of the package's import time and only the
# floating-point transport needs them: numpy is imported by the first
# numeric_monodromy call, scipy by the first integration.


def _import_numpy() -> None:
    global np
    import numpy as np


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


def _series_floats(s: RationalSeries):
    return np.array([float(c) for c in s.coeffs])


def _horner(c: np.ndarray, x: float) -> float:
    acc = 0.0
    for v in c[::-1]:
        acc = acc * x + v
    return acc


def _frobenius_initial_matrix(order: int, x0: float) -> np.ndarray:
    """Rows (y_i, y_i', y_i'') at the real basepoint, for the Frobenius basis."""
    basis = frobenius_basis(order)
    lx = math.log(x0)
    rows = []
    for ls in basis:
        y = yp = ypp = 0.0
        for j, part in enumerate(ls.parts):
            f0 = _horner(_series_floats(part), x0)
            f1 = _horner(np.array([float(k * part.coeffs[k])
                                   for k in range(1, len(part.coeffs))]), x0)
            f2 = _horner(np.array([float(k * (k - 1) * part.coeffs[k])
                                   for k in range(2, len(part.coeffs))]), x0)
            y += f0 * lx ** j
            yp += f1 * lx ** j + (j * f0 * lx ** (j - 1) / x0 if j >= 1 else 0.0)
            ypp += f2 * lx ** j
            if j >= 1:
                ypp += 2 * j * f1 * lx ** (j - 1) / x0 - j * f0 * lx ** (j - 1) / x0 ** 2
            if j >= 2:
                ypp += j * (j - 1) * f0 * lx ** (j - 2) / x0 ** 2
        rows.append((y, yp, ypp))
    return np.array(rows, dtype=complex)


def _companion(x: complex) -> np.ndarray:
    p0, p1, p2, p3 = (np.polyval(p[::-1], x) for p in dform_coefficients())
    return np.array([[0, 1, 0], [0, 0, 1], [-p0 / p3, -p1 / p3, -p2 / p3]])


def _segment(z0: complex, z1: complex):
    return (lambda t: z0 + t * (z1 - z0), lambda t: z1 - z0)


def _circle(center: complex, radius: float, start_angle: float = math.pi):
    # counterclockwise, starting and ending at center + radius*exp(i*start_angle)
    return (lambda t: center + radius * cmath.exp(1j * (start_angle + 2 * math.pi * t)),
            lambda t: radius * 2j * math.pi * cmath.exp(1j * (start_angle + 2 * math.pi * t)))


def _transport(legs, rtol=1e-12, atol=1e-14) -> np.ndarray:
    u = np.eye(3, dtype=complex)
    for path, dpath in legs:
        def rhs(t, y):
            return (dpath(t) * (_companion(path(t)) @ y.reshape(3, 3))).reshape(-1)
        sol = solve_ivp(rhs, (0.0, 1.0), u.reshape(-1), method="DOP853",
                        rtol=rtol, atol=atol)
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


def _analytic_unipotent() -> np.ndarray:
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
    _import_numpy()
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
