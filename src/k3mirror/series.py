"""Truncated power/Laurent series with exact rational coefficients, and
log-graded stacks of them.

A RationalSeries stores coefficients for exponents lead .. lead+len-1;
exponents below lead are exact zeros, exponents above are *unknown*
(truncated, not zero).  Arithmetic tracks how far results stay reliable:
the usual min-of-tops rule for sums and Cauchy products, one fewer term is
never lost on differentiation in theta form, and division requires a unit
(nonzero leading coefficient after stripping).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


class RationalSeries:
    __slots__ = ("lead", "coeffs")

    def __init__(self, coeffs, lead: int = 0):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.lead = lead
        if not self.coeffs:
            raise ValueError("need at least one coefficient")

    # -- basics ---------------------------------------------------------

    @property
    def top(self) -> int:
        """Highest exponent with a known coefficient."""
        return self.lead + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if k < self.lead:
            return Fraction(0)
        if k > self.top:
            raise ValueError(f"coefficient of x^{k} lies beyond the truncation (top {self.top})")
        return self.coeffs[k - self.lead]

    def strip(self) -> "RationalSeries":
        """Drop exact leading zeros, advancing the leading exponent."""
        i = 0
        while i < len(self.coeffs) - 1 and self.coeffs[i] == 0:
            i += 1
        if i == 0:
            return self
        return RationalSeries(self.coeffs[i:], self.lead + i)

    def is_zero_through(self, k: int) -> bool:
        if k > self.top:
            raise ValueError("cannot certify zero beyond the truncation")
        return all(self.coeff(j) == 0 for j in range(self.lead, k + 1))

    def truncate(self, top: int) -> "RationalSeries":
        if top >= self.lead:
            keep = min(len(self.coeffs), top - self.lead + 1)
            return RationalSeries(self.coeffs[:keep], self.lead)
        if top >= 0:
            # everything known in [0, top] is an exact zero
            return RationalSeries([Fraction(0)] * (top + 1), 0)
        raise ValueError("truncation below the leading exponent")

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"RationalSeries(lead={self.lead}, [{head}{', ...' if len(self.coeffs) > 6 else ''}])"

    def eq_through(self, other: "RationalSeries", top: int) -> bool:
        return all(self.coeff(k) == other.coeff(k)
                   for k in range(min(self.lead, other.lead), top + 1))

    # -- ring operations --------------------------------------------------

    def _promote(self, scalar) -> "RationalSeries":
        # a bare scalar is exact to every order; give it our window
        top = max(self.top, 0)
        coeffs = [Fraction(0)] * (top + 1)
        coeffs[0] = Fraction(scalar)
        return RationalSeries(coeffs, 0)

    def __add__(self, other):
        if not isinstance(other, RationalSeries):
            other = self._promote(other)
        lead = min(self.lead, other.lead)
        top = min(self.top, other.top)
        if top < lead:
            raise ValueError("empty overlap of reliable coefficients")
        return RationalSeries([self.coeff(k) + other.coeff(k) for k in range(lead, top + 1)], lead)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return RationalSeries([-c for c in self.coeffs], self.lead)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalSeries) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalSeries):
            c = Fraction(other)
            return RationalSeries([c * x for x in self.coeffs], self.lead)
        lead = self.lead + other.lead
        top = min(self.top + other.lead, other.top + self.lead)
        n = top - lead + 1
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a:
                jmax = min(len(other.coeffs), n - i)
                for j in range(jmax):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return RationalSeries(out, lead)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, RationalSeries):
            c = Fraction(other)
            return RationalSeries([x / c for x in self.coeffs], self.lead)
        b = other.strip()
        if b.coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with no known nonzero coefficient")
        lead = self.lead - b.lead
        n = min(len(self.coeffs), len(b.coeffs))
        out = []
        for k in range(n):
            s = self.coeffs[k]
            for j in range(1, k + 1):
                if j < len(b.coeffs) and out[k - j]:
                    s -= b.coeffs[j] * out[k - j]
            out.append(s / b.coeffs[0])
        return RationalSeries(out, lead)

    # -- calculus ---------------------------------------------------------

    def deriv(self) -> "RationalSeries":
        """d/dx; exponents drop by one, no reliable terms are lost."""
        return RationalSeries([(self.lead + i) * c for i, c in enumerate(self.coeffs)],
                              self.lead - 1)

    def theta(self) -> "RationalSeries":
        """x d/dx."""
        return RationalSeries([(self.lead + i) * c for i, c in enumerate(self.coeffs)],
                              self.lead)

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by x^k."""
        return RationalSeries(self.coeffs, self.lead + k)

    # -- composition, exp, reversion --------------------------------------

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """Substitute a series of valuation >= 1 for the variable."""
        if self.lead < 0:
            raise ValueError("can only compose a power series")
        b = inner.strip()
        if b.lead < 1:
            raise ValueError("inner series must have positive valuation")
        top = min(self.top, inner.top)
        if top < 0:
            raise ValueError("no reliable coefficients in composition")
        out = RationalSeries([self.coeff(top)] + [Fraction(0)] * top, 0)
        for k in range(top - 1, -1, -1):
            out = (out * b).truncate(top) + RationalSeries(
                [self.coeff(k)] + [Fraction(0)] * top, 0)
        return out.truncate(top)

    def exp(self) -> "RationalSeries":
        """exp of a series with positive valuation."""
        top = self.top
        if top < 0 or any(self.coeff(k) != 0 for k in range(min(self.lead, 0), 1)):
            raise ValueError("exp needs a series vanishing at the origin")
        hs = [self.coeff(k) for k in range(top + 1)]
        out = [Fraction(1)] + [Fraction(0)] * top
        for n in range(1, top + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                if hs[k]:
                    s += k * hs[k] * out[n - k]
            out[n] = s / n
        return RationalSeries(out, 0)

    def revert(self) -> "RationalSeries":
        """Compositional inverse of a series x + O(x^2), by Lagrange inversion.

        With f = x u, the inverse has [q^k] = (1/k) [x^(k-1)] u^(-k).  The
        powers of w = 1/u are taken on the integers W = d w, d the lcm of the
        denominators of w, so the O(N^3) inner work is plain int arithmetic.
        """
        f = self.strip()
        if f.lead != 1 or f.coeffs[0] != 1:
            raise ValueError("reversion needs a series of the form x + O(x^2)")
        n = len(f.coeffs)
        u = RationalSeries(f.coeffs)                     # f / x
        w = (RationalSeries([1] + [0] * (n - 1)) / u).coeffs
        d = lcm(*(c.denominator for c in w))
        big_w = [c.numerator * (d // c.denominator) for c in w]
        power = [1] + [0] * (n - 1)
        out = []
        for k in range(1, n + 1):
            power = [sum(map(mul, power[:m + 1], reversed(big_w[:m + 1]))) for m in range(n)]
            out.append(Fraction(power[k - 1], k * d ** k))
        return RationalSeries(out, 1)


def poly(values, top: int | None = None) -> RationalSeries:
    """A polynomial as a series; pad with zeros up to ``top`` if given."""
    vals = [Fraction(v) for v in values]
    if top is not None:
        if top + 1 < len(vals):
            raise ValueError("polynomial degree exceeds requested top")
        vals += [Fraction(0)] * (top + 1 - len(vals))
    return RationalSeries(vals, 0)


def geometric(ratio, top: int) -> RationalSeries:
    """1/(1 - ratio*x) through x^top."""
    r = Fraction(ratio)
    out = [Fraction(1)]
    for _ in range(top):
        out.append(out[-1] * r)
    return RationalSeries(out, 0)


class LogSeries:
    """Sum of parts[j] * log(x)^j with power-series parts.

    theta = x d/dx acts exactly: theta(f log^j) = (theta f) log^j
    + j f log^(j-1).
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("need at least one part")

    @property
    def log_degree(self) -> int:
        return len(self.parts) - 1

    def theta(self) -> "LogSeries":
        new = []
        for j, f in enumerate(self.parts):
            g = f.theta()
            if j + 1 < len(self.parts):
                g = g + (j + 1) * self.parts[j + 1]
            new.append(g)
        return LogSeries(new)

    def __add__(self, other: "LogSeries") -> "LogSeries":
        k = max(len(self.parts), len(other.parts))
        out = []
        for j in range(k):
            if j < len(self.parts) and j < len(other.parts):
                out.append(self.parts[j] + other.parts[j])
            elif j < len(self.parts):
                out.append(self.parts[j])
            else:
                out.append(other.parts[j])
        return LogSeries(out)

    def scale(self, c) -> "LogSeries":
        return LogSeries([f * c for f in self.parts])

    def shift(self, k: int) -> "LogSeries":
        return LogSeries([f.shift(k) for f in self.parts])

    def is_zero_through(self, top: int) -> bool:
        return all(f.is_zero_through(top) for f in self.parts)

    def __repr__(self):
        return f"LogSeries(log_degree={self.log_degree}, lead part {self.parts[0]!r})"
