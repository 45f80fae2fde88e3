"""Truncated power/Laurent series with exact rational coefficients, and
log-graded stacks of them.

A RationalSeries stores coefficients for exponents lead .. lead+len-1, as
int numerators over one common denominator; exponents below lead are exact zeros, exponents above are *unknown*
(truncated, not zero).  Arithmetic tracks how far results stay reliable:
the usual min-of-tops rule for sums and Cauchy products, one fewer term is
never lost on differentiation in theta form, and division requires a unit
(nonzero leading coefficient after stripping).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _push(nums: list, den: int, s: int, t: int) -> int:
    """Append the coefficient s / (t den), t != 0, to the int numerators nums
    over the denominator den, and return the denominator.  When den cannot
    hold the new coefficient, every numerator is rescaled in place to the
    smallest denominator that can."""
    if t < 0:
        s, t = -s, -t
    q, r = divmod(s, t)
    if not r:
        nums.append(q)
        return den
    g = gcd(s, t)
    extra = t // g
    nums[:] = [x * extra for x in nums]
    nums.append(s // g)
    return den * extra


class RationalSeries:
    """Coefficients are stored once, as the int numerators ``nums`` over one
    positive denominator ``den``, reduced by their gcd; ``coeffs`` and
    ``coeff`` read them back as Fractions.  The arithmetic runs on the ints."""

    __slots__ = ("lead", "nums", "den")

    def __init__(self, coeffs, lead: int = 0):
        fs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if not fs:
            raise ValueError("need at least one coefficient")
        # over the lcm of reduced denominators the numerators have gcd 1
        den = lcm(*(f.denominator for f in fs))
        self.nums = tuple(f.numerator * (den // f.denominator) for f in fs)
        self.den = den
        self.lead = lead

    @classmethod
    def _from_ints(cls, nums, den: int = 1, lead: int = 0) -> "RationalSeries":
        """The series with the int numerators nums over den > 0, reduced."""
        g = gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        s = object.__new__(cls)
        s.nums, s.den, s.lead = tuple(nums), den, lead
        return s

    # -- basics ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x^lead .. x^top."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def top(self) -> int:
        """Highest exponent with a known coefficient."""
        return self.lead + len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        if k < self.lead:
            return Fraction(0)
        if k > self.top:
            raise ValueError(f"coefficient of x^{k} lies beyond the truncation (top {self.top})")
        return Fraction(self.nums[k - self.lead], self.den)

    def _nums_from(self, lo: int, hi: int) -> list[int]:
        """Numerators of x^lo .. x^hi, hi <= top, with zeros below lead."""
        return [self.nums[k - self.lead] if k >= self.lead else 0 for k in range(lo, hi + 1)]

    def strip(self) -> "RationalSeries":
        """Drop exact leading zeros, advancing the leading exponent."""
        i = 0
        while i < len(self.nums) - 1 and not self.nums[i]:
            i += 1
        if i == 0:
            return self
        return RationalSeries._from_ints(self.nums[i:], self.den, self.lead + i)

    def is_zero_through(self, k: int) -> bool:
        if k > self.top:
            raise ValueError("cannot certify zero beyond the truncation")
        return k < self.lead or not any(self.nums[:k - self.lead + 1])

    def truncate(self, top: int) -> "RationalSeries":
        """The coefficients through x^top; a top past the truncation raises."""
        if top > self.top:
            raise ValueError(f"truncation at x^{top} lies beyond the known coefficients (top {self.top})")
        if top >= self.lead:
            return RationalSeries._from_ints(self.nums[:top - self.lead + 1], self.den, self.lead)
        if top >= 0:
            # everything known in [0, top] is an exact zero
            return RationalSeries._from_ints([0] * (top + 1))
        raise ValueError("truncation below the leading exponent")

    def __repr__(self):
        head = ", ".join(str(self.coeff(k)) for k in range(self.lead, min(self.top, self.lead + 5) + 1))
        return f"RationalSeries(lead={self.lead}, [{head}{', ...' if len(self.nums) > 6 else ''}])"

    def eq_through(self, other: "RationalSeries", top: int) -> bool:
        """Whether the coefficients agree through x^top, compared by
        cross-multiplying the numerators (zeros below lead); a top past the
        truncation of either series raises once the known ones agree."""
        lo, hi = min(self.lead, other.lead), min(top, self.top, other.top)
        if any(x * other.den != y * self.den
               for x, y in zip(self._nums_from(lo, hi), other._nums_from(lo, hi))):
            return False
        if hi < top:
            self.coeff(hi + 1), other.coeff(hi + 1)   # raises past the truncation
        return True

    # -- ring operations --------------------------------------------------

    def _promote(self, scalar) -> "RationalSeries":
        # a bare scalar is exact to every order; give it our window
        c = Fraction(scalar)
        return RationalSeries._from_ints([c.numerator] + [0] * max(self.top, 0), c.denominator)

    def __add__(self, other):
        if not isinstance(other, RationalSeries):
            other = self._promote(other)
        lead = min(self.lead, other.lead)
        top = min(self.top, other.top)
        if top < lead:
            raise ValueError("empty overlap of reliable coefficients")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return RationalSeries._from_ints(
            [a * fa + b * fb for a, b in zip(self._nums_from(lead, top), other._nums_from(lead, top))],
            den, lead)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return RationalSeries._from_ints([-x for x in self.nums], self.den, self.lead)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalSeries) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalSeries):
            c = Fraction(other)
            return RationalSeries._from_ints([c.numerator * x for x in self.nums],
                                             self.den * c.denominator, self.lead)
        # reliable through the shorter of the two windows
        n = min(len(self.nums), len(other.nums))
        a, rb = self.nums, other.nums[n - 1::-1]
        return RationalSeries._from_ints([sum(map(mul, a, rb[n - 1 - m:])) for m in range(n)],
                                         self.den * other.den, self.lead + other.lead)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, RationalSeries):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division of a series by zero")
            p, q = c.numerator, c.denominator
            if p < 0:
                p, q = -p, -q
            return RationalSeries._from_ints([q * x for x in self.nums], self.den * p, self.lead)
        b = other.strip()
        if not b.nums[0]:
            raise ZeroDivisionError("division by a series with no known nonzero coefficient")
        # a/b = (b.den / a.den) (A/B) on the numerators A, B; the quotient A/B
        # is built on ints over a running denominator
        big_a, big_b = self.nums, b.nums
        out, den = [], 1
        for k in range(min(len(big_a), len(big_b))):
            s = big_a[k] * den - sum(map(mul, big_b[1:k + 1], out[::-1]))
            den = _push(out, den, s, big_b[0])
        return RationalSeries._from_ints([x * b.den for x in out], den * self.den,
                                         self.lead - b.lead)

    # -- calculus ---------------------------------------------------------

    def deriv(self) -> "RationalSeries":
        """d/dx; exponents drop by one, no reliable terms are lost."""
        return RationalSeries._from_ints([(self.lead + i) * x for i, x in enumerate(self.nums)],
                                         self.den, self.lead - 1)

    def theta(self) -> "RationalSeries":
        """x d/dx."""
        return RationalSeries._from_ints([(self.lead + i) * x for i, x in enumerate(self.nums)],
                                         self.den, self.lead)

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by x^k."""
        return RationalSeries._from_ints(self.nums, self.den, self.lead + k)

    # -- composition, exp, reversion --------------------------------------
    # (no library route calls these; the tests and the benchmark checker
    # keep them as oracles)

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
        out = RationalSeries([self.coeff(top)] + [0] * top, 0)
        for k in range(top - 1, -1, -1):
            out = (out * b).truncate(top) + RationalSeries([self.coeff(k)] + [0] * top, 0)
        return out.truncate(top)

    def exp(self) -> "RationalSeries":
        """exp of a series with positive valuation."""
        top = self.top
        if top < 0 or any(self._nums_from(min(self.lead, 0), 0)):
            raise ValueError("exp needs a series vanishing at the origin")
        # n e_n = sum_k k h_k e_(n-k), with h = H / den, on ints over a
        # running denominator
        kh = [k * x for k, x in enumerate(self._nums_from(0, top))]
        out, den = [1], 1
        for n in range(1, top + 1):
            den = _push(out, den, sum(map(mul, kh[1:n + 1], out[::-1])), n * self.den)
        return RationalSeries._from_ints(out, den)

    def revert(self) -> "RationalSeries":
        """Compositional inverse of a series x + O(x^2), by Lagrange inversion.

        With f = x u, the inverse has [q^k] = (1/k) [x^(k-1)] u^(-k).  The
        powers of w = 1/u are taken on its numerators W = d w, d its
        denominator, so the O(N^3) inner work is plain int arithmetic.
        """
        f = self.strip()
        if f.lead != 1 or f.nums[0] != f.den:
            raise ValueError("reversion needs a series of the form x + O(x^2)")
        n = len(f.nums)
        w = RationalSeries([1] + [0] * (n - 1)) / f.shift(-1)
        d, big_w = w.den, w.nums
        # [q^k] = W^k[x^(k-1)] / (k d^k), over the denominator lcm(1..n) d^n
        m = lcm(*range(1, n + 1))
        power = [1] + [0] * (n - 1)
        out = []
        for k in range(1, n + 1):
            power = [sum(map(mul, power[:j + 1], reversed(big_w[:j + 1]))) for j in range(n)]
            out.append(power[k - 1] * (m // k) * d ** (n - k))
        return RationalSeries._from_ints(out, m * d ** n, 1)


def poly(values, top: int | None = None) -> RationalSeries:
    """A polynomial as a series; pad with zeros up to ``top`` if given."""
    vals = [Fraction(v) for v in values]
    if top is not None:
        if top + 1 < len(vals):
            raise ValueError("polynomial degree exceeds requested top")
        vals += [Fraction(0)] * (top + 1 - len(vals))
    return RationalSeries(vals, 0)


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
