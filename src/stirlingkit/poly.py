"""Dense univariate polynomials and the classical families built on them.

Coefficients are exact rationals stored lowest degree first with no
trailing zeros, as integer numerators over one denominator; the zero
polynomial has an empty coefficient tuple and degree -1.  Equality is
coefficientwise and nothing here ever compares through floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .egf import Egf, egf_reciprocal
from .exact import _convolve, _Vector, binomial, common_denominator, format_rational
from .seq import SeqContext, context


class Poly(_Vector):
    """Immutable dense polynomial over Fraction."""

    __slots__ = ()

    @staticmethod
    def _shape(nums: list[int]) -> tuple[int, ...]:
        end = len(nums)
        while end and nums[end - 1] == 0:
            end -= 1
        return tuple(nums[:end])

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._nums, other._nums
            return Poly._from_nums(_convolve(a, b, len(a) + len(b) - 1), self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x) -> Fraction:
        """Evaluate by Horner's scheme on the numerators: with x = p/q and
        degree d, the value is sum_k c_k p^k q^(d-k) over q^d den."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        acc = 0
        qpow = 1
        for c in reversed(self._nums):
            acc = acc * p + c * qpow
            qpow *= q
        # the loop leaves qpow one factor q above q^d
        return Fraction(acc * q, self._den * qpow)

    def derivative(self) -> "Poly":
        return Poly._from_nums([k * c for k, c in enumerate(self._nums)][1:], self._den)

    def __str__(self) -> str:
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = format_rational(mag)
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if mag == 1 else f"{format_rational(mag)}*{power}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def xd_apply(a: Poly, times: int) -> Poly:
    """Apply the operator x d/dx repeatedly.

    x^k is an eigenvector with eigenvalue k, so p applications just scale
    the coefficient of x^k by k^p (with 0^0 = 1 keeping times = 0 the
    identity).
    """
    if times < 0:
        raise ValueError(f"negative operator power {times}")
    return Poly._from_nums([c * k**times for k, c in enumerate(a._nums)], a._den)


def exp_polys(n: int) -> list[Poly]:
    """Exponential polynomials phi_0 .. phi_n, each grown from the last by
    the operator recurrence  next = xD this + x this.

    xD scales the coefficient of x^i by i and x shifts it up one degree,
    so the coefficient of x^i in the next polynomial is i c_i + c_(i-1).
    """
    if n < 0:
        raise ValueError(f"negative index {n}")
    out = [ONE]
    cs = [1]
    for _ in range(n):
        cs = [i * a + b for i, (a, b) in enumerate(zip(cs + [0], [0] + cs))]
        out.append(Poly._from_nums(cs, 1))
    return out


def exp_poly(n: int) -> Poly:
    """Exponential polynomial: coefficients are the second-kind row."""
    return exp_polys(n)[-1]


def geom_poly(n: int, ctx: SeqContext | None = None) -> Poly:
    """Geometric polynomial: sum_k S(n, k) k! x^k."""
    ctx = context(ctx)
    row = ctx.stirling2_row(n)
    return Poly._from_nums([row[k] * ctx.factorial(k) for k in range(n + 1)], 1)


def bernoulli_poly(n: int, ctx: SeqContext | None = None) -> Poly:
    """B_n(x) = sum_p C(n, p) B_p x^(n-p)."""
    if n < 0:
        raise ValueError(f"negative index {n}")
    ctx = context(ctx)
    bnums, bden = common_denominator([ctx.bernoulli(n - j) for j in range(n + 1)])
    return Poly._from_nums([binomial(n, j) * b for j, b in enumerate(bnums)], bden)


def euler_polys(n: int) -> list[Poly]:
    """Euler polynomials E_0 .. E_n, read off the product
    e^(xt) * 2/(e^t + 1):

    the coefficient of x^k in E_m is C(m, k) r_(m-k), with r the
    reciprocal factor.  Its coefficients do not depend on the order it
    is truncated to, so one reciprocal of order n serves every E_m.
    """
    if n < 0:
        raise ValueError(f"negative index {n}")
    # 2/(e^t + 1) is the reciprocal of [1, 1/2, 1/2, ...]
    r = egf_reciprocal(Egf([Fraction(1)] + [Fraction(1, 2)] * n))
    nums, den = r._nums, r._den
    return [Poly._from_nums([binomial(m, k) * nums[m - k] for k in range(m + 1)], den) for m in range(n + 1)]


def euler_poly(n: int) -> Poly:
    """E_n(x), the last entry of :func:`euler_polys`."""
    return euler_polys(n)[-1]


def binom_polys(n: int) -> list[Poly]:
    """Binomial polynomials binom_0 .. binom_n, each grown from the last:
    binom_k = binom_(k-1) (x - (k-1)) / k."""
    if n < 0:
        raise ValueError(f"negative index {n}")
    out = [ONE]
    falling = [1]  # numerators of x(x-1)...(x-k+1), over k!
    for k in range(1, n + 1):
        # x times the last is a shift up one degree; subtract (k-1) times it
        falling = [a - (k - 1) * b for a, b in zip([0] + falling, falling + [0])]
        out.append(Poly._from_nums(falling, out[-1]._den * k))
    return out


def binom_poly(k: int) -> Poly:
    """The binomial polynomial x(x-1)...(x-k+1)/k! of degree k."""
    return binom_polys(k)[-1]
