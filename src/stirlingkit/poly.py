"""Dense univariate polynomials and the classical families built on them.

Coefficients are exact rationals stored lowest degree first with no
trailing zeros; the zero polynomial has an empty coefficient tuple and
degree -1.  Equality is coefficientwise and nothing here ever compares
through floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .egf import Egf, egf_reciprocal
from .exact import _convolve, _Vector, binomial, format_rational, parse_rational
from .seq import SeqContext, context


class Poly(_Vector):
    """Immutable dense polynomial over Fraction."""

    __slots__ = ()

    @staticmethod
    def _shape(cs: list[Fraction]) -> tuple[Fraction, ...]:
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        if k < 0 or k >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k]

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            return Poly(_convolve(a, b, len(a) + len(b) - 1))
        return self.scale(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x) -> Fraction:
        """Evaluate by Horner's scheme."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
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
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, items) -> "Poly":
        return cls(parse_rational(s) for s in items)


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
    return Poly(c * k**times for k, c in enumerate(a.coeffs))


def exp_polys(n: int) -> list[Poly]:
    """Exponential polynomials phi_0 .. phi_n, each grown from the last by
    the operator recurrence  next = xD this + x this.

    xD scales the coefficient of x^i by i and x shifts it up one degree,
    so the coefficient of x^i in the next polynomial is i c_i + c_(i-1).
    """
    if n < 0:
        raise ValueError(f"negative index {n}")
    out = [ONE]
    for _ in range(n):
        cs = out[-1].coeffs
        out.append(Poly(i * a + b for i, (a, b) in enumerate(zip(cs + (0,), (0,) + cs))))
    return out


def exp_poly(n: int) -> Poly:
    """Exponential polynomial: coefficients are the second-kind row."""
    return exp_polys(n)[-1]


def geom_poly(n: int, ctx: SeqContext | None = None) -> Poly:
    """Geometric polynomial: sum_k S(n, k) k! x^k."""
    if n < 0:
        raise ValueError(f"negative index {n}")
    ctx = context(ctx)
    return Poly(ctx.stirling2(n, k) * ctx.factorial(k) for k in range(n + 1))


def bernoulli_poly(n: int, ctx: SeqContext | None = None) -> Poly:
    """B_n(x) = sum_p C(n, p) B_p x^(n-p)."""
    if n < 0:
        raise ValueError(f"negative index {n}")
    ctx = context(ctx)
    return Poly(binomial(n, j) * ctx.bernoulli(n - j) for j in range(n + 1))


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
    r = egf_reciprocal(Egf([Fraction(1)] + [Fraction(1, 2)] * n)).coeffs
    return [Poly(binomial(m, k) * r[m - k] for k in range(m + 1)) for m in range(n + 1)]


def euler_poly(n: int) -> Poly:
    """E_n(x), the last entry of :func:`euler_polys`."""
    return euler_polys(n)[-1]


def binom_polys(n: int) -> list[Poly]:
    """Binomial polynomials binom_0 .. binom_n, each grown from the last:
    binom_k = binom_(k-1) (x - (k-1)) / k."""
    if n < 0:
        raise ValueError(f"negative index {n}")
    out = [ONE]
    for k in range(1, n + 1):
        cs = out[-1].coeffs
        # x binom_(k-1) is a shift up one degree; subtract (k-1) binom_(k-1)
        out.append(Poly((a - (k - 1) * b) / k for a, b in zip((0,) + cs, cs + (0,))))
    return out


def binom_poly(k: int) -> Poly:
    """The binomial polynomial x(x-1)...(x-k+1)/k! of degree k."""
    return binom_polys(k)[-1]
