"""Truncated exponential generating functions over exact rationals.

An ``Egf`` of order N stores coefficients a_0..a_N and denotes the sum of
a_n t^n / n! for n <= N.  All arithmetic is exact and order-strict:
products and compositions require equal orders.  Nothing ever extends a
truncation silently.

Coefficients are stored as integer numerators over one denominator, and
the product, composition and reciprocal work on those integers.  The
ordinary-coefficient view c_n = a_n / n! is exposed for the places where
plain Cauchy convolution is the natural tool; conversion in both
directions is exact.

The two substitution routines at the bottom are the load-bearing piece:
each one computes the same sequence twice, once as the weighted Stirling
transform

    out_n = sum_k S(n, k) lam^(n-k) mu^k a_k      (exponential inner)
    out_n = sum_k s(n, k) lam^(n-k) mu^k a_k      (logarithmic inner)

and once by literal series composition with (mu/lam)(e^(lam t) - 1) or
(mu/lam)log(1 + lam t), and insists the answers agree before returning.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .exact import _convolve, _Vector, common_denominator, factorial, format_rational, int_pow
from .seq import SeqContext
from .transform import weighted_stirling_transform


class OrderMismatchError(ValueError):
    """Raised when an operation mixes truncations of different orders."""


class Egf(_Vector):
    """Immutable truncated EGF; ``coeffs[n]`` is a_n."""

    __slots__ = ()

    @staticmethod
    def _shape(nums: list[int]) -> tuple[int, ...]:
        if not nums:
            raise ValueError("an Egf needs at least the constant coefficient")
        return tuple(nums)

    def _match(self, other: "Egf") -> None:
        super()._match(other)
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __repr__(self) -> str:
        inside = ", ".join(str(c) for c in self.coeffs)
        return f"Egf([{inside}])"


def to_ordinary(f: Egf) -> tuple[Fraction, ...]:
    """Ordinary power-series coefficients c_n = a_n / n!."""
    den = f._den
    return tuple([Fraction(a, den * factorial(n)) for n, a in enumerate(f._nums)])


def from_ordinary(coeffs) -> Egf:
    """Inverse of :func:`to_ordinary`: a_n = c_n * n!."""
    return Egf(Fraction(c) * factorial(n) for n, c in enumerate(coeffs))


def ordinary_mul(a, b) -> list[Fraction]:
    """Cauchy product of ordinary coefficient lists, truncated to the
    shorter length."""
    an, ad = common_denominator(a)
    bn, bd = common_denominator(b)
    den = ad * bd
    return [Fraction(c, den) for c in _convolve(an, bn, min(len(an), len(bn)))]


def _ordinary_nums(f: Egf) -> list[int]:
    """Numerators of the ordinary view of f over den * N!, N the order:
    a_n / n! = (a_n N!/n!) / N!."""
    nums = f._nums
    weights = [1]  # N!/k! for k = N, N-1, ..., 0
    for k in range(len(nums) - 1, 0, -1):
        weights.append(weights[-1] * k)
    return [a * w for a, w in zip(nums, reversed(weights))]


def _from_ordinary_nums(nums: list[int], den: int) -> Egf:
    """The Egf whose ordinary view is nums / den."""
    scaled = []
    fact = 1
    for n, c in enumerate(nums):
        scaled.append(c * fact)
        fact *= n + 1
    return Egf._from_nums(scaled, den)


def egf_mul(f: Egf, g: Egf) -> Egf:
    """Product via binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k},
    as one Cauchy product of the N!-scaled ordinary numerators."""
    f._match(g)
    scale = factorial(f.order)
    prod = _convolve(_ordinary_nums(f), _ordinary_nums(g), f.order + 1)
    return _from_ordinary_nums(prod, f._den * g._den * scale * scale)


def egf_compose(f: Egf, g: Egf) -> Egf:
    """f(g(t)) for an inner series with zero constant term.

    Sums f_k g^k over the integer ordinary numerators.  Each power is
    grown from the last by one truncated Cauchy product and reduced by its
    gcd; g^k starts with k zeros, which the product skips, so a compose of
    order n takes about n^3/6 coefficient products.  With g(0) = 0 the
    truncation is exact.
    """
    f._match(g)
    if g._nums[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = f.order
    size = n + 1
    fo = _ordinary_nums(f)  # over f._den * n!
    go = _ordinary_nums(g)  # over g_den = g._den * n!
    g_den = g._den * factorial(n)
    last = max([k for k, c in enumerate(fo) if c], default=0)
    acc = [fo[0]] + [0] * n
    den = 1
    power = [1] + [0] * n  # g^k over power_den
    power_den = 1
    for k in range(1, last + 1):
        power = _convolve(power, go, size)
        power_den *= g_den
        common = gcd(power_den, *power)
        if common != 1:
            power = [c // common for c in power]
            power_den //= common
        if fo[k]:
            both = lcm(den, power_den)
            a, b = both // den, fo[k] * (both // power_den)
            acc = [a * x + b * y for x, y in zip(acc, power)]
            den = both
    return _from_ordinary_nums(acc, den * f._den * factorial(n))


def egf_reciprocal(f: Egf) -> Egf:
    """1/f for a_0 != 0, by the integer long division

        B_0 = 1,  B_m = -sum_{k=1..m} C(m, k) a_k a_0^(k-1) B_(m-k)

    on the numerators a_k of f = a / den, for which 1/a has coefficients
    B_m / a_0^(m+1); so 1/f = den B_m a_0^(n-m) / a_0^(n+1).
    """
    a = f._nums
    a0 = a[0]
    if a0 == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    n = f.order
    pows = [1]
    for _ in range(n):
        pows.append(pows[-1] * a0)
    b = [1]
    for m in range(1, n + 1):
        b.append(-sum(comb(m, k) * a[k] * pows[k - 1] * b[m - k] for k in range(1, m + 1)))
    top = pows[n] * a0
    scale = f._den if top > 0 else -f._den  # the sign moves to the numerators
    return Egf._from_nums([scale * bm * pows[n - m] for m, bm in enumerate(b)], abs(top))


# -- elementary series -----------------------------------------------


def exp_series(order: int, scale=1) -> Egf:
    """e^(c t): a_n = c^n."""
    c = Fraction(scale)
    return Egf(int_pow(c, n) for n in range(order + 1))


def expm1_series(order: int, scale=1) -> Egf:
    """e^(c t) - 1: like exp but with zero constant term."""
    c = Fraction(scale)
    return Egf(Fraction(0) if n == 0 else int_pow(c, n) for n in range(order + 1))


def log1p_series(order: int, scale=1) -> Egf:
    """log(1 + c t): a_n = (-1)^(n-1) (n-1)! c^n for n >= 1."""
    c = Fraction(scale)
    out = [Fraction(0)]
    for n in range(1, order + 1):
        sign = 1 if (n - 1) % 2 == 0 else -1
        out.append(sign * factorial(n - 1) * int_pow(c, n))
    return Egf(out)


def geom_series(order: int) -> Egf:
    """1/(1 - t): a_n = n!."""
    return Egf(Fraction(factorial(n)) for n in range(order + 1))


def pow1p_series(x, order: int) -> Egf:
    """(1 + t)^x for rational x: a_n = x(x-1)...(x-n+1)."""
    x = Fraction(x)
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * (x - (n - 1)))
    return Egf(out)


def dilog_series(order: int) -> Egf:
    """Li_2(t) = sum t^n/n^2: a_n = n!/n^2 for n >= 1."""
    out = [Fraction(0)]
    for n in range(1, order + 1):
        out.append(Fraction(factorial(n), n * n))
    return Egf(out)


def monomial_series(c, m: int, order: int) -> Egf:
    """The single term c t^m / m!, i.e. a_m = c."""
    if m < 0:
        raise ValueError(f"negative degree {m}")
    if m > order:
        raise ValueError(f"degree {m} exceeds order {order}")
    out = [Fraction(0)] * (order + 1)
    out[m] = Fraction(c)
    return Egf(out)


def egf_elementary(kind: str, order: int, *, x=None, c=None, m=None) -> Egf:
    """Build one of the named series; pow1p needs x, monomial needs c and m."""
    if order < 0:
        raise ValueError(f"negative order {order}")
    if kind == "exp":
        return exp_series(order)
    if kind == "expm1":
        return expm1_series(order)
    if kind == "log1p":
        return log1p_series(order)
    if kind == "geom":
        return geom_series(order)
    if kind == "pow1p":
        if x is None:
            raise ValueError("pow1p needs the exponent x")
        return pow1p_series(x, order)
    if kind == "dilog":
        return dilog_series(order)
    if kind == "monomial":
        if c is None or m is None:
            raise ValueError("monomial needs c and m")
        return monomial_series(c, m, order)
    raise ValueError(f"unknown elementary series kind {kind!r}")


# -- substitution, both routes ---------------------------------------


def _substitution(f: Egf, lam, mu, kind: str, ctx: SeqContext | None) -> list[Fraction]:
    """The dual-route engine behind both substitutions.

    The direct route is the weighted Stirling transform of f's
    coefficients over the ``kind`` triangle; the composed route is f
    composed with (mu/lam)(e^(lam t) - 1) for kind "second" or with
    (mu/lam)log(1 + lam t) for kind "first".  A disagreement means a
    defect in one engine, so it raises rather than returning either
    answer.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    direct = weighted_stirling_transform(f.coeffs, lam, mu, kind, ctx)
    inner = (expm1_series if kind == "second" else log1p_series)(f.order, lam)
    composed = egf_compose(f, inner.scale(mu / lam)).coeffs
    if list(composed) != direct:
        i = next(i for i, (d, c) in enumerate(zip(direct, composed)) if d != c)
        raise ArithmeticError(
            f"substitution routes disagree; engine defect: kind {kind}, index {i}, "
            f"direct {format_rational(direct[i])}, composed {format_rational(composed[i])}, "
            f"lam {format_rational(lam)}, mu {format_rational(mu)}, order {f.order}"
        )
    return direct


def stirling_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)(e^(lam t) - 1)), computed by both routes."""
    return _substitution(f, lam, mu, "second", ctx)


def log_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)log(1 + lam t)), computed by both routes."""
    return _substitution(f, lam, mu, "first", ctx)
