"""Truncated exponential generating functions over exact rationals.

An ``Egf`` of order N stores coefficients a_0..a_N and denotes the sum of
a_n t^n / n! for n <= N.  All arithmetic is exact and order-strict:
products and compositions require equal orders, differentiation drops one
order, integration adds one.  Nothing ever extends a truncation silently.

The ordinary-coefficient view c_n = a_n / n! is exposed for the places
where plain Cauchy convolution is the natural tool; conversion in both
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

from .exact import _convolve, _Vector, binomial, factorial, int_pow
from .seq import SeqContext
from .transform import weighted_stirling_transform


class OrderMismatchError(ValueError):
    """Raised when an operation mixes truncations of different orders."""


class Egf(_Vector):
    """Immutable truncated EGF; ``coeffs[n]`` is a_n."""

    __slots__ = ()

    @staticmethod
    def _shape(cs: list[Fraction]) -> tuple[Fraction, ...]:
        if not cs:
            raise ValueError("an Egf needs at least the constant coefficient")
        return tuple(cs)

    def _match(self, other: "Egf") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} vs {other.order}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        inside = ", ".join(str(c) for c in self.coeffs)
        return f"Egf([{inside}])"


def to_ordinary(f: Egf) -> tuple[Fraction, ...]:
    """Ordinary power-series coefficients c_n = a_n / n!."""
    return tuple(a / factorial(n) for n, a in enumerate(f.coeffs))


def from_ordinary(coeffs) -> Egf:
    """Inverse of :func:`to_ordinary`: a_n = c_n * n!."""
    return Egf(Fraction(c) * factorial(n) for n, c in enumerate(coeffs))


def ordinary_mul(a, b) -> list[Fraction]:
    """Cauchy product of ordinary coefficient lists, truncated to the
    shorter length."""
    return _convolve(a, b, min(len(a), len(b)))


def egf_mul(f: Egf, g: Egf) -> Egf:
    """Product via binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k}."""
    f._match(g)
    return from_ordinary(ordinary_mul(to_ordinary(f), to_ordinary(g)))


def egf_compose(f: Egf, g: Egf) -> Egf:
    """f(g(t)) for an inner series with zero constant term.

    Runs Horner's scheme on the ordinary views, so each step is one
    truncated Cauchy product; with g(0) = 0 the truncation is exact.
    """
    f._match(g)
    if g.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = f.order
    fo = to_ordinary(f)
    go = list(to_ordinary(g))
    acc = [Fraction(0)] * (n + 1)
    acc[0] = fo[n]
    for i in range(n - 1, -1, -1):
        acc = ordinary_mul(acc, go)
        acc[0] += fo[i]
    return from_ordinary(acc)


def egf_reciprocal(f: Egf) -> Egf:
    """1/f for a_0 != 0, by binomial-convolution long division."""
    a = f.coeffs
    if a[0] == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    n = f.order
    b = [Fraction(0)] * (n + 1)
    b[0] = 1 / Fraction(a[0])
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += binomial(m, k) * a[k] * b[m - k]
        b[m] = -acc / a[0]
    return Egf(b)


def egf_derivative(f: Egf) -> Egf:
    """d/dt, shifting coefficients down; the order drops by one."""
    if f.order == 0:
        raise ValueError("cannot differentiate an order-0 truncation")
    return Egf(f.coeffs[1:])


def egf_integrate(f: Egf) -> Egf:
    """Antiderivative with zero constant term; the order grows by one."""
    return Egf((Fraction(0),) + f.coeffs)


def egf_truncate(f: Egf, order: int) -> Egf:
    if order < 0 or order > f.order:
        raise ValueError(f"cannot truncate order {f.order} to {order}")
    return Egf(f.coeffs[: order + 1])


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
        raise ArithmeticError("substitution routes disagree; engine defect")
    return direct


def stirling_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)(e^(lam t) - 1)), computed by both routes."""
    return _substitution(f, lam, mu, "second", ctx)


def log_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)log(1 + lam t)), computed by both routes."""
    return _substitution(f, lam, mu, "first", ctx)
