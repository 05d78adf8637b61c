"""Truncated exponential generating functions over exact rationals.

An ``Egf`` of order N stores coefficients a_0..a_N and denotes the sum of
a_n t^n / n! for n <= N.  All arithmetic is exact and order-strict:
products and compositions require equal orders.  Nothing ever extends a
truncation silently.

Coefficients are stored as integer numerators over one denominator, and
every kernel works on those exponential numerators; none converts to
another form.  At order N:

- the product is one dot product of one operand's numerators with each
  binomial row C(n, i) g_(n-i) of the other's, whichever has more zero
  coefficients: (N+1)(N+2) coefficient products, half of them for the rows;
- composition grows the partial Bell columns of the inner series one
  from the last over the shifted rows C(n-1, i) g_(n-i): N(N+1)/2
  products for the rows and about N^3/6 for the columns;
- the reciprocal is a long division whose numerators are reduced against
  the constant term only, summing at most N(N+1)/2 terms
  C(m, k) a_k c_(m-k), fewer when coefficients are zero.

The elementary series are built from integer numerators as well.  The
ordinary-coefficient view c_n = a_n / n! is public API only
(``to_ordinary``, ``from_ordinary`` and ``ordinary_mul``), for the places
where plain Cauchy convolution is the natural tool; conversion in both
directions is exact.

The two substitution routines at the bottom are the load-bearing piece:
each one computes the same sequence twice, once as the weighted Stirling
transform

    out_n = sum_k S(n, k) lam^(n-k) mu^k a_k      (exponential inner)
    out_n = sum_k s(n, k) lam^(n-k) mu^k a_k      (logarithmic inner)

and once by literal series composition with (mu/lam)(e^(lam t) - 1) or
(mu/lam)log(1 + lam t), and insists the answers agree, compared as
canonical integer vectors, before returning.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul

from .exact import _convolve, _Vector, common_denominator, factorial, format_rational
from .seq import SeqContext, context
from .transform import _fraction, _sums


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


def _binomial_rows(g: tuple[int, ...], shift: int) -> list[list[int]]:
    """Weight rows of a binomial convolution with g: rows[n] is
    [C(n-shift, i) g_(n-i) for i = 0..n-shift], and [] for n < shift.

    Shift 0 gives the rows of an EGF product, shift 1 the rows of the
    partial Bell recurrence.  The binomials come from Pascal additions, so
    the rows take (N-shift+1)(N-shift+2)/2 products at order N.
    """
    rows = [[]] * shift
    pascal = [1]  # row n - shift of Pascal's triangle
    for n in range(shift, len(g)):
        rows.append(list(map(mul, pascal, g[n::-1])))
        pascal = [1, *map(add, pascal, pascal[1:]), 1]
    return rows


def egf_mul(f: Egf, g: Egf) -> Egf:
    """Product via binomial convolution: c_n = sum_k C(n,k) a_k b_(n-k),
    one dot product of one operand's numerators with each binomial row of
    the other's, over the product of the denominators.  At order N that is
    (N+1)(N+2) products, half of them for the rows.  The rows come from
    the operand with more zero coefficients: each zero makes a diagonal of
    them, and every product with it, cheap."""
    f._match(g)
    F, G = f._nums, g._nums
    if F.count(0) > G.count(0):
        F, G = G, F
    nums = [sum(map(mul, row, F)) for row in _binomial_rows(G, 0)]
    return Egf._from_nums(nums, f._den * g._den)


def _bell_column(rows: list[list[int]], prev: list[int], k: int) -> list[int]:
    """Column k of the partial Bell numerators from column k-1 (prev):
    out[n] = sum_i rows[n][i] prev[i] over i = k-1..n-1, and 0 for n < k.

    rows[n][i] is C(n-1, i) G_(n-i); prev is zero below index k-1, so each
    entry is one dot product over the live tail and a column costs
    (N-k+1)(N-k+2)/2 products.
    """
    tail = prev[k - 1 :]
    return [0] * k + [sum(map(mul, row[k - 1 :], tail)) for row in rows[k:]]


def egf_compose(f: Egf, g: Egf) -> Egf:
    """f(g(t)) for an inner series with zero constant term.

    With g = G/d, the coefficient n of g^k/k! is the partial Bell value
    B_(n,k)(G)/d^k, and B_(n,k) = sum_i C(n-1, i) G_(n-i) B_(i,k-1)
    (Comtet, Advanced Combinatorics, 3.3).  Each column k is grown from
    the last by :func:`_bell_column` over the weight rows of
    :func:`_binomial_rows`, made once, and reduced by its gcd against its
    denominator.  The columns with f_k != 0 are kept, and one fold at the
    end adds each f_k (L/den_k) column_k over L, the lcm of their
    denominators, so no partial sum is ever rescaled.
    An order-N compose takes N(N+1)/2 products for the rows and about
    N^3/6 for the columns.  With g(0) = 0 the truncation is exact.
    """
    f._match(g)
    G = g._nums
    if G[0] != 0:
        raise ValueError("inner series must have zero constant term")
    F = f._nums
    size = len(F)
    rows = _binomial_rows(G, 1)
    last = max([k for k, c in enumerate(F) if c], default=0)
    kept = []  # (f_k, column k, its denominator) for each k >= 1 with f_k != 0
    column = [1] + [0] * (size - 1)  # B_(n,0) over column_den
    column_den = 1
    for k in range(1, last + 1):
        column = _bell_column(rows, column, k)
        column_den *= g._den
        common = gcd(column_den, *column)
        if common != 1:
            column = [c // common for c in column]
            column_den //= common
        if F[k]:
            kept.append((F[k], column, column_den))
    den = lcm(*[d for _, _, d in kept])
    acc = [F[0] * den] + [0] * (size - 1)
    for c, column, column_den in kept:
        b = c * (den // column_den)
        acc = [x + b * y for x, y in zip(acc, column)]
    return Egf._from_nums(acc, den * f._den)


def egf_reciprocal(f: Egf) -> Egf:
    """1/f for a_0 != 0, by long division on the numerators A of f = A/D.

    The reciprocal of A is kept as integer numerators C over one
    denominator E, starting from 1/A_0; each new one is

        C_m = -sum_k C(m, k) A_k C_(m-k) / (A_0 E)

    over the nonzero A_k, reduced against A_0 only: when A_0/gcd is not 1,
    every earlier numerator and E are multiplied by it.  So the numbers
    grow only by the factors the answer needs, and 1/f = D C / E.
    """
    a = f._nums
    a0 = a[0]
    if a0 == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    c = [1 if a0 > 0 else -1]
    den = abs(a0)
    live = []  # the k <= m with A_k != 0
    for m in range(1, len(a)):
        if a[m]:
            live.append(m)
        s = sum([comb(m, k) * a[k] * c[m - k] for k in live])
        common = gcd(s, a0)
        h, s = a0 // common, s // common
        if h < 0:
            h, s = -h, -s
        if h != 1:
            c = [h * x for x in c]
            den *= h
        c.append(-s)
    return Egf._from_nums([f._den * x for x in c], den)


# -- elementary series -----------------------------------------------


def _check_order(order: int) -> None:
    """The one order check that every elementary series goes through."""
    if order < 0:
        raise ValueError(f"negative order {order}")


def _exp_log_nums(order: int, lam: Fraction, mu: Fraction, kind: str) -> tuple[list[int], int]:
    """(nums, den) of (mu/lam)(e^(lam t) - 1) for kind "second", or of
    (mu/lam)log(1 + lam t) for kind "first" (mu t when lam = 0).

    a_0 = 0 and a_n = mu lam^(n-1) w_n with w_n = 1, or
    (-1)^(n-1) (n-1)! for the logarithm.  With lam = p/q and mu = r/s,
    that is r p^(n-1) w_n q^(order-n) over s q^(order-1).
    """
    _check_order(order)
    if order == 0:
        return [0], 1
    p, q = lam.numerator, lam.denominator
    ups = [mu.numerator]  # r p^j w_(j+1)
    downs = [1]  # q^j
    for j in range(1, order):
        ups.append(ups[-1] * (p if kind == "second" else -p * j))
        downs.append(downs[-1] * q)
    return [0, *map(mul, ups, reversed(downs))], mu.denominator * downs[-1]


def exp_series(order: int, scale=1) -> Egf:
    """e^(c t): a_n = c^n."""
    c = Fraction(scale)
    nums, den = _exp_log_nums(order, c, c, "second")
    nums[0] = den
    return Egf._from_nums(nums, den)


def expm1_series(order: int, scale=1) -> Egf:
    """e^(c t) - 1: like exp but with zero constant term."""
    c = Fraction(scale)
    return Egf._from_nums(*_exp_log_nums(order, c, c, "second"))


def log1p_series(order: int, scale=1) -> Egf:
    """log(1 + c t): a_n = (-1)^(n-1) (n-1)! c^n for n >= 1."""
    c = Fraction(scale)
    return Egf._from_nums(*_exp_log_nums(order, c, c, "first"))


def geom_series(order: int) -> Egf:
    """1/(1 - t): a_n = n!."""
    _check_order(order)
    return Egf._from_nums([factorial(n) for n in range(order + 1)], 1)


def pow1p_series(x, order: int) -> Egf:
    """(1 + t)^x for rational x: a_n = x(x-1)...(x-n+1), which for x = p/q
    is the integer p(p - q)...(p - (n-1)q) over q^n."""
    _check_order(order)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    nums = [q**order]  # a_n over q^order
    for j in range(order):
        nums.append(nums[-1] * (p - j * q) // q)
    return Egf._from_nums(nums, q**order)


def dilog_series(order: int) -> Egf:
    """Li_2(t) = sum t^n/n^2: a_n = n!/n^2 = (n-1)!/n for n >= 1."""
    _check_order(order)
    den = lcm(*range(1, order + 1))
    return Egf._from_nums([0] + [factorial(n - 1) * (den // n) for n in range(1, order + 1)], den)


def monomial_series(c, m: int, order: int) -> Egf:
    """The single term c t^m / m!, i.e. a_m = c."""
    _check_order(order)
    if m < 0:
        raise ValueError(f"negative degree {m}")
    if m > order:
        raise ValueError(f"degree {m} exceeds order {order}")
    c = Fraction(c)
    return Egf._from_nums([c.numerator if n == m else 0 for n in range(order + 1)], c.denominator)


# the named series that take the order alone
_BY_ORDER = {"exp": exp_series, "expm1": expm1_series, "log1p": log1p_series, "geom": geom_series, "dilog": dilog_series}


def egf_elementary(kind: str, order: int, *, x=None, c=None, m=None) -> Egf:
    """Build one of the named series; pow1p needs x, monomial needs c and m."""
    if kind in _BY_ORDER:
        return _BY_ORDER[kind](order)
    if kind == "pow1p":
        if x is None:
            raise ValueError("pow1p needs the exponent x")
        return pow1p_series(x, order)
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
    lam, mu = _fraction(lam), _fraction(mu)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    ctx = context(ctx)
    row = ctx.stirling2_row if kind == "second" else ctx.stirling1_row
    # the direct route's value n is direct[n] / scales[n]
    direct, scales = _sums(f._nums, row, lam, mu)
    scales = [f._den * scale for scale in scales]
    composed = egf_compose(f, Egf._from_nums(*_exp_log_nums(f.order, lam, mu, kind)))
    for i, (d, c, scale) in enumerate(zip(direct, composed._nums, scales)):
        if d * composed._den != c * scale:
            raise ArithmeticError(
                f"substitution routes disagree; engine defect: kind {kind}, index {i}, "
                f"direct {format_rational(Fraction(d, scale))}, composed {format_rational(composed.coeffs[i])}, "
                f"lam {format_rational(lam)}, mu {format_rational(mu)}, order {f.order}"
            )
    return list(map(Fraction, direct, scales))


def stirling_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)(e^(lam t) - 1)), computed by both routes."""
    return _substitution(f, lam, mu, "second", ctx)


def log_substitution(f: Egf, lam, mu, ctx: SeqContext | None = None) -> list[Fraction]:
    """Coefficients of f((mu/lam)log(1 + lam t)), computed by both routes."""
    return _substitution(f, lam, mu, "first", ctx)
