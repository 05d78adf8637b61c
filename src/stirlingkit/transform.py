"""Sequence-to-sequence transforms built on the two Stirling triangles.

Every transform is length-preserving, exact, and pure; triangle rows come
from the ``SeqContext`` passed in, or from the default context when none is.

All four are one integer engine, b_n = sum_k T(n, k) lam^(n-k) mu^k a_k,
with T read a whole row at a time from S, s or Pascal's triangle.  The
inputs go over one common denominator and the weights over another, so
the engine takes integer numerators and returns integer sums.  ``_sums``
is its one hand-off: it returns the sums with one scale per output, so
output n is sums[n] / scales[n].  The public transforms build one
Fraction per output from that pair; the identity registry and the
substitution engines keep the pair and compare by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .exact import common_denominator
from .seq import SeqContext, context


def _pascal_row(n: int) -> list[int]:
    return [comb(n, k) for k in range(n + 1)]


def _transform(nums: list[int], row, down: int, up: int) -> list[int]:
    """The integer sums sum_k row(n)[k] down^(n-k) up^k nums_k, n < len(nums).

    With a_k = nums_k / den, lam = p/q, mu = r/s, down = ps and up = qr,
    the weight lam^(n-k) mu^k is (ps)^(n-k) (qr)^k / (qs)^n, so b_n is the
    n-th sum over den (qs)^n.
    """
    if not nums:
        raise ValueError("empty input sequence")
    weighted = [up**k * x for k, x in enumerate(nums)]
    if down == 1:  # ps = 1 in every unweighted transform
        return [sum(map(mul, row(n), weighted)) for n in range(len(nums))]
    down_pows = [down**j for j in range(len(nums))]
    # down_pows[n::-1] is (ps)^n, ..., (ps)^0 against k = 0, ..., n
    return [sum(map(mul, row(n), map(mul, down_pows[n::-1], weighted))) for n in range(len(nums))]


def _sums(values, row, lam=1, mu=1) -> tuple[list[int], list[int]]:
    """(sums, scales) with sum_k row(n)[k] lam^(n-k) mu^k values_k equal to
    sums[n] / scales[n], for lam and mu each an int or a Fraction."""
    nums, den = common_denominator(values)
    sums = _transform(nums, row, lam.numerator * mu.denominator, lam.denominator * mu.numerator)
    step = lam.denominator * mu.denominator
    return sums, [den * step**n for n in range(len(sums))]


def stirling_transform(a, ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k S(n, k) a_k."""
    return list(map(Fraction, *_sums(a, context(ctx).stirling2_row)))


def stirling_inverse(b, ctx: SeqContext | None = None) -> list[Fraction]:
    """a_n = sum_k s(n, k) b_k; exact inverse of :func:`stirling_transform`."""
    return list(map(Fraction, *_sums(b, context(ctx).stirling1_row)))


def binomial_transform(a, alternating: bool = False) -> list[Fraction]:
    """b_n = sum_k C(n, k) a_k, or with (-1)^k weights when alternating.

    The alternating form is an involution.
    """
    return list(map(Fraction, *_sums(a, _pascal_row, mu=-1 if alternating else 1)))


def weighted_stirling_transform(a, lam, mu, kind: str = "second", ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k T(n, k) lam^(n-k) mu^k a_k with T one of the triangles.

    kind "second" uses S(n, k), kind "first" uses signed s(n, k).  With
    lam = mu = 1 the "second" kind is the plain Stirling transform.
    """
    if kind not in ("second", "first"):
        raise ValueError(f"unknown kind {kind!r}; expected 'second' or 'first'")
    ctx = context(ctx)
    row = ctx.stirling2_row if kind == "second" else ctx.stirling1_row
    return list(map(Fraction, *_sums(a, row, Fraction(lam), Fraction(mu))))
