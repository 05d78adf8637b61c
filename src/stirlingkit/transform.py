"""Sequence-to-sequence transforms built on the two Stirling triangles.

Every transform is length-preserving, exact, and pure; triangle rows come
from the ``SeqContext`` passed in, or from the default context when none is.

All four are one engine, b_n = sum_k T(n, k) lam^(n-k) mu^k a_k, with T
read a whole row at a time from S, s or Pascal's triangle.  The inputs are
brought over one common denominator and the weights over another, so each
output is an integer sum turned into one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .exact import common_denominator
from .seq import SeqContext, context


def _pascal_row(n: int) -> list[int]:
    return [comb(n, k) for k in range(n + 1)]


def _transform(values, row, lam: Fraction | int = 1, mu: Fraction | int = 1) -> list[Fraction]:
    """b_n = sum_k row(n)[k] lam^(n-k) mu^k a_k for n < len(values).

    With a_k = nums_k / den over one common denominator, lam = p/q and
    mu = r/s, the weight lam^(n-k) mu^k is (ps)^(n-k) (qr)^k / (qs)^n, so
    b_n is the integer sum_k T(n, k) (ps)^(n-k) (qr)^k nums_k over
    den (qs)^n.
    """
    nums, den = common_denominator(values)
    if not nums:
        raise ValueError("empty input sequence")
    down = lam.numerator * mu.denominator
    up = lam.denominator * mu.numerator
    step = lam.denominator * mu.denominator
    weighted = [up**k * x for k, x in enumerate(nums)]
    # ps = 1 in every unweighted transform, so its powers are all 1
    down_pows = [down**j for j in range(len(nums))] if down != 1 else None
    out = []
    scale = den
    for n in range(len(nums)):
        # down_pows[n::-1] is (ps)^n, ..., (ps)^0 against k = 0, ..., n
        terms = weighted if down_pows is None else map(mul, down_pows[n::-1], weighted)
        out.append(Fraction(sum(map(mul, row(n), terms)), scale))
        scale *= step
    return out


def stirling_transform(a, ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k S(n, k) a_k."""
    return _transform(a, context(ctx).stirling2_row)


def stirling_inverse(b, ctx: SeqContext | None = None) -> list[Fraction]:
    """a_n = sum_k s(n, k) b_k; exact inverse of :func:`stirling_transform`."""
    return _transform(b, context(ctx).stirling1_row)


def binomial_transform(a, alternating: bool = False) -> list[Fraction]:
    """b_n = sum_k C(n, k) a_k, or with (-1)^k weights when alternating.

    The alternating form is an involution.
    """
    return _transform(a, _pascal_row, mu=-1 if alternating else 1)


def weighted_stirling_transform(a, lam, mu, kind: str = "second", ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k T(n, k) lam^(n-k) mu^k a_k with T one of the triangles.

    kind "second" uses S(n, k), kind "first" uses signed s(n, k).  With
    lam = mu = 1 the "second" kind is the plain Stirling transform.
    """
    if kind not in ("second", "first"):
        raise ValueError(f"unknown kind {kind!r}; expected 'second' or 'first'")
    ctx = context(ctx)
    return _transform(a, ctx.stirling2_row if kind == "second" else ctx.stirling1_row, Fraction(lam), Fraction(mu))
