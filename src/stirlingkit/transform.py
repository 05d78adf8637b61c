"""Sequence-to-sequence transforms built on the two Stirling triangles.

Every transform is length-preserving, exact, and pure; triangle rows come
from the ``SeqContext`` passed in, or from the default context when none is.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import binomial, int_pow
from .seq import SeqContext, context


def _as_fractions(values) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    if not out:
        raise ValueError("empty input sequence")
    return out


def stirling_transform(a, ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k S(n, k) a_k."""
    vals = _as_fractions(a)
    ctx = context(ctx)
    return [
        sum((ctx.stirling2(n, k) * vals[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(vals))
    ]


def stirling_inverse(b, ctx: SeqContext | None = None) -> list[Fraction]:
    """a_n = sum_k s(n, k) b_k; exact inverse of :func:`stirling_transform`."""
    vals = _as_fractions(b)
    ctx = context(ctx)
    return [
        sum((ctx.stirling1(n, k) * vals[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(vals))
    ]


def binomial_transform(a, alternating: bool = False) -> list[Fraction]:
    """b_n = sum_k C(n, k) a_k, or with (-1)^k weights when alternating.

    The alternating form is an involution.
    """
    vals = _as_fractions(a)
    out = []
    for n in range(len(vals)):
        acc = Fraction(0)
        for k in range(n + 1):
            term = binomial(n, k) * vals[k]
            if alternating and k % 2:
                term = -term
            acc += term
        out.append(acc)
    return out


def weighted_stirling_transform(a, lam, mu, kind: str = "second", ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k T(n, k) lam^(n-k) mu^k a_k with T one of the triangles.

    kind "second" uses S(n, k), kind "first" uses signed s(n, k).  With
    lam = mu = 1 the "second" kind is the plain Stirling transform.
    """
    vals = _as_fractions(a)
    lam = Fraction(lam)
    mu = Fraction(mu)
    if kind not in ("second", "first"):
        raise ValueError(f"unknown kind {kind!r}; expected 'second' or 'first'")
    ctx = context(ctx)
    weight = ctx.stirling2 if kind == "second" else ctx.stirling1
    return [
        sum(
            (weight(n, k) * int_pow(lam, n - k) * int_pow(mu, k) * vals[k] for k in range(n + 1)),
            Fraction(0),
        )
        for n in range(len(vals))
    ]
