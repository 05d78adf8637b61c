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
from itertools import accumulate, repeat
from operator import mul

from .exact import common_denominator
from .seq import SeqContext, _next_pascal_row, context

# Rows per fold of down's powers into the weights.  A row's products carry
# up to _BLOCK - 1 spare factors of down, so one fold over the whole length
# costs more than it saves at large lengths.
_BLOCK = 16


def _transform(nums: list[int], row, down: int, up: int) -> list[int]:
    """The integer sums sum_k row(n)[k] down^(n-k) up^k nums_k, n < len(nums).

    With a_k = nums_k / den, lam = p/q, mu = r/s, down = ps and up = qr,
    the weight lam^(n-k) mu^k is (ps)^(n-k) (qr)^k / (qs)^n, so b_n is the
    n-th sum over den (qs)^n.

    The powers of up and down are running products.  The powers of down
    are folded into the weights a block of rows at a time: for the rows
    n <= top of a block, w_k = up^k nums_k down^(top-k) is built once, and
    sum_k row(n)[k] w_k is the n-th sum times down^(top-n), which divides
    out exactly.  So a triangle entry costs one product, as when down = 1.
    With down = 0 (lam = 0) only the diagonal term is left.  Each output
    reads its row once.
    """
    if not nums:
        raise ValueError("empty input sequence")
    size = len(nums)
    if up != 1:
        nums = list(map(mul, accumulate(repeat(up, size - 1), mul, initial=1), nums))
    if down == 1:  # ps = 1 in every unweighted transform
        return [sum(map(mul, row(n), nums)) for n in range(size)]
    if down == 0:
        return [row(n)[n] * nums[n] for n in range(size)]
    down_pows = list(accumulate(repeat(down, size - 1), mul, initial=1))
    sums = []
    for start in range(0, size, _BLOCK):
        top = min(start + _BLOCK, size) - 1  # the block's last row
        folded = list(map(mul, nums, down_pows[top::-1]))
        sums += [sum(map(mul, row(n), folded)) // down_pows[top - n] for n in range(start, top + 1)]
    return sums


def _fraction(x) -> Fraction:
    """x as a Fraction, without the copy ``Fraction(x)`` makes of a
    Fraction: that copy is a large share of a short transform's time."""
    return x if type(x) is Fraction else Fraction(x)


def _sums(values, row, lam=1, mu=1) -> tuple[list[int], list[int]]:
    """(sums, scales) with sum_k row(n)[k] lam^(n-k) mu^k values_k equal to
    sums[n] / scales[n], for lam and mu each an int or a Fraction.

    scales[n] is den (qs)^n, with den the values' common denominator, built
    as running products like the powers in :func:`_transform`."""
    nums, den = common_denominator(values)
    sums = _transform(nums, row, lam.numerator * mu.denominator, lam.denominator * mu.numerator)
    return sums, list(accumulate(repeat(lam.denominator * mu.denominator, len(sums) - 1), mul, initial=den))


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
    a = list(a)
    rows = [(1,)]  # Pascal's rows by additions, each from the last
    for _ in range(1, len(a)):
        rows.append(_next_pascal_row(rows[-1]))
    return list(map(Fraction, *_sums(a, rows.__getitem__, mu=-1 if alternating else 1)))


def weighted_stirling_transform(a, lam, mu, kind: str = "second", ctx: SeqContext | None = None) -> list[Fraction]:
    """b_n = sum_k T(n, k) lam^(n-k) mu^k a_k with T one of the triangles.

    kind "second" uses S(n, k), kind "first" uses signed s(n, k).  With
    lam = mu = 1 the "second" kind is the plain Stirling transform.
    """
    if kind not in ("second", "first"):
        raise ValueError(f"unknown kind {kind!r}; expected 'second' or 'first'")
    ctx = context(ctx)
    row = ctx.stirling2_row if kind == "second" else ctx.stirling1_row
    return list(map(Fraction, *_sums(a, row, _fraction(lam), _fraction(mu))))
