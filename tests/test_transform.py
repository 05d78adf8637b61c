"""Sequence transforms: round trips, linearity, and triangle weights."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stirlingkit import (
    Egf,
    SeqContext,
    binomial,
    binomial_transform,
    stirling_inverse,
    stirling_substitution,
    stirling_transform,
    weighted_stirling_transform,
)

from support import random_rationals, stirling2_oracle


@pytest.fixture(scope="module")
def ctx():
    return SeqContext()


frac_seqs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    min_size=1,
    max_size=25,
)


@settings(max_examples=80)
@given(frac_seqs)
def test_round_trip_both_directions(a):
    assert stirling_inverse(stirling_transform(a)) == list(map(Fraction, a))
    assert stirling_transform(stirling_inverse(a)) == list(map(Fraction, a))


@given(frac_seqs, frac_seqs)
def test_linearity(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    alpha, beta = Fraction(3, 2), Fraction(-2)
    mixed = [alpha * x + beta * y for x, y in zip(a, b)]
    ta = stirling_transform(a)
    tb = stirling_transform(b)
    assert stirling_transform(mixed) == [
        alpha * x + beta * y for x, y in zip(ta, tb)
    ]


def test_transform_weights_match_bruteforce_triangle():
    rng = random.Random(7)
    a = random_rationals(rng, 8)
    out = stirling_transform(a)
    for n in range(8):
        want = sum(stirling2_oracle(n, k) * a[k] for k in range(n + 1))
        assert out[n] == want, n


def test_transform_of_ones_is_partition_counts(ctx):
    ones = [Fraction(1)] * 12
    assert stirling_transform(ones) == [ctx.bell(n) for n in range(12)]


def test_length_preserved():
    a = [Fraction(1), Fraction(2), Fraction(3)]
    assert len(stirling_transform(a)) == 3
    assert len(stirling_inverse(a)) == 3
    assert len(binomial_transform(a)) == 3


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        stirling_transform([])
    with pytest.raises(ValueError):
        binomial_transform([])


def test_binomial_transform_weights(ctx):
    rng = random.Random(13)
    a = random_rationals(rng, 9)
    plain = binomial_transform(a)
    alt = binomial_transform(a, alternating=True)
    for n in range(9):
        assert plain[n] == sum(binomial(n, k) * a[k] for k in range(n + 1))
        assert alt[n] == sum(
            (-1) ** k * binomial(n, k) * a[k] for k in range(n + 1)
        )


@given(frac_seqs)
def test_alternating_binomial_is_involution(a):
    twice = binomial_transform(binomial_transform(a, alternating=True), alternating=True)
    assert twice == list(map(Fraction, a))


def test_binomial_transform_of_fixed_point_free_counts(ctx):
    # distributing fixed points over a fixed-point-free core rebuilds n!
    d = [Fraction(ctx.derangement(n)) for n in range(10)]
    assert binomial_transform(d) == [ctx.factorial(n) for n in range(10)]


def test_consistency_with_substitution_engine(ctx):
    rng = random.Random(17)
    a = random_rationals(rng, 10)
    via_series = stirling_substitution(Egf(a), 1, 1, ctx)
    assert stirling_transform(a, ctx) == via_series


def test_weighted_second_kind_generalizes_plain(ctx):
    rng = random.Random(19)
    a = random_rationals(rng, 10)
    assert weighted_stirling_transform(a, 1, 1, "second", ctx) == stirling_transform(
        a, ctx
    )
    assert weighted_stirling_transform(a, 1, 1, "first", ctx) == stirling_inverse(
        a, ctx
    )


def test_weighted_transform_weights(ctx):
    rng = random.Random(21)
    a = random_rationals(rng, 8)
    lam, mu = Fraction(1, 2), Fraction(-3)
    out = weighted_stirling_transform(a, lam, mu, "second", ctx)
    for n in range(8):
        want = sum(
            ctx.stirling2(n, k) * lam ** (n - k) * mu**k * a[k]
            for k in range(n + 1)
        )
        assert out[n] == want, n


def test_weighted_kind_validated(ctx):
    with pytest.raises(ValueError):
        weighted_stirling_transform([Fraction(1)], 1, 1, "third", ctx)
