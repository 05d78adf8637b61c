"""Sequence transforms: round trips, linearity, and triangle weights."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import stirlingkit.transform as transform
from stirlingkit import (
    Egf,
    SeqContext,
    binomial,
    binomial_transform,
    log_substitution,
    stirling_inverse,
    stirling_substitution,
    stirling_transform,
    weighted_stirling_transform,
)

from support import (
    binomial_transform_oracle,
    random_rationals,
    stirling2_oracle,
    stirling_inverse_oracle,
    stirling_transform_oracle,
    weighted_stirling_transform_oracle,
)


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


# -- the integer engine against the former Fraction sums -------------

long_seqs = st.lists(
    st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=1,
    max_size=48,
)
weights = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=40, deadline=None)
@given(long_seqs, weights, weights)
def test_engine_matches_fraction_sum_oracles(ctx, a, lam, mu):
    assert stirling_transform(a, ctx) == stirling_transform_oracle(a, ctx)
    assert stirling_inverse(a, ctx) == stirling_inverse_oracle(a, ctx)
    for alternating in (False, True):
        assert binomial_transform(a, alternating) == binomial_transform_oracle(a, alternating)
    for kind in ("second", "first"):
        got = weighted_stirling_transform(a, lam, mu, kind, ctx)
        assert got == weighted_stirling_transform_oracle(a, lam, mu, kind, ctx), kind


signed_weights = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@settings(max_examples=12, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    lam=st.one_of(st.just(Fraction(0)), signed_weights),
    mu=signed_weights,
    route=st.sampled_from(["second", "first", "plain", "alternating"]),
)
@example(length=300, seed=1, lam=Fraction(7), mu=Fraction(-1, 5), route="first")
@example(length=33, seed=2, lam=Fraction(-5, 4), mu=Fraction(3, 2), route="second")
@example(length=40, seed=3, lam=Fraction(0), mu=Fraction(-2, 3), route="first")
@example(length=300, seed=4, lam=Fraction(1), mu=Fraction(1), route="alternating")
def test_block_fold_matches_the_fraction_oracles_across_blocks(ctx, length, seed, lam, mu, route):
    # lengths up to 300 cross many of the engine's blocks of rows, and a
    # negative lam makes each block's exact division by a negative power
    a = random_rationals(random.Random(seed), length)
    if route in ("second", "first"):
        assert weighted_stirling_transform(a, lam, mu, route, ctx) == weighted_stirling_transform_oracle(a, lam, mu, route, ctx)
    else:
        alternating = route == "alternating"
        assert binomial_transform(a, alternating) == binomial_transform_oracle(a, alternating)


def test_a_weighted_transform_takes_one_product_per_triangle_entry(ctx, monkeypatch):
    # work-count guard: a length-L weighted transform multiplies each of the
    # L(L+1)/2 triangle entries once, plus O(L) products per block of rows
    # for the weights and powers, not twice as it would with down^(n-k)
    # applied per entry
    size = 100
    blocks = -(-size // transform._BLOCK)
    a = random_rationals(random.Random(29), size)
    lam, mu = Fraction(-5, 4), Fraction(3, 2)
    want = {kind: weighted_stirling_transform(a, lam, mu, kind, ctx) for kind in ("second", "first")}
    products = 0

    def counting(x, y):
        nonlocal products
        products += 1
        return x * y

    monkeypatch.setattr(transform, "mul", counting)
    for kind, out in want.items():
        products = 0
        assert weighted_stirling_transform(a, lam, mu, kind, ctx) == out
        assert size * (size + 1) // 2 < products <= size * (size + 1) // 2 + (blocks + 4) * size, kind


def test_outputs_are_canonical_fractions(ctx):
    out = weighted_stirling_transform([Fraction(1, 6), Fraction(1, 4), 3], Fraction(2, 3), Fraction(-3, 2), "second", ctx)
    assert all(type(v) is Fraction for v in out)
    # b_2 = S(2,1) lam mu a_1 + S(2,2) mu^2 a_2 = -1/4 + 27/4
    assert out == [Fraction(1, 6), Fraction(-3, 8), Fraction(13, 2)]


class RowFlippedContext(SeqContext):
    """s(3, 2) has the wrong sign, injected through the row method only."""

    def stirling1_row(self, n):
        row = super().stirling1_row(n)
        if n == 3:
            return row[:2] + (-row[2],) + row[3:]
        return row


def test_row_fault_reaches_entries_transforms_and_substitution(ctx):
    bad = RowFlippedContext()
    assert ctx.stirling1(3, 2) == -3 and bad.stirling1(3, 2) == 3
    a = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]
    assert stirling_inverse(a, bad) != stirling_inverse(a, ctx)
    lam, mu = Fraction(1, 2), Fraction(3)
    assert weighted_stirling_transform(a, lam, mu, "first", bad) != weighted_stirling_transform(
        a, lam, mu, "first", ctx
    )
    assert weighted_stirling_transform(a, lam, mu, "second", bad) == weighted_stirling_transform(
        a, lam, mu, "second", ctx
    )
    log_substitution(Egf(a), lam, mu, ctx)
    with pytest.raises(ArithmeticError):
        log_substitution(Egf(a), lam, mu, bad)


class CountingContext(SeqContext):
    """Counts whole-row reads and single-entry lookups separately."""

    def __init__(self):
        super().__init__()
        self.row_reads = 0
        self.entry_calls = 0

    def stirling2_row(self, n):
        self.row_reads += 1
        return super().stirling2_row(n)

    def stirling1_row(self, n):
        self.row_reads += 1
        return super().stirling1_row(n)

    def stirling2(self, n, k):
        self.entry_calls += 1
        return super().stirling2(n, k)

    def stirling1(self, n, k):
        self.entry_calls += 1
        return super().stirling1(n, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, c: stirling_transform(a, c),
        lambda a, c: stirling_inverse(a, c),
        lambda a, c: weighted_stirling_transform(a, Fraction(-2, 3), Fraction(5, 7), "second", c),
        lambda a, c: weighted_stirling_transform(a, Fraction(-2, 3), Fraction(5, 7), "first", c),
    ],
)
def test_one_row_read_per_output_and_no_entry_lookups(call):
    # work-count guard: the transforms read each triangle row once and
    # never fall back to one locked lookup per entry
    counting = CountingContext()
    out = call(random_rationals(random.Random(23), 48), counting)
    assert len(out) == 48
    assert counting.row_reads == 48
    assert counting.entry_calls == 0
