"""Truncated exponential generating functions: algebra, elementary
series, composition, reciprocals, and the substitution engines."""

import builtins
import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

import stirlingkit.egf as egf
from hypothesis import example, given, settings, strategies as st

from stirlingkit import (
    Egf,
    OrderMismatchError,
    SeqContext,
    egf_compose,
    egf_elementary,
    egf_mul,
    egf_reciprocal,
    exp_series,
    expm1_series,
    format_rational,
    from_ordinary,
    geom_series,
    log1p_series,
    log_substitution,
    monomial_series,
    dilog_series,
    ordinary_mul,
    pow1p_series,
    stirling_substitution,
    to_ordinary,
)

from support import (
    assert_canonical,
    egf_compose_oracle,
    egf_mul_oracle,
    egf_reciprocal_oracle,
    random_rationals,
)


@pytest.fixture(scope="module")
def ctx():
    return SeqContext()


ORDER = 12

frac_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    min_size=1,
    max_size=10,
)


# -- container contract ----------------------------------------------


def test_constructor_rejects_empty():
    with pytest.raises(ValueError):
        Egf([])


def test_order_and_equality():
    f = Egf([1, 2, 3])
    assert f.order == 2
    assert f == Egf([Fraction(1), Fraction(2), Fraction(3)])
    assert f.coeffs == (1, 2, 3)


def test_repr_lists_the_coefficients_and_only_zero_is_false():
    assert repr(Egf([1, Fraction(-1, 2), 0])) == "Egf([1, -1/2, 0])"
    assert repr(Egf([0])) == "Egf([0])"
    # a zero series is false at every order, although it keeps its length
    assert not Egf([0]) and not Egf([0, 0, 0]) and not (exp_series(4) - exp_series(4))
    assert Egf([0, 0, 1]) and Egf([Fraction(1, 3)])


def test_immutable():
    f = Egf([1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = (5,)


def test_add_sub_scale():
    f = Egf([1, 2, 3])
    g = Egf([0, 1, 0])
    assert (f + g) == Egf([1, 3, 3])
    assert (f - g) == Egf([1, 1, 3])
    assert (-g) == Egf([0, -1, 0])
    assert f.scale(Fraction(1, 2)) == Egf([Fraction(1, 2), 1, Fraction(3, 2)])


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        Egf([1, 2]) + Egf([1, 2, 3])
    with pytest.raises(OrderMismatchError):
        egf_mul(Egf([1, 2]), Egf([1, 2, 3]))


# -- ordinary view ---------------------------------------------------


@given(frac_lists)
def test_ordinary_round_trip(seq):
    f = Egf(seq)
    assert from_ordinary(to_ordinary(f)) == f


def test_ordinary_view_divides_by_factorials():
    f = Egf([1, 1, 2, 6])
    assert to_ordinary(f) == (1, 1, 1, 1)


def test_ordinary_mul_is_cauchy_product():
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(3), Fraction(4)]
    assert ordinary_mul(a, b) == [3, 10]


# -- products and reciprocals ----------------------------------------


def test_egf_mul_is_binomial_convolution():
    rng = random.Random(11)
    a = random_rationals(rng, 7)
    b = random_rationals(rng, 7)
    f = egf_mul(Egf(a), Egf(b))
    for n in range(7):
        want = sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1))
        assert f.coeffs[n] == want, n


def test_exponential_inverse_pair():
    f = egf_mul(exp_series(ORDER), exp_series(ORDER, scale=-1))
    assert f.coeffs == (1,) + (0,) * ORDER


@settings(max_examples=60)
@given(frac_lists)
def test_reciprocal_multiplies_to_one(seq):
    if seq[0] == 0:
        seq = [Fraction(1)] + seq[1:]
    f = Egf(seq)
    prod = egf_mul(f, egf_reciprocal(f))
    assert prod.coeffs == (1,) + (0,) * f.order


# -- the integer kernels against the Fraction loops they replaced -------

# zeros drawn often, so that sparse and cancelling series are exercised
rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))


def _inner(order, lam, mu, log=False):
    """Coefficients of (mu/lam)(e^(lam t) - 1), or of (mu/lam)log(1 + lam t)
    when log: a_n = mu lam^(n-1), times (-1)^(n-1) (n-1)! for the log."""
    return [Fraction(0)] + [
        mu * lam ** (n - 1) * ((-1) ** (n - 1) * factorial(n - 1) if log else 1) for n in range(1, order + 1)
    ]


LAM, MU = Fraction(-3, 2), Fraction(5, 4)
NEAR_MILLION = Fraction(999_983, 1_000_003)


@st.composite
def egf_pairs(draw, max_size=40):
    a = draw(st.lists(rationals, min_size=1, max_size=max_size))
    b = draw(st.lists(rationals, min_size=len(a), max_size=len(a)))
    return a, b


@settings(max_examples=60, deadline=None)
@given(egf_pairs())
@example(([Fraction(-7, 3)], [Fraction(5, 2)]))  # order 0
@example(([0] * 7, [0, 1, Fraction(1, 2), -3, 0, 2, 1]))  # f = 0: no column kept
@example(([Fraction(-7, 3), 0, 0, 0, 0, 0], [0, Fraction(1, 2), 3, Fraction(-4, 5), 0, 1]))  # f = f_0: lcm() of no columns is 1
@example((  # zeros inside f: the columns between are grown but not kept
    [Fraction(3, 7), 0, 0, Fraction(-5, 2), 0, 0, 0, Fraction(1, 9), 0],
    [0, Fraction(2, 3), Fraction(-1, 5), 0, 7, 0, Fraction(1, 4), 0, 3],
))
@example(([1, 0, 0, 2, 0, Fraction(-1, 3), 0, 0], [0, 3, 0, 0, Fraction(1, 3), 0, 0, -1]))  # zero interiors
@example(([Fraction(-5, 2), 1, 2, 3, 4, 5], [Fraction(-1, 3), 0, 2, Fraction(1, 4), -1, 6]))  # negative leading terms
@example((
    [NEAR_MILLION, 0, Fraction(-1_000_033, 999_979), Fraction(1, 1_000_037), 0, 3],
    [Fraction(1_000_039, 999_961), 0, Fraction(-999_953, 1_000_081), Fraction(2, 999_983), 0, Fraction(1, 1_000_003)],
))
@example(([Fraction(k - 16, k + 1) for k in range(33)], [Fraction((-1) ** k, k * k + 1) for k in range(33)]))  # order 32
def test_egf_mul_matches_the_ordinary_round_trip(pair):
    a, b = pair
    prod = egf_mul(Egf(a), Egf(b))
    assert_canonical(prod)
    assert list(prod.coeffs) == egf_mul_oracle(a, b)


def test_egf_mul_keeps_its_numbers_near_the_width_of_the_answer(monkeypatch):
    # width guard on the product: its numerators reach the reduction over
    # the product of the denominators only, so nothing wider than the
    # answer times the largest binomial weight, C(20, 10), is reduced:
    # 42 bits for this 38-bit answer, where the N!-scaled ordinary
    # numerators brought 164
    rng = random.Random(20)
    f, g = Egf(random_rationals(rng, 21)), Egf(random_rationals(rng, 21))
    widths = []
    reduce = Egf._from_nums

    def recording(nums, den):
        widths.append(max([abs(x).bit_length() for x in [*nums, den]]))
        return reduce(nums, den)

    monkeypatch.setattr(Egf, "_from_nums", staticmethod(recording))
    out = egf_mul(f, g)
    assert list(out.coeffs) == egf_mul_oracle(f.coeffs, g.coeffs)
    answer = max([abs(x).bit_length() for x in [*out._nums, out._den]])
    assert len(widths) == 1
    assert widths[0] <= answer + comb(20, 10).bit_length() + 2


def test_egf_mul_builds_its_rows_from_the_sparser_operand(monkeypatch):
    # a zero coefficient zeroes a diagonal of the binomial rows, so the
    # rows come from the operand with more zeros; either way round, the
    # product's storage is the same
    rng = random.Random(12)
    built_from = []
    rows = egf._binomial_rows

    def recording(g, shift):
        built_from.append(g)
        return rows(g, shift)

    monkeypatch.setattr(egf, "_binomial_rows", recording)
    for order in [0, 1, 2, 5, 12, 20, 32]:
        for _ in range(6):
            dense = Egf(random_rationals(rng, order + 1))
            sparse = Egf([rng.choice([0, 0, 0, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                          for _ in range(order + 1)])
            for f, g in ((sparse, dense), (dense, sparse), (sparse, sparse)):
                built_from.clear()
                prod = egf_mul(f, g)
                assert_canonical(prod)
                assert prod == egf_mul(g, f)
                assert list(prod.coeffs) == egf_mul_oracle(f.coeffs, g.coeffs)
                zeros = [v._nums.count(0) for v in (f, g)]
                assert built_from[0] == (f if zeros[0] > zeros[1] else g)._nums
    # [1, -3/2, 0, ..., 0] times a dense series reads rows of two terms
    built_from.clear()
    egf_mul(Egf([1, Fraction(-3, 2)] + [0] * 30), Egf(random_rationals(rng, 32)))
    assert built_from[0] == (2, -3) + (0,) * 30


@settings(max_examples=60, deadline=None)
@given(egf_pairs())
@example(([Fraction(k - 3, 2 * k + 1) for k in range(9)], [0, 0, 1, Fraction(-2, 3), 0, 5, 0, 0, Fraction(1, 7)]))
@example((
    [Fraction(999_983, 1_000_003), 0, Fraction(-1_000_033, 999_979), Fraction(1, 1_000_037), 0, 3],
    [0, Fraction(1_000_039, 999_961), 0, Fraction(-999_953, 1_000_081), Fraction(2, 999_983), Fraction(1, 1_000_003)],
))
@example(([Fraction(-7, 3)], [0]))  # order 0
@example(([Fraction(2, 5), Fraction(-3)], [0, Fraction(4, 9)]))  # order 1
@example(([0] * 7, [0, 1, Fraction(1, 2), -3, 0, 2, 1]))  # f = 0: no column kept
@example(([Fraction(-7, 3), 0, 0, 0, 0, 0], [0, Fraction(1, 2), 3, Fraction(-4, 5), 0, 1]))  # f = f_0: lcm() of no columns is 1
@example((  # zeros inside f: the columns between are grown but not kept
    [Fraction(3, 7), 0, 0, Fraction(-5, 2), 0, 0, 0, Fraction(1, 9), 0],
    [0, Fraction(2, 3), Fraction(-1, 5), 0, 7, 0, Fraction(1, 4), 0, 3],
))
@example(([Fraction(-5, 2), 1, 2, 3, 4, 5, 6, 7], [0, 3, 0, 0, Fraction(1, 3), 0, 0, -1]))  # zero interior of g
@example(([0] + [Fraction(factorial(n), n * n) for n in range(1, 13)], [0] + [-factorial(n) for n in range(1, 13)]))  # DIL
@example(([Fraction(k + 1, k * k + 2) for k in range(11)], _inner(10, LAM, MU)))
@example(([Fraction(k + 1, k * k + 2) for k in range(11)], _inner(10, LAM, MU, log=True)))
@example(([NEAR_MILLION, Fraction(-1_000_033, 999_979), 0, 5], [0, Fraction(1_000_039, 999_961), 1, 0]))
def test_egf_compose_matches_the_fraction_horner_loop(pair):
    f, g = pair
    g = [Fraction(0)] + g[1:]
    out = egf_compose(Egf(f), Egf(g))
    assert_canonical(out)
    assert list(out.coeffs) == egf_compose_oracle(f, g)


def test_egf_compose_skips_the_leading_zeros_of_each_power(monkeypatch):
    # work-count guard on the partial-Bell column step: column k is zero
    # below index k, so at order 20 the columns take 1,540 products, where
    # multiplying the zero heads would take 2,870; the 210 row weights are
    # made once, outside the step
    products = 0

    class Counted(int):
        def __mul__(self, other):
            nonlocal products
            products += 1
            return int(self) * other

        __rmul__ = __mul__

    def counting(rows, prev, k):
        return column(rows, [Counted(x) for x in prev], k)

    column = egf._bell_column
    monkeypatch.setattr(egf, "_bell_column", counting)
    order = 20
    f = Egf([Fraction(1, m + 1) for m in range(order + 1)])
    out = egf_compose(f, expm1_series(order, Fraction(3, 7)))
    assert list(out.coeffs) == egf_compose_oracle(f.coeffs, expm1_series(order, Fraction(3, 7)).coeffs)
    assert 0 < products <= 1600


def test_egf_reciprocal_keeps_its_numbers_near_the_width_of_the_answer(monkeypatch):
    # width guard on T5c's series a_m = 1/(m+1): a recurrence over powers
    # of a_0's numerator lcm(1..m+1) reaches 14,499 bits at order 100, for
    # an answer whose widest numerator has 389
    widths = []

    def recording(items, start=0):
        items = list(items)
        out = builtins.sum(items, start)
        widths.append(max([abs(x).bit_length() for x in [*items, out]]))
        return out

    monkeypatch.setattr(egf, "sum", recording, raising=False)
    a = [Fraction(1, m + 1) for m in range(101)]
    out = egf_reciprocal(Egf(a))
    assert list(out.coeffs) == egf_reciprocal_oracle(a)
    assert len(widths) == 100
    assert max(widths) <= 2 * max([abs(x).bit_length() for x in out._nums])


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=40).filter(lambda a: a[0] != 0))
@example([Fraction(-7, 3)])  # order 0
@example([Fraction(2), Fraction(5, 3)])  # order 1
@example([Fraction(3), 0, 0, 0, 0, 0])  # a constant
@example([1, 0, 0, 2, 0, Fraction(-1, 3), 0, 0])  # zero interior coefficients
@example([1] + [-factorial(n) for n in range(1, 13)])  # DIL's inner, plus 1
@example([1] + _inner(10, LAM, MU)[1:])
@example([1] + _inner(10, LAM, MU, log=True)[1:])
@example([Fraction(-5, 2), 1, Fraction(1, 3), 0, 2, -1])  # negative a_0
@example([NEAR_MILLION, Fraction(-1_000_033, 999_979), 0, Fraction(1, 1_000_037), 7, 0, Fraction(2, 999_961)])
def test_egf_reciprocal_matches_the_fraction_long_division(a):
    out = egf_reciprocal(Egf(a))
    assert_canonical(out)
    assert list(out.coeffs) == egf_reciprocal_oracle(a)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        egf_reciprocal(Egf([0, 1]))


def test_geom_series_is_reciprocal_of_one_minus_t():
    one_minus_t = Egf([1, -1] + [0] * (ORDER - 1))
    assert egf_reciprocal(one_minus_t) == geom_series(ORDER)


# -- composition -----------------------------------------------------


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        egf_compose(exp_series(4), exp_series(4))


def test_log_exp_round_trips():
    t = Egf([0, 1] + [0] * (ORDER - 1))
    assert egf_compose(log1p_series(ORDER), expm1_series(ORDER)) == t
    assert egf_compose(expm1_series(ORDER), log1p_series(ORDER)) == t


def test_compose_with_scaled_argument():
    # e^(2t) via composition equals the directly scaled series
    inner = Egf([0, 2] + [0] * (ORDER - 1))
    assert egf_compose(exp_series(ORDER), inner) == exp_series(ORDER, scale=2)


# -- elementary series -----------------------------------------------


def test_elementary_series_coefficients(ctx):
    assert exp_series(4).coeffs == (1, 1, 1, 1, 1)
    assert expm1_series(4).coeffs == (0, 1, 1, 1, 1)
    assert log1p_series(4).coeffs == (0, 1, -1, 2, -6)
    assert geom_series(4).coeffs == (1, 1, 2, 6, 24)
    assert dilog_series(4).coeffs == (
        0,
        1,
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 2),
    )
    assert monomial_series(Fraction(5), 2, 4).coeffs == (0, 0, 5, 0, 0)
    for c in (Fraction(3, 4), Fraction(-3, 4), 0):
        for m in (0, 4):
            got = monomial_series(c, m, 4)
            assert got == Egf([Fraction(c) if n == m else Fraction(0) for n in range(5)])
            assert_canonical(got)


def test_monomial_degree_must_lie_in_the_truncation():
    with pytest.raises(ValueError, match="^negative degree -1$"):
        monomial_series(Fraction(5), -1, 4)
    with pytest.raises(ValueError, match="^degree 5 exceeds order 4$"):
        monomial_series(Fraction(5), 5, 4)
    assert monomial_series(Fraction(5), 4, 4).coeffs == (0, 0, 0, 0, 5)


def test_pow1p_binomial_series():
    x = Fraction(1, 2)
    f = pow1p_series(x, 6)
    ord_view = to_ordinary(f)
    from stirlingkit import binomial_rational

    for n in range(7):
        assert ord_view[n] == binomial_rational(x, n)


def test_pow1p_integer_exponent_terminates():
    f = pow1p_series(Fraction(3), 6)
    assert to_ordinary(f) == (1, 3, 3, 1, 0, 0, 0)


def test_egf_elementary_order_zero_is_the_constant_term_and_negative_orders_raise():
    assert egf_elementary("exp", 0) == Egf([1])
    builders = {
        "exp": exp_series,
        "expm1": expm1_series,
        "log1p": log1p_series,
        "geom": geom_series,
        "pow1p": lambda order: pow1p_series(Fraction(1, 2), order),
        "dilog": dilog_series,
        "monomial": lambda order: monomial_series(Fraction(2), 0, order),
    }
    for kind, build in builders.items():
        with pytest.raises(ValueError, match="negative order -1"):
            build(-1)
        with pytest.raises(ValueError, match="negative order -1"):
            egf_elementary(kind, -1, x=Fraction(1, 2), c=Fraction(2), m=0)


def test_egf_elementary_dispatch():
    builders = {
        "exp": ({}, exp_series),
        "expm1": ({}, expm1_series),
        "log1p": ({}, log1p_series),
        "geom": ({}, geom_series),
        "dilog": ({}, dilog_series),
        "pow1p": ({"x": Fraction(1, 2)}, lambda order: pow1p_series(Fraction(1, 2), order)),
        "monomial": ({"c": Fraction(2), "m": 1}, lambda order: monomial_series(Fraction(2), 1, order)),
    }
    for kind, (args, build) in builders.items():
        got = egf_elementary(kind, 6, **args)
        assert got == build(6), kind
        assert_canonical(got)
    with pytest.raises(ValueError, match="^pow1p needs the exponent x$"):
        egf_elementary("pow1p", 4)
    for args in ({}, {"c": 2}, {"m": 1}):
        with pytest.raises(ValueError, match="^monomial needs c and m$"):
            egf_elementary("monomial", 4, **args)
    with pytest.raises(ValueError, match="^unknown elementary series kind 'sinh'$"):
        egf_elementary("sinh", 4)


def test_geom_series_ordinary_is_all_ones():
    assert to_ordinary(geom_series(8)) == (1,) * 9


# -- fixed-series identities -----------------------------------------


def test_dilog_of_mapped_argument_gives_harmonic_numbers(ctx):
    # composing the dilogarithm with -t/(1-t) produces harmonic-number
    # coefficients; checked deeper than the registry's default order
    order = 15
    inner = Egf([0] + [-ctx.factorial(n) for n in range(1, order + 1)])
    got = egf_compose(dilog_series(order), inner)
    want = Egf(
        [0]
        + [-ctx.factorial(n - 1) * ctx.harmonic(n) for n in range(1, order + 1)]
    )
    assert got == want


def test_iterated_harmonic_generating_function(ctx):
    # -log(1+t) (1+t)^(-p) carries signed factorial-weighted level-p sums
    for p in range(0, 6):
        order = 12
        lhs = egf_mul(log1p_series(order).scale(-1), pow1p_series(Fraction(-p), order))
        for n in range(1, order + 1):
            want = (-1) ** n * ctx.factorial(n) * ctx.hyperharmonic(p, n)
            assert lhs.coeffs[n] == want, (p, n)


def test_exp_poly_generating_function(ctx):
    # sum_n exp_poly_n(x) t^n/n! equals exp(x (e^t - 1)) coefficientwise
    from stirlingkit import exp_poly

    for x in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
        f = egf_compose(exp_series(ORDER, scale=x), expm1_series(ORDER))
        for n in range(ORDER + 1):
            assert f.coeffs[n] == exp_poly(n)(x), (x, n)


def test_partial_sum_smoothing(ctx):
    # multiplying the ordinary view by 1/(1 - lam t) accumulates
    # lam-weighted partial sums of the coefficients
    rng = random.Random(23)
    for lam in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        a = random_rationals(rng, 16)
        out = ordinary_mul(a, [lam**m for m in range(16)])
        for n in range(16):
            want = sum(a[k] * lam ** (n - k) for k in range(n + 1))
            assert out[n] == want, (lam, n)


def test_log_over_t_weighting(ctx):
    # ordinary product against log(1+t)/t realizes alternating
    # reciprocal-shift weighted sums
    rng = random.Random(29)
    a = random_rationals(rng, 16)
    log_over_t = [Fraction((-1) ** m, m + 1) for m in range(16)]
    out = ordinary_mul(a, log_over_t)
    for n in range(16):
        want = sum(
            a[k] * Fraction((-1) ** (n - k), n - k + 1) for k in range(n + 1)
        )
        assert out[n] == want, n


# -- substitution engines --------------------------------------------


def test_stirling_substitution_is_weighted_triangle_sum(ctx):
    rng = random.Random(31)
    a = random_rationals(rng, ORDER + 1)
    f = Egf(a)
    lam, mu = Fraction(2), Fraction(1, 2)
    out = stirling_substitution(f, lam, mu, ctx)
    for n in range(ORDER + 1):
        want = sum(
            ctx.stirling2(n, k) * lam ** (n - k) * mu**k * a[k]
            for k in range(n + 1)
        )
        assert out[n] == want, n


def test_log_substitution_is_weighted_triangle_sum(ctx):
    rng = random.Random(37)
    a = random_rationals(rng, ORDER + 1)
    f = Egf(a)
    lam, mu = Fraction(-1), Fraction(2)
    out = log_substitution(f, lam, mu, ctx)
    for n in range(ORDER + 1):
        want = sum(
            ctx.stirling1(n, k) * lam ** (n - k) * mu**k * a[k]
            for k in range(n + 1)
        )
        assert out[n] == want, n


def test_substitutions_invert_each_other(ctx):
    # e^t - 1 composed with log(1 + u) is the identity map, so the two
    # substitutions with matched weights undo one another
    rng = random.Random(41)
    a = random_rationals(rng, ORDER + 1)
    f = Egf(a)
    fwd = stirling_substitution(f, 1, 1, ctx)
    back = log_substitution(Egf(fwd), 1, 1, ctx)
    assert back == a


def test_substitution_route_agreement_on_random_sequences(ctx):
    # both engines compare a composition route against a weighted-sum
    # route internally and raise on any disagreement
    rng = random.Random(43)
    weights = [
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
    ]
    for trial in range(25):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(ORDER + 1)]
        lam = weights[trial % len(weights)]
        mu = weights[(trial + 2) % len(weights)]
        stirling_substitution(Egf(a), lam, mu, ctx)
        log_substitution(Egf(a), lam, mu, ctx)


def test_substitution_rejects_zero_lambda(ctx):
    with pytest.raises(ValueError):
        stirling_substitution(exp_series(4), 0, 1, ctx)
    with pytest.raises(ValueError):
        log_substitution(exp_series(4), 0, 1, ctx)


@pytest.mark.parametrize("route", ["egf_compose", "_sums"])
def test_substitutions_raise_when_one_route_is_corrupted(ctx, monkeypatch, route):
    # perturbing one coefficient of either route must be caught, never returned
    import stirlingkit.egf as egf_module

    real = getattr(egf_module, route)

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, Egf):
            coeffs = list(out.coeffs)
            coeffs[3] += 1
            return Egf(coeffs)
        # the direct route's value n is sums[n] / (f's denominator scales[n])
        sums, scales = out
        sums = list(sums)
        sums[3] += f._den * scales[3]
        return sums, scales

    f = Egf(random_rationals(random.Random(47), ORDER + 1))
    cases = ((stirling_substitution, "second", 2, Fraction(1, 3)), (log_substitution, "first", -1, 2))
    exact = [substitution(f, lam, mu, ctx)[3] for substitution, _, lam, mu in cases]
    monkeypatch.setattr(egf_module, route, corrupted)
    for (substitution, kind, lam, mu), value in zip(cases, exact):
        # the message names the first differing index and both routes' values
        direct, composed = (value + 1, value) if route == "_sums" else (value, value + 1)
        want = (
            f"substitution routes disagree; engine defect: kind {kind}, index 3, "
            f"direct {format_rational(direct)}, composed {format_rational(composed)}, "
            f"lam {format_rational(lam)}, mu {format_rational(mu)}, order {ORDER}"
        )
        with pytest.raises(ArithmeticError, match=f"^{re.escape(want)}$"):
            substitution(f, lam, mu, ctx)
