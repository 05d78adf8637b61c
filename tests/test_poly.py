"""Polynomial families and the x(d/dx) operator calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirlingkit import (
    ONE,
    Poly,
    SeqContext,
    X,
    ZERO,
    bernoulli_poly,
    binom_poly,
    binomial,
    euler_poly,
    exp_poly,
    format_rational,
    geom_poly,
    parse_rational,
    xd_apply,
)

from stirlingkit.poly import binom_polys, euler_polys, exp_polys

from support import (
    bernoulli_poly_oracle,
    binom_poly_oracle,
    euler_poly_oracle,
    euler_polys_oracle,
    exp_poly_oracle,
    padded,
)


@pytest.fixture(scope="module")
def ctx():
    return SeqContext()


# -- Poly algebra ----------------------------------------------------


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly([]).degree == -1
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert X.degree == 1


def test_coefficients_are_plain_fractions():
    class Tagged(Fraction):
        pass

    p = Poly([1, Fraction(1, 2), Tagged(3, 4)])
    assert p.coeffs == (1, Fraction(1, 2), Fraction(3, 4))
    assert [type(c) for c in p.coeffs] == [Fraction] * 3


def test_arithmetic_and_evaluation():
    p = Poly([1, 2, 3])  # 1 + 2x + 3x^2
    q = Poly([0, 1])
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).degree == -1
    assert (-p).coeffs == (-1, -2, -3)
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p * Fraction(1, 2)).coeffs == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
    )
    assert p(Fraction(2)) == 17
    assert p(Fraction(-1, 2)) == Fraction(3, 4)
    assert ZERO(Fraction(7)) == 0


def test_derivative():
    p = Poly([5, 1, 2, 3])
    assert p.derivative().coeffs == (1, 4, 9)
    assert ONE.derivative().degree == -1
    assert ZERO.derivative() == ZERO


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(X) == "x"
    assert str(Poly([Fraction(1, 6), -1, 1])) == "1/6 - x + x^2"
    assert str(Poly([0, -1])) == "-x"
    assert str(Poly([0, 0, 2])) == "2*x^2"


def test_repr_shows_the_rendering_and_only_zero_is_false():
    assert repr(Poly([Fraction(1, 6), -1, 1])) == "Poly('1/6 - x + x^2')"
    assert repr(ZERO) == "Poly('0')"
    assert not ZERO and not Poly([0, 0]) and not (X - X)
    assert ONE and X and Poly([0, 0, Fraction(-1, 3)])


def test_json_round_trip():
    p = Poly([Fraction(1, 3), 0, Fraction(-2, 7)])
    texts = [format_rational(c) for c in p.coeffs]
    assert texts == ["1/3", "0", "-2/7"]
    assert Poly(map(parse_rational, texts)) == p
    assert [format_rational(c) for c in ZERO.coeffs] == []


coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=6
)


@given(coeff_lists, coeff_lists)
def test_product_evaluates_pointwise(a, b):
    p, q = Poly(a), Poly(b)
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


# -- operator action -------------------------------------------------


def test_xd_scales_monomials():
    p = Poly([4, 3, 0, 2])
    assert xd_apply(p, 1).coeffs == (0, 3, 0, 6)
    assert xd_apply(p, 2).coeffs == (0, 3, 0, 18)
    assert xd_apply(p, 0) == p


@given(coeff_lists, st.integers(min_value=0, max_value=4))
def test_xd_iterates(a, times):
    p = Poly(a)
    q = p
    for _ in range(times):
        q = xd_apply(q, 1)
    assert xd_apply(p, times) == q


def test_xd_refuses_a_negative_power():
    with pytest.raises(ValueError, match="^negative operator power -1$"):
        xd_apply(X, -1)


@given(coeff_lists)
def test_xd_matches_x_times_derivative(a):
    p = Poly(a)
    assert xd_apply(p, 1) == X * p.derivative()


# -- named families --------------------------------------------------


def test_exp_poly_coefficients_are_partition_counts(ctx):
    # operator-recurrence construction vs the triangle itself
    for n in range(0, 21):
        p = exp_poly(n)
        for k in range(0, n + 1):
            assert p.coeffs[k] == ctx.stirling2(n, k), (n, k)
        assert p.degree == (n if n > 0 else 0)


def test_geom_poly_coefficients(ctx):
    for n in range(0, 16):
        p = geom_poly(n, ctx)
        for k in range(0, n + 1):
            assert p.coeffs[k] == ctx.stirling2(n, k) * ctx.factorial(k)


def test_polys_at_one_hit_partition_counts(ctx):
    for n in range(0, 31):
        assert exp_poly(n)(Fraction(1)) == ctx.bell(n)
        assert geom_poly(n, ctx)(Fraction(1)) == ctx.fubini(n)


def test_bernoulli_poly_matches_recurrence_oracle(ctx):
    for n in range(0, 16):
        got = bernoulli_poly(n, ctx)
        want = bernoulli_poly_oracle(n)
        assert padded(got.coeffs, n + 1) == want, n


def test_euler_poly_matches_recurrence_oracle(ctx):
    for n in range(0, 16):
        got = euler_poly(n)
        want = euler_poly_oracle(n)
        assert padded(got.coeffs, n + 1) == want, n


def test_binom_poly_interpolates_binomials():
    for k in range(0, 7):
        p = binom_poly(k)
        for x in range(-5, 11):
            assert p(Fraction(x)) == binomial(x, k), (k, x)


def test_binom_poly_leading_coefficient():
    import math

    for k in range(0, 7):
        assert binom_poly(k).coeffs[k] == Fraction(1, math.factorial(k))


def test_binom_builder_matches_product_oracle():
    built = binom_polys(40)
    assert len(built) == 41
    for k, p in enumerate(built):
        assert p == binom_poly_oracle(k), k
        assert binom_poly(k) == p, k


def test_exp_builder_matches_operator_oracle():
    built = exp_polys(40)
    assert len(built) == 41
    for n, p in enumerate(built):
        assert p == exp_poly_oracle(n), n
        assert exp_poly(n) == p, n


def test_euler_builder_matches_recurrence_oracle():
    built = euler_polys(40)
    want = euler_polys_oracle(40)
    assert len(built) == 41
    for k, p in enumerate(built):
        assert padded(p.coeffs, k + 1) == want[k], k
    assert euler_poly(40) == built[40]


def test_builders_reject_negative_index():
    for fn in (binom_polys, exp_polys, euler_polys, binom_poly, exp_poly, euler_poly):
        with pytest.raises(ValueError):
            fn(-1)


def test_builder_coefficients_are_exact_fractions():
    for p in binom_polys(6) + exp_polys(6) + euler_polys(6):
        assert all(type(c) is Fraction for c in p.coeffs)


# -- operator identities on the exponential family -------------------


def test_shift_recurrence_under_xd(ctx):
    # applying the operator p+1 times telescopes into shifted family members
    for n in range(0, 13):
        for p in range(0, 7):
            lhs = xd_apply(exp_poly(n), p + 1)
            rhs = xd_apply(exp_poly(n + 1), p) - X * sum(
                (
                    xd_apply(exp_poly(n), j) * Fraction(binomial(p, j))
                    for j in range(p + 1)
                ),
                ZERO,
            )
            assert lhs == rhs, (n, p)


def test_second_order_operator_action(ctx):
    for n in range(0, 16):
        phi_n = exp_poly(n)
        phi_n1 = exp_poly(n + 1)
        phi_n2 = exp_poly(n + 2)
        assert xd_apply(phi_n, 1) == phi_n1 - X * phi_n
        assert xd_apply(phi_n, 2) == phi_n2 - (X * Fraction(2)) * phi_n1 + (
            X * X - X
        ) * phi_n


def test_geom_poly_differential_recurrence(ctx):
    for n in range(1, 16):
        prev = geom_poly(n - 1, ctx)
        assert geom_poly(n, ctx) == X * prev + (X + X * X) * prev.derivative()


def test_shifted_factorial_weights_factor(ctx):
    # sum_k S(n,k)(k-1)! x^k equals x for n = 1, else (x+1) * geom_poly(n-1)
    for n in range(1, 16):
        lhs = sum(
            (
                Poly([0] * k + [ctx.stirling2(n, k) * ctx.factorial(k - 1)])
                for k in range(1, n + 1)
            ),
            ZERO,
        )
        rhs = X if n == 1 else (X + ONE) * geom_poly(n - 1, ctx)
        assert lhs == rhs, n
