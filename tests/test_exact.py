"""Rational arithmetic layer: canonical form, binomials, wire format, and
the coefficient vector shared by Poly and Egf."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stirlingkit import (
    Egf,
    Poly,
    binomial,
    binomial_rational,
    egf_mul,
    format_rational,
    ordinary_mul,
    parse_rational,
)

from stirlingkit import exact
from stirlingkit.egf import OrderMismatchError
from stirlingkit.exact import _combine, _convolve, common_denominator
from stirlingkit.poly import X, ZERO, xd_apply

from support import (
    assert_canonical,
    binomial_falling_oracle,
    combine_oracle,
    convolve_oracle,
    ordinary_mul_oracle,
    padded,
    poly_mul_oracle,
    vector_add_oracle,
    vector_scale_oracle,
)

small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@given(small_rationals, small_rationals)
def test_results_are_canonical(a, b):
    # format_rational and value equality rely on Fraction results being
    # reduced with a positive denominator
    results = [a + b, a - b, a * b] + ([a / b] if b != 0 else [])
    for r in results:
        assert isinstance(r, Fraction)
        assert r.denominator >= 1
        assert math.gcd(abs(r.numerator), r.denominator) == 1
    zero = a - a
    assert zero.numerator == 0 and zero.denominator == 1


def test_pascal_property():
    for n in range(1, 31):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_edges():
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_upper():
    # C(-n, k) = (-1)^k C(n+k-1, k) via falling factorials
    for n in range(1, 8):
        for k in range(0, 8):
            assert binomial(-n, k) == (-1) ** k * binomial(n + k - 1, k)


def test_binomial_negative_upper_matches_the_falling_factorial():
    for n in range(-60, 0):
        for k in range(-2, 61):
            assert binomial(n, k) == binomial_falling_oracle(n, k), (n, k)


def test_binomial_rational_half():
    assert binomial_rational(Fraction(1, 2), 0) == 1
    assert binomial_rational(Fraction(1, 2), 1) == Fraction(1, 2)
    assert binomial_rational(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial_rational(Fraction(1, 2), 3) == Fraction(1, 16)


def test_negative_arguments_of_the_scalar_helpers():
    with pytest.raises(ValueError, match="^factorial of negative index -1$"):
        exact.factorial(-1)
    # C(x, k) is zero below k = 0, for rational x as for integer n
    assert binomial_rational(Fraction(1, 2), -1) == 0
    assert binomial_rational(Fraction(-3), -2) == binomial(-3, -2) == 0


def test_binomial_rational_matches_the_falling_factorial_loop():
    for x in [Fraction(p, q) for p in range(-7, 8) for q in (1, 2, 3, 7)]:
        falling = Fraction(1)
        for k in range(9):
            assert binomial_rational(x, k) == falling / math.factorial(k), (x, k)
            falling *= x - k


def test_binomial_rational_matches_integer_case():
    for n in range(0, 9):
        for k in range(0, 9):
            assert binomial_rational(Fraction(n), k) == binomial(n, k)


@given(small_rationals)
def test_format_parse_round_trip(a):
    assert parse_rational(format_rational(a)) == a


def test_parse_rational_rejects_malformed():
    for bad in ("1/0", "x", "1.5", "1/ 2", "", "2/-3", "1//2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_beyond_the_int_digit_limit(monkeypatch):
    import sys

    import stirlingkit.exact as exact

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    big = math.factorial(1600)  # 4,437 digits
    ratio = Fraction(-big, 7**6000 + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(big), str(ratio)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (format_rational(big), format_rational(ratio)) == want
    # values the interpreter can print never reach the splitting path
    monkeypatch.setattr(exact, "_decimal", None)
    assert format_rational(10**4299) == "1" + "0" * 4299


def test_format_is_reduced():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-3, 1)) == "-3"
    assert format_rational(Fraction(0, 5)) == "0"


# -- the shared coefficient vector -------------------------------------

vectors = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=40)


@settings(max_examples=60)
@given(vectors, vectors)
def test_products_match_the_former_loops(a, b):
    assert (Poly(a) * Poly(b)).coeffs == Poly(poly_mul_oracle(a, b)).coeffs
    assert ordinary_mul(a, b) == ordinary_mul_oracle(a, b)


def test_polys_and_egfs_never_compare_equal():
    assert Poly([1, 2]).coeffs == Egf([1, 2]).coeffs
    assert Poly([1, 2]) != Egf([1, 2])
    assert Egf([1, 2]) != Poly([1, 2])


def test_vectors_refuse_an_operand_of_another_type():
    # a Poly plus an Egf once came back as a Poly, and a number raised
    # AttributeError from inside the arithmetic
    egf = Egf([1, 2, 3])
    cases = (
        (lambda: X + egf, "Poly with Egf"),
        (lambda: _combine([1, 1], [X, egf]), "Poly with Egf"),
        (lambda: Egf([1, 2]) + X, "Egf with Poly"),
        (lambda: X + 1, "Poly with int"),
        (lambda: X - 1, "Poly with int"),
    )
    for call, names in cases:
        with pytest.raises(TypeError, match=f"^cannot combine {names}$"):
            call()


def test_vectors_name_their_type_when_refusing_a_write():
    for value, name in ((Poly([1]), "Poly"), (Egf([1]), "Egf")):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.coeffs = ()


# -- integer numerators against the Fraction loops ---------------------

# zeros drawn often, so that cancellation and trailing zeros are exercised
rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))
long_vectors = st.lists(rationals, max_size=40)


@settings(max_examples=60)
@given(long_vectors, long_vectors, st.integers(min_value=0, max_value=81))
def test_integer_convolution_matches_the_fraction_loop(a, b, size):
    an, ad = common_denominator(a)
    bn, bd = common_denominator(b)
    got = _convolve(an, bn, size)
    assert all(type(c) is int for c in got)
    assert [Fraction(c, ad * bd) for c in got] == convolve_oracle(a, b, size)


@settings(max_examples=60)
@given(long_vectors, long_vectors, rationals)
def test_linear_arithmetic_matches_the_fraction_loops(a, b, c):
    p, q = Poly(a), Poly(b)
    size = max(len(a), len(b))
    assert padded((p + q).coeffs, size) == vector_add_oracle(a, b)
    assert padded((p - q).coeffs, size) == vector_add_oracle(a, [-x for x in b])
    assert padded(p.scale(c).coeffs, len(a)) == vector_scale_oracle(a, c)
    for v in (p, q, p + q, p - q, -p, p.scale(c), p * q):
        assert_canonical(v)
    m = min(len(a), len(b))
    if m:
        f, g = Egf(a[:m]), Egf(b[:m])
        assert list((f + g).coeffs) == vector_add_oracle(a[:m], b[:m])
        assert list(f.scale(c).coeffs) == vector_scale_oracle(a[:m], c)
        for v in (f, g, f + g, f - g, -f, f.scale(c)):
            assert_canonical(v)


weights = st.one_of(rationals, st.integers(min_value=-50, max_value=50))


@settings(max_examples=60)
@given(st.lists(st.tuples(weights, long_vectors), min_size=1, max_size=8))
def test_combination_kernel_matches_the_fraction_loop(terms):
    ws = [w for w, _ in terms]
    vs = [v for _, v in terms]
    got = _combine(ws, [Poly(v) for v in vs])
    assert type(got) is Poly
    assert_canonical(got)
    assert padded(got.coeffs, max(len(v) for v in vs)) == combine_oracle(ws, vs)
    m = min(len(v) for v in vs)
    if m:
        cut = [v[:m] for v in vs]
        got = _combine(ws, [Egf(v) for v in cut])
        assert type(got) is Egf
        assert_canonical(got)
        assert list(got.coeffs) == combine_oracle(ws, cut)


def test_combination_kernel_refuses_mixed_egf_orders():
    with pytest.raises(OrderMismatchError):
        _combine([1, 1], [Egf([1, 2]), Egf([1, 2, 3])])
    assert _combine([Fraction(1, 2), 3], [Poly([1, 2]), Poly([1, 2, 3])]) == Poly([Fraction(7, 2), 7, 9])


def test_equal_values_from_different_routes_compare_and_hash_equal():
    third = Fraction(1, 3)
    polys = [
        Poly([Fraction(1, 2), -third]),
        Poly([Fraction(1, 2), -third, 0, 0]),
        Poly([3, -2]).scale(Fraction(1, 6)),
        Poly([Fraction(3, 2), -1]) * Poly([third]),
        Poly([1, Fraction(-2, 3), 5]) + Poly([Fraction(-1, 2), third, -5]),
        xd_apply(Poly([Fraction(1, 2), -third]), 0),
    ]
    zeros = [ZERO, Poly([0, 0]), Poly([third]) - Poly([third]), Poly([third]).scale(0), X * ZERO]
    egfs = [
        Egf([Fraction(1, 2), 1]),
        Egf([1, 2]).scale(Fraction(1, 2)),
        egf_mul(Egf([1, 0]), Egf([Fraction(1, 2), 1])),
        Egf([1, 3]) - Egf([Fraction(1, 2), 2]),
    ]
    egf_zeros = [Egf([0, 0]), Egf([third, 0]) - Egf([third, 0]), Egf([5, third]).scale(0)]
    for group in (polys, zeros, egfs, egf_zeros):
        for v in group:
            assert_canonical(v)
            assert v == group[0]
            assert hash(v) == hash(group[0])
            assert v.coeffs == group[0].coeffs
    assert polys[0].coeffs == (Fraction(1, 2), -third)
    assert all(z._den == 1 for z in zeros + egf_zeros)
