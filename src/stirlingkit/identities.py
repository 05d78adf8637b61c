"""Registry of mechanically checkable identities.

Each entry pairs a parameter domain with a checker that evaluates the two
sides of an identity through deliberately different code paths: one side
through triangle-weighted sums, say, and the other through series
composition, polynomial operator calculus, or a closed form.  A checker
never reuses one side's arithmetic for the other, so a defect in any
engine shows up as a counterexample instead of cancelling out.

Reports are deterministic: entries run in registry order, instances in
loop order, and every failure carries the parameter assignment plus both
exact values.  All comparisons are exact except the single tail-bounded
entry E30, which compares a finite partial sum against an integer at a
stated tolerance.

Setting the environment variable STIRLINGKIT_MAX_N to an integer raises
every entry's default index cap to at least that value; an explicit
``max_n`` argument then intersects from above.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .egf import (
    Egf,
    egf_compose,
    egf_mul,
    egf_reciprocal,
    exp_series,
    from_ordinary,
    log1p_series,
    pow1p_series,
    dilog_series,
    to_ordinary,
)
from .exact import _combine, binomial, binomial_rational, common_denominator, format_rational
from .poly import ONE, Poly, X, ZERO, bernoulli_poly, binom_polys, euler_polys, exp_polys, geom_poly, xd_apply
from .seq import SeqContext, context

DEFAULT_SERIES_ORDER = 12
DEFAULT_EPS = Fraction(1, 10**12)
ENV_MAX_N = "STIRLINGKIT_MAX_N"


class Failure(namedtuple("Failure", "params lhs rhs")):
    """One counterexample: the parameter assignment and both exact sides."""

    __slots__ = ()


class IdentityReport(namedtuple("IdentityReport", "id checked failures notes", defaults=((),))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class IdentitySpec(namedtuple("IdentitySpec", "id description kind routes n_range p_max", defaults=(None, None))):
    """Registry metadata: what an entry claims and where it runs.

    ``kind`` is scalar-equality, polynomial-equality, series-equality or
    numeric-tolerance; entries sized by a truncation order have no
    ``n_range``.
    """

    __slots__ = ()


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _dot(a, b) -> int:
    """sum of a[k] b[k] over the indices both sequences have."""
    return sum(map(mul, a, b))


def _fmt(v) -> str:
    if isinstance(v, Poly):
        return str(v)
    if isinstance(v, Egf):
        v = v.coeffs
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_rational(c) for c in v) + "]"
    return format_rational(v)


class _Run:
    """Accumulates instance counts, counterexamples, and notes."""

    __slots__ = ("checked", "failures", "notes")

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []

    def check(self, params: dict, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append(Failure(dict(params), _fmt(lhs), _fmt(rhs)))

    def check_members(self, params: dict, members) -> None:
        """One instance whose sides come as labelled (name, lhs, rhs) pairs."""
        self.checked += 1
        for label, lhs, rhs in members:
            if lhs != rhs:
                p = dict(params)
                p["member"] = label
                self.failures.append(Failure(p, _fmt(lhs), _fmt(rhs)))


# -- registry --------------------------------------------------------

_REGISTRY: dict[str, tuple[IdentitySpec, object]] = {}


def _entry(*args, **kwargs):
    """Register the decorated checker as the entry IdentitySpec(*args,
    **kwargs); entries report in the order they are declared."""
    spec = IdentitySpec(*args, **kwargs)

    def register(checker):
        _REGISTRY[spec.id] = (spec, checker)
        return checker

    return register


# -- checkers --------------------------------------------------------
#
# Uniform signature: (ctx, run, n_lo, n_hi, p_hi, order, eps).  Unused
# slots are simply ignored by entries that have no such parameter.
#
# A triangle-weighted sum reads its row once per index.  Scalar sums
# multiply it by integer weights over one denominator built once per
# call, so each instance builds one Fraction; polynomial sums go to
# ``_combine``, which builds one vector.  Weights past the row's end are
# never read, since ``_dot`` and ``_combine`` stop at the shorter input.


@_entry(
    "T1",
    "alternating factorial-weighted partition sums of hyperharmonics collapse to a signed power rule",
    "scalar-equality",
    ("triangle-weighted sum over hyperharmonic closed forms", "signed power formula"),
    n_range=(1, 40),
    p_max=8,
)
def _chk_t1(ctx, run, n_lo, n_hi, p_hi, order, eps):
    run.notes.append("order-0 instances rely on the conventions 0^0 = 1 and h(0, n) = 1/n")
    signed_fact = [_sign(k) * ctx.factorial(k) for k in range(n_hi + 1)]
    for p in range(p_hi + 1):
        # the hyperharmonics h(p, 0..n_hi) over their common denominator
        nums, den = common_denominator([ctx.hyperharmonic(p, k) for k in range(n_hi + 1)])
        weights = list(map(mul, signed_fact, nums))
        for n in range(n_lo, n_hi + 1):
            lhs = Fraction(_dot(ctx.stirling2_row(n), weights), den)
            rhs = _sign(n) * n * p ** (n - 1)
            run.check({"p": p, "n": n}, lhs, rhs)


@_entry(
    "T1b",
    "order-one case: alternating factorial-weighted partition sums of harmonics equal a signed index",
    "scalar-equality",
    ("triangle-weighted sum over harmonic numbers", "signed index"),
    n_range=(0, 60),
)
def _chk_t1b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    nums, den = common_denominator([ctx.harmonic(k) for k in range(n_hi + 1)])
    weights = [_sign(k) * ctx.factorial(k) * x for k, x in enumerate(nums)]
    for n in range(n_lo, n_hi + 1):
        lhs = Fraction(_dot(ctx.stirling2_row(n), weights), den)
        run.check({"n": n}, lhs, Fraction(_sign(n) * n))


@_entry(
    "C2",
    "first-kind inversion of the signed power rule recovers hyperharmonic numbers",
    "scalar-equality",
    ("first-kind weighted power sums", "hyperharmonic closed form"),
    n_range=(0, 40),
    p_max=8,
)
def _chk_c2(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for p in range(p_hi + 1):
        # the k = 0 summand carries a factor k, so its weight is 0
        weights = [_sign(k) * k * p ** (k - 1) if k else 0 for k in range(n_hi + 1)]
        for n in range(n_lo, n_hi + 1):
            lhs = _dot(ctx.stirling1_row(n), weights)
            rhs = _sign(n) * ctx.factorial(n) * ctx.hyperharmonic(p, n)
            run.check({"p": p, "n": n}, lhs, rhs)


@_entry(
    "T3a",
    "first-kind sums of Euler polynomials match half-power binomial-polynomial expansions",
    "polynomial-equality",
    ("first-kind sums of series-extracted Euler polynomials", "binomial-polynomial combination"),
    n_range=(0, 15),
)
def _chk_t3a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    half_powers = [Fraction(-1, 2) ** m for m in range(n_hi + 1)]
    euler = euler_polys(n_hi)
    binom = binom_polys(n_hi)
    for n in range(n_lo, n_hi + 1):
        lhs = _combine(ctx.stirling1_row(n), euler[: n + 1])
        rhs = _combine([half_powers[n - k] for k in range(n + 1)], binom[: n + 1])
        run.check({"n": n}, lhs, ctx.factorial(n) * rhs)


def _geometric_blocks(binom, w):
    """block_k = sum_(j<=k) w^(k-j) binom_j for each k, through the
    recurrence block_k = w block_(k-1) + binom_k."""
    blocks = []
    block = ZERO
    for b in binom:
        block = w * block + b
        blocks.append(block)
    return blocks


@_entry(
    "T3b",
    "Euler polynomials as second-kind sums of half-power binomial-polynomial blocks",
    "polynomial-equality",
    ("series-extracted Euler polynomial", "triangle-weighted binomial-polynomial blocks"),
    n_range=(0, 15),
)
def _chk_t3b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    euler = euler_polys(n_hi)
    blocks = _geometric_blocks(binom_polys(n_hi), Fraction(-1, 2))
    fact = [ctx.factorial(k) for k in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        rhs = _combine(list(map(mul, ctx.stirling2_row(n), fact)), blocks[: n + 1])
        run.check({"n": n}, euler[n], rhs)


@_entry(
    "E9",
    "Euler values at one half as nested central-binomial sums",
    "scalar-equality",
    ("Euler polynomial evaluated at one half", "central-binomial nested sum"),
    n_range=(0, 20),
)
def _chk_e9(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # inner_k = sum_(j<=k) C(2j, j) / ((1-2j) 2^(k+j)) = P_k / 2^k, with P_k
    # the prefix sums of C(2j, j) / ((1-2j) 2^j); all over one denominator
    inner = []
    prefix = Fraction(0)
    for k in range(n_hi + 1):
        prefix += Fraction(binomial(2 * k, k), (1 - 2 * k) * 2**k)
        inner.append(prefix / 2**k)
    nums, den = common_denominator(inner)
    weights = [ctx.factorial(k) * _sign(k) * x for k, x in enumerate(nums)]
    for n in range(n_lo, n_hi + 1):
        run.check({"n": n}, ctx.euler_number(n), Fraction(_dot(ctx.stirling2_row(n), weights), den))


@_entry(
    "T5a",
    "first-kind sums of Bernoulli polynomials match reciprocal-weighted binomial-polynomial expansions",
    "polynomial-equality",
    ("first-kind sums of binomially built Bernoulli polynomials", "binomial-polynomial combination"),
    n_range=(0, 15),
)
def _chk_t5a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    bernoulli = [bernoulli_poly(k, ctx) for k in range(n_hi + 1)]
    binom = binom_polys(n_hi)
    recip = [Fraction(_sign(m), m + 1) for m in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        lhs = _combine(ctx.stirling1_row(n), bernoulli[: n + 1])
        rhs = _combine([recip[n - k] for k in range(n + 1)], binom[: n + 1])
        run.check({"n": n}, lhs, ctx.factorial(n) * rhs)


@_entry(
    "T5b",
    "Bernoulli polynomials as second-kind sums of reciprocal-weighted binomial-polynomial blocks",
    "polynomial-equality",
    ("binomially built Bernoulli polynomial", "triangle-weighted binomial-polynomial blocks"),
    n_range=(0, 15),
)
def _chk_t5b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # the weights (-1)^m/(m+1) are not geometric, so each block is its own sum
    binom = binom_polys(n_hi)
    recip = [Fraction(_sign(m), m + 1) for m in range(n_hi + 1)]
    blocks = [_combine([recip[k - j] for j in range(k + 1)], binom[: k + 1]) for k in range(n_hi + 1)]
    fact = [ctx.factorial(k) for k in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        rhs = _combine(list(map(mul, ctx.stirling2_row(n), fact)), blocks[: n + 1])
        run.check({"n": n}, bernoulli_poly(n, ctx), rhs)


@_entry(
    "T5c",
    "Bernoulli numbers: partition-sum formula against series-reciprocal coefficients",
    "scalar-equality",
    ("triangle-weighted alternating factorial sum", "reciprocal of the averaged exponential series"),
    n_range=(0, 40),
)
def _chk_t5c(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # independent side: reciprocal of the series with a_m = 1/(m+1),
    # whose coefficients are the Bernoulli numbers
    series = egf_reciprocal(Egf(Fraction(1, m + 1) for m in range(n_hi + 1))).coeffs
    nums, den = common_denominator([Fraction(ctx.factorial(k) * _sign(k), k + 1) for k in range(n_hi + 1)])
    for n in range(n_lo, n_hi + 1):
        lhs = Fraction(_dot(ctx.stirling2_row(n), nums), den)
        run.check({"n": n}, lhs, series[n])


@_entry(
    "T6a",
    "first-kind sums of Bernoulli numbers give factorial-weighted harmonic numbers",
    "scalar-equality",
    ("first-kind Bernoulli sums", "factorial-weighted harmonic closed form"),
    n_range=(1, 40),
)
def _chk_t6a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # B_(k-1) for k >= 1; the k = 0 summand is absent
    nums, den = common_denominator([0] + [ctx.bernoulli(k - 1) for k in range(1, n_hi + 1)])
    for n in range(n_lo, n_hi + 1):
        lhs = Fraction(_dot(ctx.stirling1_row(n), nums), den)
        rhs = -_sign(n) * ctx.factorial(n - 1) * ctx.harmonic(n)
        run.check({"n": n}, lhs, rhs)


@_entry(
    "T6b",
    "second-kind inversion carries factorial-weighted harmonics back to Bernoulli numbers",
    "scalar-equality",
    ("Bernoulli number from the partition-sum formula", "triangle-weighted harmonic sums"),
    n_range=(1, 40),
)
def _chk_t6b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    nums, den = common_denominator([ctx.harmonic(k) for k in range(n_hi + 1)])
    weights = [0] + [-_sign(k) * ctx.factorial(k - 1) * nums[k] for k in range(1, n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        rhs = Fraction(_dot(ctx.stirling2_row(n), weights), den)
        run.check({"n": n}, ctx.bernoulli(n - 1), rhs)


@_entry(
    "T6c",
    "alternating first-kind Bernoulli sums give factorial over square values",
    "scalar-equality",
    ("alternating first-kind Bernoulli sums", "factorial-over-square closed form"),
    n_range=(1, 40),
)
def _chk_t6c(ctx, run, n_lo, n_hi, p_hi, order, eps):
    nums, den = common_denominator([0] + [ctx.bernoulli(k - 1) * _sign(k) for k in range(1, n_hi + 1)])
    for n in range(n_lo, n_hi + 1):
        lhs = Fraction(_dot(ctx.stirling1_row(n), nums), den)
        rhs = Fraction(_sign(n) * ctx.factorial(n), n * n)
        run.check({"n": n}, lhs, rhs)


@_entry(
    "T6d",
    "second-kind inversion of factorial-over-square values recovers Bernoulli numbers",
    "scalar-equality",
    ("Bernoulli number from the partition-sum formula", "alternating factorial-over-square sums"),
    n_range=(1, 40),
)
def _chk_t6d(ctx, run, n_lo, n_hi, p_hi, order, eps):
    nums, den = common_denominator(
        [0] + [Fraction(ctx.factorial(k) * _sign(k), k * k) for k in range(1, n_hi + 1)]
    )
    for n in range(n_lo, n_hi + 1):
        rhs = Fraction(_sign(n) * _dot(ctx.stirling2_row(n), nums), den)
        run.check({"n": n}, ctx.bernoulli(n - 1), rhs)


_BELL_CLOSED_FORMS = {
    1: ((1, 1), (0, -1)),
    2: ((2, 1), (1, -2)),
    3: ((3, 1), (2, -3), (0, 1)),
    4: ((4, 1), (3, -4), (1, 4), (0, 1)),
    5: ((5, 1), (4, -5), (2, 10), (1, 5), (0, -2)),
}


@_entry(
    "T7",
    "triangle moments: operator recurrence against direct sums and Bell-number closed forms",
    "scalar-equality",
    ("moment recurrence", "direct weighted row sums and Bell combinations"),
    n_range=(0, 20),
    p_max=8,
)
def _chk_t7(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for p in range(p_hi + 1):
        powers = [k**p for k in range(n_hi + 1)]
        for n in range(n_lo, n_hi + 1):
            direct = _dot(ctx.stirling2_row(n), powers)
            run.check({"n": n, "p": p, "form": "recurrence-vs-direct"}, ctx.moment(n, p), direct)
    for p, combo in _BELL_CLOSED_FORMS.items():
        for n in range(n_lo, n_hi + 1):
            rhs = sum(c * ctx.bell(n + off) for off, c in combo)
            run.check({"n": n, "p": p, "form": "bell-closed-form"}, ctx.moment(n, p), rhs)


@_entry(
    "L8",
    "commutation rule for repeated x d/dx applied to exponential polynomials",
    "polynomial-equality",
    ("operator power on one index", "shifted operator power minus binomial correction"),
    n_range=(0, 15),
    p_max=6,
)
def _chk_l8(ctx, run, n_lo, n_hi, p_hi, order, eps):
    phi = exp_polys(n_hi + 1)
    # right side only: powers[n][j] = (xD)^j phi_n, built once per index
    powers = [[xd_apply(f, j) for j in range(p_hi + 1)] for f in phi]
    for p in range(p_hi + 1):
        weights = [binomial(p, j) for j in range(p + 1)]
        for n in range(n_lo, n_hi + 1):
            lhs = xd_apply(phi[n], p + 1)
            rhs = powers[n + 1][p] - X * _combine(weights, powers[n][: p + 1])
            run.check({"n": n, "p": p}, lhs, rhs)


@_entry(
    "E15",
    "first and second x d/dx of exponential polynomials as three-term shift combinations",
    "polynomial-equality",
    ("triangle-weighted index sums", "operator calculus and shift combinations"),
    n_range=(0, 15),
)
def _chk_e15(ctx, run, n_lo, n_hi, p_hi, order, eps):
    phi = exp_polys(n_hi + 2)
    for n in range(n_lo, n_hi + 1):
        row = ctx.stirling2_row(n)
        first_sum = Poly(Fraction(c * k) for k, c in enumerate(row))
        first_op = xd_apply(phi[n], 1)
        first_comb = phi[n + 1] - X * phi[n]
        run.check_members(
            {"n": n, "display": 1},
            (
                ("triangle-sum-vs-operator", first_sum, first_op),
                ("operator-vs-shift-combination", first_op, first_comb),
            ),
        )
        second_sum = Poly(Fraction(c * k * k) for k, c in enumerate(row))
        second_op = xd_apply(phi[n], 2)
        second_comb = phi[n + 2] - 2 * X * phi[n + 1] + (X * X - X) * phi[n]
        run.check_members(
            {"n": n, "display": 2},
            (
                ("triangle-sum-vs-operator", second_sum, second_op),
                ("operator-vs-shift-combination", second_op, second_comb),
            ),
        )


@_entry(
    "P9",
    "reciprocal-index partition polynomials equal the damped power-sum series",
    "series-equality",
    ("triangle coefficients over index", "product of negative exponential and power-sum series"),
    p_max=8,
)
def _chk_p9(ctx, run, n_lo, n_hi, p_hi, order, eps):
    minus_exp = exp_series(order, -1)
    for p in range(p_hi + 1):
        row = ctx.stirling2_row(p + 1)
        nums = [0] + [ctx.factorial(i - 1) * row[i] for i in range(1, p + 2)] + [0] * order
        lhs = Egf._from_nums(nums[: order + 1], 1)
        sums = Egf(Fraction(ctx.power_sum(p, m)) for m in range(order + 1))
        run.check({"p": p}, lhs, egf_mul(minus_exp, sums))


def _bernoulli_convolution(ctx, run, n_lo, n_hi, bernoulli, depth=1, previous=False):
    """Reciprocal-index partition sums against Bernoulli-weighted convolutions.

    The left side is sum_k S(n, k) x^k / k^depth.  The right side applies
    depth times the convolution  g -> (1/n) sum_{k>=1} C(n, k) b_{n-k} g_k
    to the exponential polynomials phi_k, with b the given Bernoulli
    convention, and adds phi_{n-1} when ``previous`` is set.  The
    polynomial form runs for n <= 12; the scalar form, at x = 1 with Bell
    numbers for phi, runs over the whole range.  Each convolution level is
    built once per form, bottom-up, for every index up to the form's cap.
    """
    poly_hi = min(n_hi, 12)
    # 1/k^depth over one denominator; the k = 0 summand is absent
    inv, inv_den = common_denominator([0] + [Fraction(1, k**depth) for k in range(1, n_hi + 1)])

    def poly_level(level, conv, bden):
        return [_combine(conv[n], level[1 : n + 1]).scale(Fraction(1, n * bden)) for n in range(1, len(level))]

    def scalar_level(level, conv, bden):
        nums, den = common_denominator(level[1:])
        return [Fraction(_dot(conv[n], nums), n * bden * den) for n in range(1, len(level))]

    forms = (
        ("polynomial", poly_hi, exp_polys(poly_hi), poly_level,
         lambda n: Poly._from_nums(list(map(mul, ctx.stirling2_row(n), inv)), inv_den)),
        ("scalar", n_hi, [ctx.bell(k) for k in range(n_hi + 1)], scalar_level,
         lambda n: Fraction(_dot(ctx.stirling2_row(n), inv), inv_den)),
    )
    for form, hi, phi, next_level, partition_sum in forms:
        bnums, bden = common_denominator([bernoulli(j) for j in range(hi + 1)])
        # conv[n][k - 1] = C(n, k) b_(n-k) for 1 <= k <= n, over bden
        conv = [[binomial(n, k) * bnums[n - k] for k in range(1, n + 1)] for n in range(hi + 1)]
        level = phi
        for _ in range(depth):
            # index 0 has no convolution and is never read
            level = [None] + next_level(level, conv, bden)
        for n in range(n_lo, hi + 1):
            rhs = level[n]
            if previous:
                rhs = phi[n - 1] + rhs
            run.check({"n": n, "form": form}, partition_sum(n), rhs)


@_entry(
    "C10",
    "reciprocal-index partition polynomials via Bernoulli-weighted convolution, two-term form",
    "polynomial-equality",
    ("triangle coefficients over index", "Bernoulli-weighted convolution of exponential polynomials"),
    n_range=(2, 30),
)
def _chk_c10(ctx, run, n_lo, n_hi, p_hi, order, eps):
    _bernoulli_convolution(ctx, run, n_lo, n_hi, ctx.bernoulli, previous=True)


@_entry(
    "E21",
    "reciprocal-index partition polynomials via plus-convention Bernoulli convolution",
    "polynomial-equality",
    ("triangle coefficients over index", "plus-convention Bernoulli convolution"),
    n_range=(1, 30),
)
def _chk_e21(ctx, run, n_lo, n_hi, p_hi, order, eps):
    _bernoulli_convolution(ctx, run, n_lo, n_hi, ctx.bernoulli_plus)


@_entry(
    "E22",
    "squared-reciprocal-index partition polynomials via iterated Bernoulli convolution",
    "polynomial-equality",
    ("triangle coefficients over squared index", "iterated plus-convention convolution"),
    n_range=(1, 30),
)
def _chk_e22(ctx, run, n_lo, n_hi, p_hi, order, eps):
    _bernoulli_convolution(ctx, run, n_lo, n_hi, ctx.bernoulli_plus, depth=2)


@_entry(
    "P11",
    "factorial-weighted partition polynomials factor through shifted geometric polynomials",
    "polynomial-equality",
    ("triangle coefficients with shifted factorials", "shifted geometric polynomial times a linear factor"),
    n_range=(1, 15),
)
def _chk_p11(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for n in range(n_lo, n_hi + 1):
        row = ctx.stirling2_row(n)
        lhs = Poly._from_nums([0] + [row[k] * ctx.factorial(k - 1) for k in range(1, n + 1)], 1)
        rhs = X if n == 1 else (X + ONE) * geom_poly(n - 1, ctx)
        run.check({"n": n}, lhs, rhs)


@_entry(
    "C12",
    "geometric polynomials satisfy a first-order differential recurrence",
    "polynomial-equality",
    ("triangle-built geometric polynomial", "differential recurrence from the previous index"),
    n_range=(1, 15),
)
def _chk_c12(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for n in range(n_lo, n_hi + 1):
        prev = geom_poly(n - 1, ctx)
        rhs = X * prev + (X + X * X) * prev.derivative()
        run.check({"n": n}, geom_poly(n, ctx), rhs)


@_entry(
    "C13",
    "factorial-over-index partition sums double the ordered-partition count; the alternating form telescopes",
    "scalar-equality",
    ("shifted-factorial triangle sums", "ordered-partition closed form"),
    n_range=(1, 40),
)
def _chk_c13(ctx, run, n_lo, n_hi, p_hi, order, eps):
    plain_weights = [0] + [ctx.factorial(k - 1) for k in range(1, n_hi + 1)]
    alt_weights = [_sign(k) * w for k, w in enumerate(plain_weights)]
    for n in range(n_lo, n_hi + 1):
        row = ctx.stirling2_row(n)
        plain = _dot(row, plain_weights)
        want_plain = 1 if n == 1 else 2 * ctx.fubini(n - 1)
        run.check({"n": n, "form": "plain"}, plain, want_plain)
        alt = _dot(row, alt_weights)
        want_alt = -1 if n == 1 else 0
        run.check({"n": n, "form": "alternating"}, alt, want_alt)


def _tail_cutoff(n: int, eps: Fraction) -> int:
    """Smallest doubling K with a certified remainder below eps.

    The terms t_k = k^n / 2^(k+1) decay ratio-bounded: for k >= K the
    ratio t_{k+1}/t_k is at most q = ((K+1)/K)^n / 2, so once q < 1 the
    tail after K is below (K^n / 2^K) / (1 - q).
    """
    K = max(8, 2 * n + 2)
    while True:
        q = Fraction((K + 1) ** n, K**n) / 2
        if q < 1:
            bound = Fraction(K**n, 2**K) / (1 - q)
            if bound < eps:
                return K
        K *= 2


@_entry(
    "E30",
    "ordered-partition counts as geometric-damped power series, tail-bounded",
    "numeric-tolerance",
    ("certified partial sum of the damped power series", "ordered-partition count"),
    n_range=(0, 15),
)
def _chk_e30(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for n in range(n_lo, n_hi + 1):
        K = _tail_cutoff(n, eps)
        # sum_(k<=K) k^n / 2^(k+1) as one integer over 2^(K+1)
        partial = Fraction(sum(k**n << (K - k) for k in range(K + 1)), 2 ** (K + 1))
        target = ctx.fubini(n)
        run.checked += 1
        if abs(partial - target) >= eps:
            run.failures.append(
                Failure({"n": n, "cutoff": K}, _fmt(partial), _fmt(Fraction(target)))
            )


@_entry(
    "C14",
    "doubly shifted factorial partition sums count one less than the index",
    "scalar-equality",
    ("alternating doubly shifted factorial sums", "index minus one"),
    n_range=(1, 40),
)
def _chk_c14(ctx, run, n_lo, n_hi, p_hi, order, eps):
    weights = [0, 0] + [ctx.factorial(k - 2) * _sign(k) for k in range(2, n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        lhs = _dot(ctx.stirling2_row(n), weights)
        run.check({"n": n}, lhs, n - 1)


@_entry(
    "T15",
    "three routes to the complementary Bell numbers agree",
    "scalar-equality",
    ("alternating derangement transform", "alternating binomial transform of Bell numbers"),
    n_range=(0, 40),
)
def _chk_t15(ctx, run, n_lo, n_hi, p_hi, order, eps):
    signed_derangements = [_sign(k) * ctx.derangement(k) for k in range(n_hi + 1)]
    signed_bell = [_sign(k) * ctx.bell(k) for k in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        via_derangements = _sign(n) * _dot(ctx.stirling2_row(n), signed_derangements)
        via_binomial = sum(binomial(n, k) * signed_bell[k] for k in range(n + 1))
        telescoped = 1 - sum(signed_bell[:n])
        run.check_members(
            {"n": n},
            (
                ("derangement-vs-binomial", via_derangements, via_binomial),
                ("binomial-vs-telescoped", via_binomial, telescoped),
            ),
        )


@_entry(
    "L16",
    "alternating binomial sums of exponential polynomials telescope",
    "polynomial-equality",
    ("alternating binomial sums", "telescoped partial sums"),
    n_range=(0, 15),
)
def _chk_l16(ctx, run, n_lo, n_hi, p_hi, order, eps):
    phi = exp_polys(n_hi)
    for n in range(n_lo, n_hi + 1):
        lhs = _combine([binomial(n, k) * _sign(k) for k in range(n + 1)], phi[: n + 1])
        acc = _combine([-_sign(j) for j in range(n)], phi[:n]) if n else ZERO
        run.check({"n": n}, lhs, ONE + X * acc)


@_entry(
    "ORTH",
    "the two triangles are mutually inverse in both multiplication orders",
    "scalar-equality",
    ("second-kind rows", "first-kind rows"),
    n_range=(0, 30),
)
def _chk_orth(ctx, run, n_lo, n_hi, p_hi, order, eps):
    second = [ctx.stirling2_row(n) for n in range(n_hi + 1)]
    first = [ctx.stirling1_row(n) for n in range(n_hi + 1)]
    # column j of each triangle, zero above the diagonal
    second_cols = [[row[j] if j < len(row) else 0 for row in second] for j in range(n_hi + 1)]
    first_cols = [[row[j] if j < len(row) else 0 for row in first] for j in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        for j in range(n + 1):
            want = 1 if n == j else 0
            run.check(
                {"n": n, "j": j, "form": "second-then-first"},
                _dot(second[n], first_cols[j]),
                want,
            )
            run.check(
                {"n": n, "j": j, "form": "first-then-second"},
                _dot(first[n], second_cols[j]),
                want,
            )


@_entry(
    "GF6",
    "hyperharmonic generating function: log-over-power product against signed factorial coefficients",
    "series-equality",
    ("series product of log and binomial series", "hyperharmonic closed form"),
    p_max=5,
)
def _chk_gf6(ctx, run, n_lo, n_hi, p_hi, order, eps):
    neg_log = -log1p_series(order)
    for p in range(p_hi + 1):
        lhs = egf_mul(neg_log, pow1p_series(-p, order))
        rhs = Egf(_sign(i) * ctx.factorial(i) * ctx.hyperharmonic(p, i) for i in range(order + 1))
        run.check({"p": p}, lhs, rhs)


@_entry(
    "DIL",
    "dilogarithm of a geometric argument has harmonic-number coefficients",
    "series-equality",
    ("dilogarithm series composition", "harmonic-number closed form"),
)
def _chk_dil(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # inner: -t/(1-t), whose coefficients are a_n = -n! for n >= 1
    inner = Egf(Fraction(0) if i == 0 else Fraction(-ctx.factorial(i)) for i in range(order + 1))
    lhs = egf_compose(dilog_series(order), inner)
    rhs = Egf(
        Fraction(0) if i == 0 else -ctx.factorial(i - 1) * ctx.harmonic(i) for i in range(order + 1)
    )
    run.check({"order": order}, lhs, rhs)


_L4_SEQUENCES = (
    ("reciprocal-ramp", lambda k: Fraction(1, k + 1)),
    ("alternating-mix", lambda k: Fraction(_sign(k), k * k + 1)),
)
_L4_LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


def _weighted_partial_sums(nums, den, apows, bpows):
    """The partial sums sum_(k<=i) g_k w^(i-k), for g = nums / den and a
    weight w = a/b given by its powers apows[j] = a^j and bpows[j] = b^j
    (b > 0, and 0^0 = 1): entry i is sum_k nums_k a^(i-k) b^k over den b^i."""
    out = []
    for i in range(len(nums)):
        total = 0
        for k in range(i + 1):
            total += nums[k] * apows[i - k] * bpows[k]
        out.append(Fraction(total, den * bpows[i]))
    return out


@_entry(
    "L4",
    "partial-sum weights equal geometric-series convolution on ordinary coefficients",
    "series-equality",
    ("direct weighted partial sums", "series reciprocal and product"),
)
def _chk_l4(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for name, gen in _L4_SEQUENCES:
        g = [gen(k) for k in range(order + 1)]
        nums, den = common_denominator(g)
        for lam in _L4_LAMBDAS:
            # the weight is lam for "minus" and -lam for "plus"
            apows = [lam.numerator**j for j in range(order + 1)]
            bpows = [lam.denominator**j for j in range(order + 1)]
            for form, denom_sign in (("minus", -1), ("plus", 1)):
                denom = Egf([Fraction(1), Fraction(denom_sign) * lam] + [Fraction(0)] * (order - 1))
                product = egf_mul(from_ordinary(g), egf_reciprocal(denom))
                via_series = list(to_ordinary(product))
                signed = apows if form == "minus" else [_sign(j) * x for j, x in enumerate(apows)]
                direct = _weighted_partial_sums(nums, den, signed, bpows)
                run.check(
                    {"sequence": name, "lambda": format_rational(lam), "form": form},
                    direct,
                    via_series,
                )


@_entry(
    "E18",
    "the Bernoulli closed form for power sums equals direct summation",
    "scalar-equality",
    ("Bernoulli-number closed form", "direct summation"),
    n_range=(0, 30),
    p_max=12,
)
def _chk_e18(ctx, run, n_lo, n_hi, p_hi, order, eps):
    for p in range(p_hi + 1):
        for n in range(n_lo, n_hi + 1):
            run.check({"p": p, "n": n}, ctx.faulhaber(p, n), ctx.power_sum(p, n))


@_entry(
    "CBH",
    "half-integer binomial coefficients in central-binomial form",
    "scalar-equality",
    ("falling-factorial generalized binomial", "central-binomial closed form"),
    n_range=(0, 20),
)
def _chk_cbh(ctx, run, n_lo, n_hi, p_hi, order, eps):
    half = Fraction(1, 2)
    for j in range(n_lo, n_hi + 1):
        rhs = Fraction(binomial(2 * j, j) * -_sign(j), 2 ** (2 * j) * (2 * j - 1))
        run.check({"j": j}, binomial_rational(half, j), rhs)


# -- public API ------------------------------------------------------


def list_identities() -> list[IdentitySpec]:
    """All registry entries, in their fixed report order."""
    return [spec for spec, _ in _REGISTRY.values()]


def _env_floor() -> int | None:
    raw = os.environ.get(ENV_MAX_N)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None


def check_identity(
    identity_id: str,
    ctx: SeqContext | None = None,
    max_n: int | None = None,
    order: int | None = None,
    eps: Fraction | float | None = None,
) -> IdentityReport:
    """Check one entry over its domain.

    ``max_n`` intersects the entry's index range from above, ``order``
    sets the truncation order for series entries, and ``eps`` the
    tolerance for the tail-bounded entry.  The STIRLINGKIT_MAX_N
    environment variable raises the entry's default cap first.  An
    effective range with no instance raises ValueError, so a report never
    passes vacuously.
    """
    if identity_id not in _REGISTRY:
        raise KeyError(f"unknown identity id: {identity_id!r}")
    spec, checker = _REGISTRY[identity_id]
    ctx = context(ctx)
    n_lo, n_hi = spec.n_range if spec.n_range else (0, 0)
    floor = _env_floor()
    if spec.n_range and floor is not None:
        n_hi = max(n_hi, floor)
    if spec.n_range and max_n is not None:
        n_hi = min(n_hi, max_n)
    if n_hi < n_lo:
        raise ValueError(f"{spec.id} has no instance in its effective range {n_lo} <= n <= {n_hi}")
    eff_order = DEFAULT_SERIES_ORDER if order is None else order
    if eff_order < 1:
        raise ValueError(f"series order must be positive, got {eff_order}")
    eff_eps = DEFAULT_EPS if eps is None else Fraction(eps)
    if eff_eps <= 0:
        raise ValueError("tolerance must be positive")
    run = _Run()
    checker(ctx, run, n_lo, n_hi, spec.p_max or 0, eff_order, eff_eps)
    return IdentityReport(spec.id, run.checked, tuple(run.failures), tuple(run.notes))


def run_all(
    max_n: int | None = None,
    series_order: int = DEFAULT_SERIES_ORDER,
    eps: Fraction | float = DEFAULT_EPS,
    ctx: SeqContext | None = None,
) -> list[IdentityReport]:
    """Check every entry, sharing one memo context, in registry order."""
    if max_n is not None and max_n < 5:
        raise ValueError(f"max_n must be at least 5, got {max_n}")
    return [
        check_identity(identity_id, ctx=ctx, max_n=max_n, order=series_order, eps=eps)
        for identity_id in _REGISTRY
    ]
