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

import math
import os
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice, starmap, zip_longest
from operator import add, mul, sub

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
)
from .exact import _combine, binomial, binomial_rational, common_denominator, factorial, format_rational
from .poly import ONE, Poly, X, ZERO, bernoulli_poly, binom_polys, euler_polys, exp_polys, geom_poly, xd_apply
from .seq import SeqContext, context
from .transform import _sums

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


def _ratio(num: int, den: int):
    """num / den as an int when den divides num, else as a Fraction: a
    value that should be an integer and is not still reaches the check."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _fmt(v) -> str:
    if isinstance(v, Poly):
        return str(v)
    if isinstance(v, Egf):
        v = v.coeffs
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_rational(c) for c in v) + "]"
    return format_rational(v)


class _Families(dict):
    """The families a pass builds once.  ``families(builder, n, *args)`` is
    the tuple of the first n + 1 entries of ``builder(n, *args)``, read off
    the longest list built so far for that builder and those arguments;
    every builder passed here gives at n a prefix of what it gives at any
    larger n.  The checkers pass each builder through the module global, so
    a patched builder takes effect."""

    __slots__ = ()

    def __call__(self, builder, n: int, *args) -> tuple:
        key = (builder, *args)
        held = self.get(key)
        if held is None or len(held) <= n:
            held = self[key] = tuple(builder(n, *args))
        return held[: n + 1]


class _Run:
    """Accumulates instance counts, counterexamples, and notes, with the
    families of the pass the entry runs in."""

    __slots__ = ("checked", "failures", "notes", "families")

    def __init__(self, families: _Families | None = None) -> None:
        self.checked = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []
        self.families = families

    def check(self, params: dict, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append(Failure(dict(params), _fmt(lhs), _fmt(rhs)))

    def check_ratio(self, params: dict, lnum: int, lden: int, rnum: int, rden: int) -> None:
        """check() on lnum / lden and rnum / rden by cross-multiplication,
        which builds a Fraction only for a failure."""
        if lnum * rden == rnum * lden:
            self.checked += 1
        else:
            self.check(params, Fraction(lnum, lden), Fraction(rnum, rden))

    def check_ratios(self, params: dict, left: list, right: list) -> None:
        """check() on two lists of (numerator, denominator) pairs, compared
        by cross-multiplication, which builds Fractions only for a failure."""
        if len(left) == len(right) and all(a * d == c * b for (a, b), (c, d) in zip(left, right)):
            self.checked += 1
        else:
            self.check(params, [Fraction(a, b) for a, b in left], [Fraction(c, d) for c, d in right])

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
# A scalar triangle-weighted sum sum_k S(n, k) a_k or sum_k s(n, k) a_k
# is one pass of the transform engine over the weights a, taken once per
# call and indexed by n: ``_sums`` gives integer sums, each over its own
# scale, which ``check_ratio`` compares with the other side by
# cross-multiplication.  A triangle-weighted polynomial sum reads its row
# once per index and goes to ``_combine``, which builds one vector and
# never reads weights past the row's end.  A binomial sum over a
# family (L8, L16) is taken for every upper index at once on the family's
# numerator rows by Pascal's rule, and a product by x is a shift of a row.


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
        # k! h(p, k) is an integer, taken by exact division
        hs = [ctx.hyperharmonic(p, k) for k in range(n_hi + 1)]
        weights = [_ratio(f * h.numerator, h.denominator) for f, h in zip(signed_fact, hs)]
        lhs, scales = _sums(weights, ctx.stirling2_row)
        for n in range(n_lo, n_hi + 1):
            run.check_ratio({"p": p, "n": n}, lhs[n], scales[n], _sign(n) * n * p ** (n - 1), 1)


@_entry(
    "T1b",
    "order-one case: alternating factorial-weighted partition sums of harmonics equal a signed index",
    "scalar-equality",
    ("triangle-weighted sum over harmonic numbers", "signed index"),
    n_range=(0, 60),
)
def _chk_t1b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    hs = [ctx.harmonic(k) for k in range(n_hi + 1)]
    weights = [_ratio(_sign(k) * ctx.factorial(k) * h.numerator, h.denominator) for k, h in enumerate(hs)]
    lhs, scales = _sums(weights, ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        run.check_ratio({"n": n}, lhs[n], scales[n], _sign(n) * n, 1)


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
        lhs, scales = _sums(weights, ctx.stirling1_row)
        for n in range(n_lo, n_hi + 1):
            h = ctx.hyperharmonic(p, n)
            rhs = _sign(n) * ctx.factorial(n) * h.numerator
            run.check_ratio({"p": p, "n": n}, lhs[n], scales[n], rhs, h.denominator)


def _geometric_blocks(binom, w):
    """block_k = sum_(j<=k) w^(k-j) binom_j for each k, through the
    recurrence block_k = w block_(k-1) + binom_k."""
    blocks = []
    block = ZERO
    for b in binom:
        block = w * block + b
        blocks.append(block)
    return blocks


def _half_blocks(n_hi):
    """The geometric blocks of binom_0 .. binom_(n_hi) at weight -1/2."""
    return _geometric_blocks(binom_polys(n_hi), Fraction(-1, 2))


def _reciprocal_blocks(n_hi):
    """block_k = sum_(j<=k) (-1)^(k-j) / (k-j+1) binom_j for each k <= n_hi.

    sum_k block_k t^k = (log(1+t)/t) (1+t)^x = (1/t) d/dx (1+t)^x, and
    (1+t)^x = sum_k binom_k t^k, so block_k is the derivative of
    binom_(k+1)."""
    return [b.derivative() for b in binom_polys(n_hi + 1)[1:]]


def _bernoulli_polys(n_hi, ctx):
    """B_0(x) .. B_(n_hi)(x), each built binomially from ctx's numbers."""
    return [bernoulli_poly(k, ctx) for k in range(n_hi + 1)]


def _first_kind_sums(ctx, run, n_lo, n_hi, polys, blocks):
    """Check sum_k s(n, k) P_k = n! block_n for each index n."""
    for n in range(n_lo, n_hi + 1):
        run.check({"n": n}, _combine(ctx.stirling1_row(n), polys[: n + 1]), ctx.factorial(n) * blocks[n])


def _second_kind_sums(ctx, run, n_lo, n_hi, polys, blocks):
    """Check P_n = sum_k S(n, k) k! block_k for each index n."""
    fact = [ctx.factorial(k) for k in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        run.check({"n": n}, polys[n], _combine(list(map(mul, ctx.stirling2_row(n), fact)), blocks[: n + 1]))


@_entry(
    "T3a",
    "first-kind sums of Euler polynomials match half-power binomial-polynomial expansions",
    "polynomial-equality",
    ("first-kind sums of series-extracted Euler polynomials", "binomial-polynomial combination"),
    n_range=(0, 15),
)
def _chk_t3a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    _first_kind_sums(ctx, run, n_lo, n_hi, run.families(euler_polys, n_hi), run.families(_half_blocks, n_hi))


@_entry(
    "T3b",
    "Euler polynomials as second-kind sums of half-power binomial-polynomial blocks",
    "polynomial-equality",
    ("series-extracted Euler polynomial", "triangle-weighted binomial-polynomial blocks"),
    n_range=(0, 15),
)
def _chk_t3b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    _second_kind_sums(ctx, run, n_lo, n_hi, run.families(euler_polys, n_hi), run.families(_half_blocks, n_hi))


@_entry(
    "E9",
    "Euler values at one half as nested central-binomial sums",
    "scalar-equality",
    ("Euler polynomial evaluated at one half", "central-binomial nested sum"),
    n_range=(0, 20),
)
def _chk_e9(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # inner_k = sum_(j<=k) C(2j, j) / ((1-2j) 2^(k+j)) = P_k / 2^k, with P_k
    # the prefix sums of C(2j, j) / ((1-2j) 2^j)
    weights = []
    prefix = Fraction(0)
    for k in range(n_hi + 1):
        prefix += Fraction(binomial(2 * k, k), (1 - 2 * k) * 2**k)
        weights.append(ctx.factorial(k) * _sign(k) * prefix / 2**k)
    rhs, scales = _sums(weights, ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        e = ctx.euler_number(n)
        run.check_ratio({"n": n}, e.numerator, e.denominator, rhs[n], scales[n])


@_entry(
    "T5a",
    "first-kind sums of Bernoulli polynomials match reciprocal-weighted binomial-polynomial expansions",
    "polynomial-equality",
    ("first-kind sums of binomially built Bernoulli polynomials", "binomial-polynomial combination"),
    n_range=(0, 15),
)
def _chk_t5a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    bernoulli = run.families(_bernoulli_polys, n_hi, ctx)
    _first_kind_sums(ctx, run, n_lo, n_hi, bernoulli, run.families(_reciprocal_blocks, n_hi))


@_entry(
    "T5b",
    "Bernoulli polynomials as second-kind sums of reciprocal-weighted binomial-polynomial blocks",
    "polynomial-equality",
    ("binomially built Bernoulli polynomial", "triangle-weighted binomial-polynomial blocks"),
    n_range=(0, 15),
)
def _chk_t5b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    bernoulli = run.families(_bernoulli_polys, n_hi, ctx)
    _second_kind_sums(ctx, run, n_lo, n_hi, bernoulli, run.families(_reciprocal_blocks, n_hi))


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
    series = egf_reciprocal(Egf(Fraction(1, m + 1) for m in range(n_hi + 1)))
    lhs, scales = _sums([Fraction(ctx.factorial(k) * _sign(k), k + 1) for k in range(n_hi + 1)], ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        run.check_ratio({"n": n}, lhs[n], scales[n], series._nums[n], series._den)


@_entry(
    "T6a",
    "first-kind sums of Bernoulli numbers give factorial-weighted harmonic numbers",
    "scalar-equality",
    ("first-kind Bernoulli sums", "factorial-weighted harmonic closed form"),
    n_range=(1, 40),
)
def _chk_t6a(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # B_(k-1) for k >= 1; the k = 0 summand is absent
    lhs, scales = _sums([0] + [ctx.bernoulli(k - 1) for k in range(1, n_hi + 1)], ctx.stirling1_row)
    for n in range(n_lo, n_hi + 1):
        h = ctx.harmonic(n)
        run.check_ratio({"n": n}, lhs[n], scales[n], -_sign(n) * ctx.factorial(n - 1) * h.numerator, h.denominator)


@_entry(
    "T6b",
    "second-kind inversion carries factorial-weighted harmonics back to Bernoulli numbers",
    "scalar-equality",
    ("Bernoulli number from the zigzag (tangent-number) column", "triangle-weighted harmonic sums"),
    n_range=(1, 40),
)
def _chk_t6b(ctx, run, n_lo, n_hi, p_hi, order, eps):
    weights = [0] + [-_sign(k) * ctx.factorial(k - 1) * ctx.harmonic(k) for k in range(1, n_hi + 1)]
    rhs, scales = _sums(weights, ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        b = ctx.bernoulli(n - 1)
        run.check_ratio({"n": n}, b.numerator, b.denominator, rhs[n], scales[n])


@_entry(
    "T6c",
    "alternating first-kind Bernoulli sums give factorial over square values",
    "scalar-equality",
    ("alternating first-kind Bernoulli sums", "factorial-over-square closed form"),
    n_range=(1, 40),
)
def _chk_t6c(ctx, run, n_lo, n_hi, p_hi, order, eps):
    lhs, scales = _sums([0] + [ctx.bernoulli(k - 1) * _sign(k) for k in range(1, n_hi + 1)], ctx.stirling1_row)
    for n in range(n_lo, n_hi + 1):
        run.check_ratio({"n": n}, lhs[n], scales[n], _sign(n) * ctx.factorial(n), n * n)


@_entry(
    "T6d",
    "second-kind inversion of factorial-over-square values recovers Bernoulli numbers",
    "scalar-equality",
    ("Bernoulli number from the zigzag (tangent-number) column", "alternating factorial-over-square sums"),
    n_range=(1, 40),
)
def _chk_t6d(ctx, run, n_lo, n_hi, p_hi, order, eps):
    weights = [0] + [Fraction(ctx.factorial(k) * _sign(k), k * k) for k in range(1, n_hi + 1)]
    sums, scales = _sums(weights, ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        b = ctx.bernoulli(n - 1)
        run.check_ratio({"n": n}, b.numerator, b.denominator, _sign(n) * sums[n], scales[n])


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
        direct, scales = _sums([k**p for k in range(n_hi + 1)], ctx.stirling2_row)
        for n in range(n_lo, n_hi + 1):
            params = {"n": n, "p": p, "form": "recurrence-vs-direct"}
            run.check_ratio(params, ctx.moment(n, p), 1, direct[n], scales[n])
    for p, combo in _BELL_CLOSED_FORMS.items():
        for n in range(n_lo, n_hi + 1):
            rhs = sum(c * ctx.bell(n + off) for off, c in combo)
            run.check({"n": n, "p": p, "form": "bell-closed-form"}, ctx.moment(n, p), rhs)


def _rows(polys, den=None):
    """(rows, den): the coefficient numerators of the polynomials over den,
    by default the lcm of their denominators.  A given den must be a
    multiple of each, so no denominator is dropped."""
    if den is None:
        den = math.lcm(*[f._den for f in polys])
    return [f._nums if f._den == den else [c * (den // f._den) for c in f._nums] for f in polys], den


def _binomial_sums(rows, op=add):
    """sums[p] = sum_(j<=p) C(p, j) rows[j] for each p < len(rows), or
    sum_(j<=p) C(p, j) (-1)^j rows[j] when op is sub, on integer rows of
    any lengths, by Pascal's rule: level 0 is the rows, each next level
    pairs every row with its right neighbour by op, and sums[p] is the
    first row of level p."""
    sums = []
    level = rows
    while level:
        sums.append(level[0])
        level = [list(starmap(op, zip_longest(a, b, fillvalue=0))) for a, b in zip(level, level[1:])]
    return sums


def _shift_sub(a, b):
    """The integer row of a - x b: b shifted up one degree and subtracted."""
    return list(starmap(sub, zip_longest(a, [0, *b], fillvalue=0)))


@_entry(
    "L8",
    "commutation rule for repeated x d/dx applied to exponential polynomials",
    "polynomial-equality",
    ("operator power on one index", "shifted operator power minus binomial correction"),
    n_range=(0, 15),
    p_max=6,
)
def _chk_l8(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # phi_0 .. phi_(n_hi+1), a prefix of the list E15 reads, so a pass builds one
    phi = run.families(exp_polys, n_hi + 2)[: n_hi + 2]
    # powers[n][j] = (xD)^j phi_n, each built once; the left side reads powers[n][p + 1]
    powers = [[xd_apply(f, j) for j in range(p_hi + 2)] for f in phi]
    # xD keeps a denominator or divides it, so phi's common one serves every power
    _, den = _rows(phi)
    rows = [_rows(row, den)[0] for row in powers]
    # sums[n][p] = sum_j C(p, j) (xD)^j phi_n
    sums = [_binomial_sums(row[: p_hi + 1]) for row in rows[: n_hi + 1]]
    for p in range(p_hi + 1):
        for n in range(n_lo, n_hi + 1):
            rhs = Poly._from_nums(_shift_sub(rows[n + 1][p], sums[n][p]), den)
            run.check({"n": n, "p": p}, powers[n][p + 1], rhs)


@_entry(
    "E15",
    "first and second x d/dx of exponential polynomials as three-term shift combinations",
    "polynomial-equality",
    ("triangle-weighted index sums", "operator calculus and shift combinations"),
    n_range=(0, 15),
)
def _chk_e15(ctx, run, n_lo, n_hi, p_hi, order, eps):
    phi = run.families(exp_polys, n_hi + 2)
    rows, den = _rows(phi)
    # diff[m] = phi_(m+1) - x phi_m, and phi_(n+2) - 2x phi_(n+1) + (x^2 - x) phi_n
    # is diff[n+1] - x diff[n] - x phi_n
    diff = [_shift_sub(rows[m + 1], rows[m]) for m in range(n_hi + 2)]
    for n in range(n_lo, n_hi + 1):
        row = ctx.stirling2_row(n)
        first_sum = Poly._from_nums([c * k for k, c in enumerate(row)], 1)
        first_op = xd_apply(phi[n], 1)
        first_comb = Poly._from_nums(diff[n], den)
        run.check_members(
            {"n": n, "display": 1},
            (
                ("triangle-sum-vs-operator", first_sum, first_op),
                ("operator-vs-shift-combination", first_op, first_comb),
            ),
        )
        second_sum = Poly._from_nums([c * k * k for k, c in enumerate(row)], 1)
        second_op = xd_apply(phi[n], 2)
        second_comb = Poly._from_nums(_shift_sub(_shift_sub(diff[n + 1], diff[n]), rows[n]), den)
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
        sums = Egf._from_nums([ctx.power_sum(p, m) for m in range(order + 1)], 1)
        run.check({"p": p}, lhs, egf_mul(minus_exp, sums))


def _bernoulli_convolution(ctx, run, n_lo, n_hi, bernoulli, depth=1, previous=False):
    """Reciprocal-index partition sums against Bernoulli-weighted convolutions.

    The left side is sum_k S(n, k) x^k / k^depth.  The right side applies
    depth times the convolution  g -> (1/n) sum_{k>=1} C(n, k) b_{n-k} g_k
    to the exponential polynomials phi_k, with b the given Bernoulli
    convention, and adds phi_{n-1} when ``previous`` is set.  The
    polynomial form runs for n <= 12; the scalar form, at x = 1 with Bell
    numbers for phi, runs over the whole range on integers over one
    running denominator.  Both read one table of convolution weights, and
    each level is built once, bottom-up, for every index up to its cap.
    """
    poly_hi = min(n_hi, 12)
    # 1/k^depth; the k = 0 summand is absent
    recip = [0] + [Fraction(1, k**depth) for k in range(1, n_hi + 1)]
    inv, inv_den = common_denominator(recip)
    sums, scales = _sums(recip, ctx.stirling2_row)
    bnums, bden = common_denominator([bernoulli(j) for j in range(n_hi + 1)])
    # conv[n][k - 1] = C(n, k) b_(n-k) for 1 <= k <= n, over bden
    conv = [[binomial(n, k) * bnums[n - k] for k in range(1, n + 1)] for n in range(n_hi + 1)]
    # scalar level n is nums[n] / den; 1/n is (lcm / n) / lcm
    lcm = math.lcm(*range(1, n_hi + 1))
    phi, bell = run.families(exp_polys, poly_hi), [ctx.bell(k) for k in range(n_hi + 1)]
    polys, nums, den = phi, bell, 1
    for _ in range(depth):
        # index 0 has no convolution and is never read
        polys = [None] + [
            _combine(conv[n], polys[1 : n + 1]).scale(Fraction(1, n * bden)) for n in range(1, poly_hi + 1)
        ]
        nums = [None] + [sum(map(mul, conv[n], nums[1 : n + 1])) * (lcm // n) for n in range(1, n_hi + 1)]
        den *= bden * lcm
    for n in range(n_lo, poly_hi + 1):
        lhs = Poly._from_nums(list(map(mul, ctx.stirling2_row(n), inv)), inv_den)
        run.check({"n": n, "form": "polynomial"}, lhs, phi[n - 1] + polys[n] if previous else polys[n])
    for n in range(n_lo, n_hi + 1):
        rhs = bell[n - 1] * den + nums[n] if previous else nums[n]
        run.check_ratio({"n": n, "form": "scalar"}, sums[n], scales[n], rhs, den)


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
    x_plus_x2 = X + X * X
    prev = geom_poly(n_lo - 1, ctx)
    for n in range(n_lo, n_hi + 1):
        geom = geom_poly(n, ctx)
        run.check({"n": n}, geom, X * prev + x_plus_x2 * prev.derivative())
        prev = geom


@_entry(
    "C13",
    "factorial-over-index partition sums double the ordered-partition count; the alternating form telescopes",
    "scalar-equality",
    ("shifted-factorial triangle sums", "ordered-partition closed form"),
    n_range=(1, 40),
)
def _chk_c13(ctx, run, n_lo, n_hi, p_hi, order, eps):
    plain_weights = [0] + [ctx.factorial(k - 1) for k in range(1, n_hi + 1)]
    plain, plain_scales = _sums(plain_weights, ctx.stirling2_row)
    alt, alt_scales = _sums([_sign(k) * w for k, w in enumerate(plain_weights)], ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        want_plain = 1 if n == 1 else 2 * ctx.fubini(n - 1)
        run.check_ratio({"n": n, "form": "plain"}, plain[n], plain_scales[n], want_plain, 1)
        want_alt = -1 if n == 1 else 0
        run.check_ratio({"n": n, "form": "alternating"}, alt[n], alt_scales[n], want_alt, 1)


def _tail_cutoff(n: int, eps: Fraction) -> int:
    """Smallest doubling K with a certified remainder below eps.

    The terms t_k = k^n / 2^(k+1) decay ratio-bounded: for k >= K the
    ratio t_{k+1}/t_k is at most q = ((K+1)/K)^n / 2, so once q < 1 the
    tail after K is below (K^n / 2^K) / (1 - q).
    """
    K = max(8, 2 * n + 2)
    while True:
        # q = a/b, and the bound is K^n b / (2^K (b - a)), compared in integers
        a, b = (K + 1) ** n, 2 * K**n
        if a < b and K**n * b * eps.denominator < eps.numerator * (b - a) << K:
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
    powers = []  # k^n for k < len(powers), each grown from k^(n-1)
    for n in range(n_lo, n_hi + 1):
        K = _tail_cutoff(n, eps)
        powers = list(map(mul, powers, count()))
        powers += [k**n for k in range(len(powers), K + 1)]
        # sum_(k<=K) k^n / 2^(k+1) as one integer over 2^(K+1), by Horner's rule
        partial = 0
        for power in islice(powers, K + 1):
            partial = (partial << 1) + power
        scale = 2 ** (K + 1)
        target = ctx.fubini(n)
        if abs(partial - target * scale) * eps.denominator < eps.numerator * scale:
            run.checked += 1
        else:
            run.check({"n": n, "cutoff": K}, Fraction(partial, scale), target)


@_entry(
    "C14",
    "doubly shifted factorial partition sums count one less than the index",
    "scalar-equality",
    ("alternating doubly shifted factorial sums", "index minus one"),
    n_range=(1, 40),
)
def _chk_c14(ctx, run, n_lo, n_hi, p_hi, order, eps):
    weights = [0, 0] + [ctx.factorial(k - 2) * _sign(k) for k in range(2, n_hi + 1)]
    lhs, scales = _sums(weights, ctx.stirling2_row)
    for n in range(n_lo, n_hi + 1):
        run.check_ratio({"n": n}, lhs[n], scales[n], n - 1, 1)


@_entry(
    "T15",
    "three routes to the complementary Bell numbers agree",
    "scalar-equality",
    ("alternating derangement transform", "alternating binomial transform of Bell numbers"),
    n_range=(0, 40),
)
def _chk_t15(ctx, run, n_lo, n_hi, p_hi, order, eps):
    derangement_sums, scales = _sums([_sign(k) * ctx.derangement(k) for k in range(n_hi + 1)], ctx.stirling2_row)
    signed_bell = [_sign(k) * ctx.bell(k) for k in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        via_derangements = _ratio(_sign(n) * derangement_sums[n], scales[n])
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
    phi = run.families(exp_polys, n_hi)
    rows, den = _rows(phi)
    # lhs[n] = sum_k C(n, k) (-1)^k phi_k, the first row of each level of
    # repeated differences
    lhs = _binomial_sums(rows, sub)
    acc = ZERO  # the telescoped sum_(j<n) -(-1)^j phi_j
    for n in range(n_hi + 1):
        if n >= n_lo:
            run.check({"n": n}, Poly._from_nums(lhs[n], den), ONE + X * acc)
        acc = acc + phi[n] if n % 2 else acc - phi[n]


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
    # column j of each triangle from row j down: an entry above the
    # diagonal is zero, so each product of row n and column j starts at k = j
    second_cols = [[row[j] for row in second[j:]] for j in range(n_hi + 1)]
    first_cols = [[row[j] for row in first[j:]] for j in range(n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        for j in range(n + 1):
            want = 1 if n == j else 0
            run.check(
                {"n": n, "j": j, "form": "second-then-first"},
                sum(map(mul, islice(second[n], j, None), first_cols[j])),
                want,
            )
            run.check(
                {"n": n, "j": j, "form": "first-then-second"},
                sum(map(mul, islice(first[n], j, None), second_cols[j])),
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
        # i! h(p, i) is an integer, taken by exact division
        hs = [ctx.hyperharmonic(p, i) for i in range(order + 1)]
        rhs = Egf(_ratio(_sign(i) * ctx.factorial(i) * h.numerator, h.denominator) for i, h in enumerate(hs))
        run.check({"p": p}, lhs, rhs)


@_entry(
    "DIL",
    "dilogarithm of a geometric argument has harmonic-number coefficients",
    "series-equality",
    ("dilogarithm series composition", "harmonic-number closed form"),
)
def _chk_dil(ctx, run, n_lo, n_hi, p_hi, order, eps):
    # inner: -t/(1-t), whose coefficients are a_n = -n! for n >= 1
    inner = Egf._from_nums([0] + [-ctx.factorial(i) for i in range(1, order + 1)], 1)
    lhs = egf_compose(dilog_series(order), inner)
    rhs = Egf([0] + [-ctx.factorial(i - 1) * ctx.harmonic(i) for i in range(1, order + 1)])
    run.check({"order": order}, lhs, rhs)


_L4_SEQUENCES = (
    ("reciprocal-ramp", lambda k: Fraction(1, k + 1)),
    ("alternating-mix", lambda k: Fraction(_sign(k), k * k + 1)),
)
_L4_LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


def _weighted_partial_sums(nums, den, a, b):
    """The partial sums sum_(k<=i) g_k w^(i-k), for g = nums / den and a
    weight w = a/b (b > 0, and 0^0 = 1), as (numerator, denominator)
    pairs: entry i is t_i = sum_k nums_k a^(i-k) b^k over den b^i, through
    the recurrence t_i = a t_(i-1) + nums_i b^i."""
    sums = []
    t, bpow = 0, 1
    for x in nums:
        t = a * t + x * bpow
        sums.append((t, den * bpow))
        bpow *= b
    return sums


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
        series = from_ordinary(g)
        for lam in _L4_LAMBDAS:
            for form, denom_sign in (("minus", -1), ("plus", 1)):
                denom = Egf([1, denom_sign * lam] + [0] * (order - 1))
                product = egf_mul(series, egf_reciprocal(denom))
                # the ordinary coefficients a_i / i!, as to_ordinary reads them
                pden = product._den
                via_series = [(a, pden * factorial(i)) for i, a in enumerate(product._nums)]
                # the weight is lam for "minus" and -lam for "plus"
                direct = _weighted_partial_sums(nums, den, -denom_sign * lam.numerator, lam.denominator)
                run.check_ratios(
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


def _settings(ctx, order, eps) -> tuple:
    """A pass's settings, resolved once: (ctx, floor, order, eps,
    families), with the default context for None, the STIRLINGKIT_MAX_N
    floor, the series order and tolerance with their defaults, checked, and
    an empty memo for the families the pass builds, which lives as long as
    the pass."""
    floor = _env_floor()
    order = DEFAULT_SERIES_ORDER if order is None else order
    if order < 1:
        raise ValueError(f"series order must be positive, got {order}")
    eps = DEFAULT_EPS if eps is None else Fraction(eps)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    if 2 * eps.numerator > eps.denominator:
        # E30 passes a wrong integer F_n + d when |d| < 2 eps, so a larger
        # tolerance could pass a wrong count
        raise ValueError("tolerance must be at most 1/2")
    return context(ctx), floor, order, eps, _Families()


def _check(spec, checker, max_n, ctx, floor, order, eps, families) -> IdentityReport:
    """One entry's report, its range capped by ``max_n``, under a pass's
    settings."""
    n_lo, n_hi = spec.n_range if spec.n_range else (0, 0)
    if spec.n_range and floor is not None:
        n_hi = max(n_hi, floor)
    if spec.n_range and max_n is not None:
        n_hi = min(n_hi, max_n)
    if n_hi < n_lo:
        raise ValueError(f"{spec.id} has no instance in its effective range {n_lo} <= n <= {n_hi}")
    run = _Run(families)
    checker(ctx, run, n_lo, n_hi, spec.p_max or 0, order, eps)
    return IdentityReport(spec.id, run.checked, tuple(run.failures), tuple(run.notes))


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
    tolerance for the tail-bounded entry, at most 1/2.  The
    STIRLINGKIT_MAX_N environment variable raises the entry's default cap
    first.  An effective range with no instance raises ValueError, so a
    report never passes vacuously.
    """
    if identity_id not in _REGISTRY:
        raise KeyError(f"unknown identity id: {identity_id!r}")
    return _check(*_REGISTRY[identity_id], max_n, *_settings(ctx, order, eps))


def run_all(
    max_n: int | None = None,
    series_order: int = DEFAULT_SERIES_ORDER,
    eps: Fraction | float = DEFAULT_EPS,
    ctx: SeqContext | None = None,
) -> list[IdentityReport]:
    """Check every entry, sharing one memo context, in registry order."""
    if max_n is not None and max_n < 5:
        raise ValueError(f"max_n must be at least 5, got {max_n}")
    settings = _settings(ctx, series_order, eps)
    return [_check(spec, checker, max_n, *settings) for spec, checker in _REGISTRY.values()]
