"""Independent oracles for the test suite.

Each helper recomputes a quantity through a route the library never
uses (brute-force enumeration, textbook recurrences, direct expansion),
so agreement is evidence rather than an echo of the same code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb, factorial

from stirlingkit.exact import _combine, binomial, common_denominator
from stirlingkit.expr import (
    _BUILTINS,
    POWER_BITS_CAP,
    SUM_TERM_CAP,
    BinOp,
    Call,
    Env,
    EvalError,
    IntLit,
    Neg,
    ParseError,
    Sum,
    Token,
    Var,
    _chain,
    _power_bits,
)
from stirlingkit.poly import ONE, Poly, X, binom_polys, xd_apply


def stirling2_oracle(n: int, k: int) -> int:
    """Count partitions of an n-set into k blocks by enumerating
    restricted growth strings.  Exponential; keep n <= 10."""
    if n == 0:
        return 1 if k == 0 else 0

    def walk(placed: int, blocks: int) -> int:
        if placed == n:
            return 1 if blocks == k else 0
        total = 0
        for b in range(blocks + 1):
            total += walk(placed + 1, blocks + (1 if b == blocks else 0))
        return total

    return walk(0, 0)


def stirling1_row_oracle(n: int) -> list[int]:
    """Coefficients of x(x-1)...(x-n+1) by direct polynomial expansion;
    entry k is the signed first-kind number s(n, k)."""
    coeffs = [1]
    for i in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    return coeffs


def triangle_rows_oracle(n: int, kind: str) -> list[tuple[int, ...]]:
    """Rows 0..n of S (kind "second") or signed s (kind "first"), each
    entry by its own textbook recurrence in a per-entry loop, the way the
    rows were built before both triangles shared one row recurrence."""
    rows = [(1,)]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            above = prev[k] if k < m else 0
            row[k] = k * above + prev[k - 1] if kind == "second" else prev[k - 1] - (m - 1) * above
        rows.append(tuple(row))
    return rows


def binomial_falling_oracle(n: int, k: int) -> int:
    """C(n, k) for n < 0 as the falling factorial n(n-1)...(n-k+1) over
    k!, a k-term product, where the library reflects to (-1)^k C(k-n-1, k);
    0 for k < 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def derangement_oracle(n: int) -> int:
    """Count fixed-point-free permutations by enumeration; keep n <= 7."""
    return sum(
        1
        for perm in itertools.permutations(range(n))
        if all(perm[i] != i for i in range(n))
    )


def derangement_sum_oracle(n: int) -> int:
    """D_n by inclusion-exclusion, D_n = sum_(j<=n) (-1)^j n!/j!: an
    n-term sum for each n, where the library grows the table by the
    recurrence D_m = m D_(m-1) + (-1)^m."""
    total = 0
    term = 1  # n!/j!, walked downward so it grows by integer multiplies
    for j in range(n, -1, -1):
        total += term if j % 2 == 0 else -term
        term *= j
    return total


def bernoulli_oracle(n: int) -> list[Fraction]:
    """B_0 .. B_n from sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1), which pins
    B_1 = -1/2."""
    vals: list[Fraction] = []
    for m in range(n + 1):
        if m == 0:
            vals.append(Fraction(1))
            continue
        acc = sum(comb(m + 1, j) * vals[j] for j in range(m))
        vals.append(Fraction(-acc, m + 1))
    return vals


def euler_polys_oracle(n: int) -> list[list[Fraction]]:
    """Euler polynomial coefficients of E_0 .. E_n from
    E_m(x) = x^m - (1/2) sum_{k<m} C(m, k) E_k(x)."""
    polys: list[list[Fraction]] = []
    for m in range(n + 1):
        coeffs = [Fraction(0)] * (m + 1)
        coeffs[m] = Fraction(1)
        for k in range(m):
            w = Fraction(comb(m, k), 2)
            for j, c in enumerate(polys[k]):
                coeffs[j] -= w * c
        polys.append(coeffs)
    return polys


def euler_poly_oracle(n: int) -> list[Fraction]:
    return euler_polys_oracle(n)[n]


def bernoulli_poly_oracle(n: int) -> list[Fraction]:
    """Bernoulli polynomial coefficients from
    sum_{k<=m} C(m+1, k) B_k(x) = (m+1) x^m."""
    polys: list[list[Fraction]] = []
    for m in range(n + 1):
        coeffs = [Fraction(0)] * (m + 1)
        coeffs[m] = Fraction(m + 1)
        for k in range(m):
            w = comb(m + 1, k)
            for j, c in enumerate(polys[k]):
                coeffs[j] -= w * c
        polys.append([c / (m + 1) for c in coeffs])
    return polys[n]


def random_rationals(rng, length: int, num: int = 9, den: int = 9) -> list[Fraction]:
    """Sequence of small-magnitude rationals from a seeded Random."""
    return [
        Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(length)
    ]


def padded(coeffs, size: int) -> list[Fraction]:
    """Coefficient list extended with zeros to a fixed length."""
    out = [Fraction(c) for c in coeffs]
    out.extend(Fraction(0) for _ in range(size - len(out)))
    return out


# -- the two product loops that preceded the shared convolution ---------


def poly_mul_oracle(a, b) -> list[Fraction]:
    """Full Cauchy product of two coefficient lists, as Poly.__mul__
    computed it; empty when either list is."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ordinary_mul_oracle(a, b) -> list[Fraction]:
    """Cauchy product truncated to the shorter length, as
    egf.ordinary_mul computed it."""
    size = min(len(a), len(b))
    out = [Fraction(0)] * size
    for i in range(size):
        if a[i] == 0:
            continue
        for j in range(size - i):
            out[i + j] += a[i] * b[j]
    return out


# -- the Fraction kernels that preceded the integer-numerator vector ------


def convolve_oracle(a, b, size: int) -> list[Fraction]:
    """The first ``size`` Cauchy-product coefficients, one Fraction
    product and one Fraction add per term, as exact._convolve computed
    them before it moved onto integer numerators."""
    out = [Fraction(0)] * size
    for i in range(min(len(a), size)):
        ai = Fraction(a[i])
        if ai == 0:
            continue
        for j in range(min(len(b), size - i)):
            out[i + j] += ai * b[j]
    return out


def vector_add_oracle(a, b) -> list[Fraction]:
    """Coefficientwise sum, the shorter operand padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = [Fraction(c) for c in a]
    for i, c in enumerate(b):
        out[i] += c
    return out


def vector_scale_oracle(a, c) -> list[Fraction]:
    c = Fraction(c)
    return [c * x for x in a]


def combine_oracle(weights, vectors) -> list[Fraction]:
    """sum_k weights[k] vectors[k], coefficientwise, as the registry's
    ``acc = acc + c * v`` loops computed it before they moved onto one
    integer pass: one Fraction product and one Fraction add per term,
    shorter vectors padded with zeros."""
    out: list[Fraction] = []
    for w, v in zip(weights, vectors):
        out.extend(Fraction(0) for _ in range(len(v) - len(out)))
        for i, x in enumerate(v):
            out[i] += Fraction(w) * x
    return out


def _ordinary(a) -> list[Fraction]:
    return [Fraction(x) / factorial(n) for n, x in enumerate(a)]


def _exponential(c) -> list[Fraction]:
    return [x * factorial(n) for n, x in enumerate(c)]


def egf_mul_oracle(a, b) -> list[Fraction]:
    """EGF product of two equal-length coefficient lists through the
    ordinary views: to ordinary, Cauchy product, back."""
    return _exponential(convolve_oracle(_ordinary(a), _ordinary(b), len(a)))


def egf_compose_oracle(f, g) -> list[Fraction]:
    """f(g(t)) for g(0) = 0, by Horner's scheme on the ordinary views with
    one truncated Fraction Cauchy product per step."""
    n = len(f) - 1
    fo, go = _ordinary(f), _ordinary(g)
    acc = [Fraction(0)] * (n + 1)
    acc[0] = fo[n]
    for i in range(n - 1, -1, -1):
        acc = convolve_oracle(acc, go, n + 1)
        acc[0] += fo[i]
    return _exponential(acc)


def egf_reciprocal_oracle(a) -> list[Fraction]:
    """1/f for a_0 != 0, by binomial-convolution long division in
    Fractions."""
    n = len(a) - 1
    b = [Fraction(0)] * (n + 1)
    b[0] = 1 / Fraction(a[0])
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += comb(m, k) * a[k] * b[m - k]
        b[m] = -acc / a[0]
    return b


def assert_canonical(v) -> None:
    """The storage invariants of a Poly or Egf: integer numerators over a
    positive denominator that shares no factor with all of them, no
    trailing zero numerator in a Poly, denominator 1 for a zero vector,
    and ``coeffs`` the matching tuple of exact Fractions."""
    nums, den = v._nums, v._den
    assert type(nums) is tuple and all(type(x) is int for x in nums)
    assert type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1
    if isinstance(v, Poly):
        assert not nums or nums[-1] != 0
    if not any(nums):
        assert den == 1
    assert type(v.coeffs) is tuple
    assert all(type(c) is Fraction for c in v.coeffs)
    assert v.coeffs == tuple(Fraction(x, den) for x in nums)


def binom_poly_oracle(k: int) -> Poly:
    """x(x-1)...(x-k+1)/k! as the k-fold product of linear factors."""
    p = ONE
    for i in range(k):
        p = p * Poly([-i, 1])
    return Fraction(1, factorial(k)) * p


def reciprocal_blocks_oracle(n_hi: int) -> list[Poly]:
    """block_k = sum_(j<=k) (-1)^(k-j) / (k-j+1) binom_j for each k <= n_hi,
    each block one reciprocal-weighted combination of the binomial
    polynomials, as T5a and T5b built them before they took derivatives."""
    binom = binom_polys(n_hi)
    recip = [Fraction(-1 if m % 2 else 1, m + 1) for m in range(n_hi + 1)]
    return [_combine(recip[k::-1], binom[: k + 1]) for k in range(n_hi + 1)]


def fubini_oracle(n: int, ctx) -> list[int]:
    """F_0 .. F_n as the weighted row sums sum_k S(m, k) k! of the
    partition triangle, as ``SeqContext.fubini`` computed them before it
    grew them over Pascal rows."""
    return [sum(s * factorial(k) for k, s in enumerate(ctx.stirling2_row(m))) for m in range(n + 1)]


def exp_poly_oracle(n: int) -> Poly:
    """The n-th exponential polynomial regrown from 1 by applying
    x d/dx + x as a full operator n times."""
    p = ONE
    for _ in range(n):
        p = xd_apply(p, 1) + X * p
    return p


# -- the transforms' former implementation: one Fraction product and one
# Fraction add per term, each triangle entry looked up on its own ------


def _as_fractions(values) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    if not out:
        raise ValueError("empty input sequence")
    return out


def stirling_transform_oracle(a, ctx) -> list[Fraction]:
    vals = _as_fractions(a)
    return [
        sum((ctx.stirling2(n, k) * vals[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(vals))
    ]


def stirling_inverse_oracle(b, ctx) -> list[Fraction]:
    vals = _as_fractions(b)
    return [
        sum((ctx.stirling1(n, k) * vals[k] for k in range(n + 1)), Fraction(0))
        for n in range(len(vals))
    ]


def binomial_transform_oracle(a, alternating: bool = False) -> list[Fraction]:
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


def weighted_stirling_transform_oracle(a, lam, mu, kind, ctx) -> list[Fraction]:
    vals = _as_fractions(a)
    lam = Fraction(lam)
    mu = Fraction(mu)
    weight = ctx.stirling2 if kind == "second" else ctx.stirling1
    return [
        sum(
            (weight(n, k) * lam ** (n - k) * mu**k * vals[k] for k in range(n + 1)),
            Fraction(0),
        )
        for n in range(len(vals))
    ]


# -- registry loops that moved onto integers over one denominator --------


def weighted_partial_sums_oracle(g, weight) -> list[Fraction]:
    """Entry i is sum_(k<=i) g_k weight^(i-k), one Fraction power, product
    and add per term, as L4's direct side computed it before it moved
    onto integers."""
    return [
        sum((Fraction(g[k]) * Fraction(weight) ** (i - k) for k in range(i + 1)), Fraction(0))
        for i in range(len(g))
    ]


def faulhaber_oracle(p: int, n: int, ctx) -> Fraction:
    """1^p + ... + n^p from the Bernoulli closed form, with the Bernoulli
    numbers put over one denominator on every call, as
    ``SeqContext.faulhaber`` computed it before it kept a table per
    exponent."""
    if p == 0:
        return Fraction(n)
    bnums, bden = common_denominator([ctx.bernoulli(j) for j in range(p + 1)])
    total = 0
    npow = 1
    for k in range(1, p + 2):
        npow *= n
        total += binomial(p + 1, k) * bnums[p + 1 - k] * npow
    den = bden * (p + 1)
    return Fraction(n**p * den + total, den)


def _oracle_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise EvalError(f"{what} must be an integer, got {value}")
    return int(value)


def tokenize_oracle(src: str) -> list[Token]:
    """The character loop that ``expr.tokenize`` scanned with before one
    compiled pattern replaced it: a decimal run, a word that starts with a
    letter or "_", or the first punctuation that matches, one character
    step at a time."""
    punctuation = ("..", "+", "-", "*", "/", "^", "(", ")", ",", "=")
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in punctuation:
            if src.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                col += len(punct)
                i += len(punct)
                break
        else:
            raise ParseError(f"illegal character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def moment_fill_oracle(ctx, n: int, p: int) -> dict[tuple[int, int], int]:
    """Every M(m, q >= 1) with m >= n and m + q <= n + p, by the recurrence
    M(m, q) = M(m+1, q-1) - sum_j C(q-1, j) M(m, j) with one binomial and
    one table read per term and M(m, 0) read through ``ctx.bell``, as
    ``SeqContext.moment`` filled them before it took each entry as one
    dot product."""
    memo: dict[tuple[int, int], int] = {}

    def known(m: int, q: int) -> int:
        return ctx.bell(m) if q == 0 else memo[m, q]

    for q in range(1, p + 1):
        for m in range(n, n + p - q + 1):
            total = known(m + 1, q - 1)
            for j in range(q):
                total -= binomial(q - 1, j) * known(m, j)
            memo[m, q] = total
    return memo


def eval_oracle(node, env: Env) -> Fraction:
    """The tree-walking evaluator that ``expr.evaluate`` compiled away:
    it dispatches at every node and keeps every value a Fraction."""
    if isinstance(node, IntLit):
        return Fraction(node.value)
    if isinstance(node, Var):
        try:
            return Fraction(env.bindings[node.name])
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -eval_oracle(node.operand, env)
    if isinstance(node, BinOp):
        if node.op == "^":
            left = eval_oracle(node.left, env)
            exponent = eval_oracle(node.right, env)
            e = _oracle_int(exponent, "exponent")
            if e < 0:
                raise EvalError(f"exponent must be nonnegative, got {e}")
            if _power_bits(left, e) > POWER_BITS_CAP:
                raise EvalError(f"power would be wider than the cap of {POWER_BITS_CAP} bits")
            return Fraction(left) ** e
        if node.op not in ("+", "-", "*", "/"):
            raise EvalError(f"unknown operator {node.op!r}")
        first, tail = _chain(node)
        acc = eval_oracle(first, env)
        for op, operand in tail:
            right = eval_oracle(operand, env)
            if op == "+":
                acc = acc + right
            elif op == "-":
                acc = acc - right
            elif op == "*":
                acc = acc * right
            elif right == 0:
                raise EvalError("division by zero")
            else:
                acc = acc / right
        return acc
    if isinstance(node, Call):
        try:
            arity, lookup = _BUILTINS[node.name]
        except KeyError:
            raise EvalError(f"unknown function {node.name!r}") from None
        if len(node.args) != arity:
            raise EvalError(f"{node.name} takes {arity} argument(s), got {len(node.args)}")
        args = [_oracle_int(eval_oracle(a, env), f"argument of {node.name}") for a in node.args]
        return Fraction(lookup(env.ctx)(*args))
    if isinstance(node, Sum):
        lo = _oracle_int(eval_oracle(node.lo, env), "summation lower bound")
        hi = _oracle_int(eval_oracle(node.hi, env), "summation upper bound")
        if hi < lo:
            return Fraction(0)
        count = hi - lo + 1
        if count > SUM_TERM_CAP:
            raise EvalError(f"summation range has {count} terms; the cap is {SUM_TERM_CAP}")
        had_binding = node.var in env.bindings
        saved = env.bindings.get(node.var)
        total = Fraction(0)
        try:
            for i in range(lo, hi + 1):
                env.bindings[node.var] = Fraction(i)
                total += eval_oracle(node.body, env)
        finally:
            if had_binding:
                env.bindings[node.var] = saved
            else:
                env.bindings.pop(node.var, None)
        return total
    raise EvalError(f"cannot evaluate node {node!r}")
