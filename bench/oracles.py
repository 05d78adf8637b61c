"""Reference values computed without stirlingkit.

Every check the benchmark makes compares the program's output with a value
from this module, so a defect in the program cannot also hide in its check.
The routes differ on purpose from the library's own:

- second-kind Stirling numbers come from the explicit alternating sum
  S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n, not the row recurrence;
- first-kind numbers are the coefficients of the expanded falling factorial
  x(x-1)...(x-n+1);
- Bell numbers come from Aitken's array, Bernoulli numbers from the
  Akiyama-Tanigawa algorithm, Fubini numbers from their binomial recurrence,
  Euler polynomials from their values at zero.

Large checks run in the prime field Z/P with P = 2^61 - 1: a rational maps to
numerator times the inverse of its denominator.  The map is exact on every
value the benchmark generates (no denominator has P as a factor), and a wrong
output passes a modular check with probability about 1/P.

The module also pins what the identity registry must report and the README's
literal command-line outputs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

P = (1 << 61) - 1
MAX_N = 130  # largest index any workload asks the oracle tables for


def mod(x) -> int:
    """Image of an int or Fraction in Z/P."""
    x = Fraction(x)
    return x.numerator % P * pow(x.denominator, -1, P) % P


def mod_vec(values) -> list[int]:
    return [mod(v) for v in values]


# -- triangles and number sequences ------------------------------------

# Each table is built on first use and kept, so a workload pays only for the
# tables it reads, in time and in peak memory.


@functools.cache
def stirling2() -> list[list[int]]:
    rows = []
    for n in range(MAX_N + 1):
        powers = [m**n for m in range(n + 1)]
        row = []
        for k in range(n + 1):
            acc = 0
            for j in range(k + 1):
                term = math.comb(k, j) * powers[k - j]
                acc += -term if j % 2 else term
            row.append(acc // math.factorial(k))
        rows.append(row)
    return rows


@functools.cache
def stirling1() -> list[list[int]]:
    rows = [[1]]
    poly = [1]  # coefficients of x(x-1)...(x-n+1), lowest degree first
    for n in range(1, MAX_N + 1):
        shifted = [0] + poly  # times x
        poly = [shifted[i] - (n - 1) * (poly[i] if i < len(poly) else 0) for i in range(len(shifted))]
        rows.append(list(poly))
    return rows


@functools.cache
def bell() -> list[int]:
    """Bell numbers from Aitken's array."""
    out = [1]
    row = [1]
    for _ in range(MAX_N):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


@functools.cache
def bernoulli() -> list[Fraction]:
    """B_n by Akiyama-Tanigawa, with B_1 = -1/2 (the algorithm itself
    yields +1/2 there)."""
    out = []
    a = [Fraction(0)] * (MAX_N + 1)
    for m in range(MAX_N + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1]
    return out


@functools.cache
def fubini() -> list[int]:
    out = [1]
    for n in range(1, MAX_N + 1):
        out.append(sum(math.comb(n, k) * out[n - k] for k in range(1, n + 1)))
    return out


@functools.cache
def harmonic() -> list[Fraction]:
    out = [Fraction(0)]
    for n in range(1, MAX_N + 1):
        out.append(out[-1] + Fraction(1, n))
    return out


@functools.cache
def stirling2_mod() -> list[list[int]]:
    return [[v % P for v in row] for row in stirling2()]


@functools.cache
def stirling1_mod() -> list[list[int]]:
    return [[v % P for v in row] for row in stirling1()]


@functools.cache
def binom_mod() -> list[list[int]]:
    return [[math.comb(n, k) % P for k in range(n + 1)] for n in range(MAX_N + 1)]


def moment(n: int, p: int) -> int:
    """sum_k S(n, k) k^p, straight from the oracle triangle."""
    return sum(stirling2()[n][k] * k**p for k in range(n + 1))


def hyperharmonic2(n: int) -> Fraction:
    """Order-2 hyperharmonic number: the partial sum of H_1..H_n."""
    return sum(harmonic()[1 : n + 1], Fraction(0))


def euler_poly(n: int) -> list[Fraction]:
    """Coefficients of E_n(x) = sum_k C(n, k) E_k(0) x^(n-k), where
    E_k(0) = -2 (2^(k+1) - 1) B_(k+1) / (k+1)."""
    b = bernoulli()
    at_zero = [-2 * (2 ** (k + 1) - 1) * b[k + 1] / (k + 1) for k in range(n + 1)]
    return [math.comb(n, j) * at_zero[n - j] for j in range(n + 1)]


# -- modular reference transforms --------------------------------------


def triangle_apply_mod(rows, values_mod: list[int]) -> list[int]:
    """out_n = sum_k T(n, k) v_k in Z/P for a triangle given mod P."""
    return [sum(rows[n][k] * values_mod[k] for k in range(n + 1)) % P for n in range(len(values_mod))]


def binomial_apply_mod(values_mod: list[int], alternating: bool) -> list[int]:
    binom = binom_mod()
    out = []
    for n in range(len(values_mod)):
        acc = 0
        for k in range(n + 1):
            term = binom[n][k] * values_mod[k]
            acc += -term if alternating and k % 2 else term
        out.append(acc % P)
    return out


def weighted_apply_mod(values_mod: list[int], lam, mu, kind: str) -> list[int]:
    """out_n = sum_k T(n, k) lam^(n-k) mu^k a_k in Z/P, T = S or s."""
    rows = stirling2_mod() if kind == "second" else stirling1_mod()
    lam_m, mu_m = mod(lam), mod(mu)
    n_len = len(values_mod)
    lam_pow = [pow(lam_m, i, P) for i in range(n_len)]
    mu_pow = [pow(mu_m, i, P) for i in range(n_len)]
    return [
        sum(rows[n][k] * lam_pow[n - k] * mu_pow[k] * values_mod[k] for k in range(n + 1)) % P
        for n in range(n_len)
    ]


def egf_product_mod(a_mod: list[int], b_mod: list[int]) -> list[int]:
    """Binomial convolution c_n = sum_k C(n, k) a_k b_(n-k) in Z/P."""
    binom = binom_mod()
    return [
        sum(binom[n][k] * a_mod[k] * b_mod[n - k] for k in range(n + 1)) % P
        for n in range(len(a_mod))
    ]


# -- command-line text formats -----------------------------------------


def poly_text(coeffs) -> str:
    """A polynomial as the README prints it: ascending powers, "c*x^k" terms,
    unit coefficients dropped, signs written between terms."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(Fraction(c))
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


def table_rows(text: str, sep: str | None) -> list[list[str]]:
    """Data rows of a text (sep=None) or CSV (sep=",") table, header dropped."""
    lines = text.splitlines()
    return [line.split(sep) for line in lines[1:]]


# -- pinned expectations -----------------------------------------------

# Instance counts per registry entry at the default caps and with
# STIRLINGKIT_MAX_N=30; the totals are 3,313 and 3,728.
REGISTRY_COUNTS = {
    "default": {
        "T1": 360, "T1b": 61, "C2": 369, "T3a": 16, "T3b": 16, "E9": 21, "T5a": 16,
        "T5b": 16, "T5c": 41, "T6a": 40, "T6b": 40, "T6c": 40, "T6d": 40, "T7": 294,
        "L8": 112, "E15": 32, "P9": 9, "C10": 40, "E21": 42, "E22": 42, "P11": 15,
        "C12": 15, "C13": 80, "E30": 16, "C14": 40, "T15": 41, "L16": 16, "ORTH": 992,
        "GF6": 6, "DIL": 1, "L4": 20, "E18": 403, "CBH": 21,
    },
    "n30": {
        "T1": 360, "T1b": 61, "C2": 369, "T3a": 31, "T3b": 31, "E9": 31, "T5a": 31,
        "T5b": 31, "T5c": 41, "T6a": 40, "T6b": 40, "T6c": 40, "T6d": 40, "T7": 434,
        "L8": 217, "E15": 62, "P9": 9, "C10": 40, "E21": 42, "E22": 42, "P11": 30,
        "C12": 30, "C13": 80, "E30": 31, "C14": 40, "T15": 41, "L16": 31, "ORTH": 992,
        "GF6": 6, "DIL": 1, "L4": 20, "E18": 403, "CBH": 31,
    },
}
REGISTRY_IDS = tuple(REGISTRY_COUNTS["default"])
assert sum(REGISTRY_COUNTS["default"].values()) == 3313
assert sum(REGISTRY_COUNTS["n30"].values()) == 3728

# Outputs the README prints for its examples, byte for byte.
README_STDOUT = {
    "seq-bell": '["1","1","2","5","15","52","203","877","4140"]\n',
    "poly-bernoulli": "1/2*x - 3/2*x^2 + x^3\n",
    "transform-inv-stirling": '["1","1","1","1"]\n',
    "verify-t15": "T15  checked=31  failures=0  PASS\n",
    "eval-sum": '"26"\n',
    "eval-define": '"-3"\n',
}


def corrupt() -> None:
    """Self-test only: make one expected value of every workload wrong, so a
    run must report failures if its checks are not vacuous."""
    for counts in REGISTRY_COUNTS.values():
        counts["T15"] += 1
    bell()[60] += 1
    README_STDOUT["seq-bell"] = README_STDOUT["seq-bell"].replace("4140", "4141")
