"""Exact scalar arithmetic: unbounded integers and canonical rationals.

Integers are plain Python ``int``.  Rationals are ``fractions.Fraction``,
which always stores a reduced numerator over a positive denominator, so
value equality is structural equality.  The wire format is the string
"p/q", or just "p" when the value is an integer.

The immutable coefficient vector under ``Poly`` and ``Egf`` lives here
too, with the one Cauchy-product loop and the one linear-combination
loop both of them use.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

# Integer, or integer slash unsigned integer.  No whitespace, no floats.
_RATIONAL_FORM = re.compile(r"[+-]?\d+(?:/(\d+))?\Z")


def factorial(n: int) -> int:
    """n! for n >= 0, with 0! = 1."""
    if n < 0:
        raise ValueError(f"factorial of negative index {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for integer n of either sign.

    k < 0 gives 0, as does k > n when n >= 0.  For negative n the value
    is the falling factorial n(n-1)...(n-k+1) over k!, which reflects to
    (-1)^k C(k-n-1, k); for example C(-1, k) = (-1)^k.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return -math.comb(k - n - 1, k) if k & 1 else math.comb(k - n - 1, k)


def binomial_rational(x: Fraction | int, k: int) -> Fraction:
    """Generalized C(x, k) = x(x-1)...(x-k+1)/k! for rational x."""
    if k < 0:
        return Fraction(0)
    x = Fraction(x)
    p, q = x.numerator, x.denominator  # x - i = (p - iq)/q
    return Fraction(math.prod([p - i * q for i in range(k)]), q**k * math.factorial(k))


def common_denominator(values) -> tuple[list[int], int]:
    """(nums, den) with values[i] == nums[i] / den for every i.

    den is the least common multiple of the denominators, so it is the
    smallest positive integer that clears all of them; an empty input
    gives ([], 1).
    """
    fracs = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    # a list, not a generator: CPython builds a tuple from a generator by
    # resizing one from another size's free list, and frees it into the
    # list of its final size, so those lists would grow on every call
    den = math.lcm(*[f.denominator for f in fracs])
    return [f.numerator * (den // f.denominator) for f in fracs], den


def format_rational(x: Fraction | int) -> str:
    """Render canonically as "p/q", or "p" when the denominator is 1."""
    if type(x) is not int:
        x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        # over the interpreter's int-to-str digit limit (CPython >= 3.11)
        limit = sys.get_int_max_str_digits()
        num = ("-" if x < 0 else "") + _decimal(abs(x.numerator), limit)
        return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator, limit)}"


def _decimal(n: int, limit: int) -> str:
    """Decimal digits of n >= 0, split at a power of ten until each part
    has fewer than ``limit`` digits and so converts with str()."""
    if n.bit_length() <= 3 * limit:  # 3 bits hold less than one digit
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**half)
    return _decimal(high, limit) + _decimal(low, limit).zfill(half)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" back to a Fraction.

    Inputs normalize (gcd removed, sign moved to the numerator), so
    ``format_rational(parse_rational(s)) == s`` exactly when s is already
    canonical.  Anything else, including float syntax, raises ValueError.
    """
    s = text.strip()
    m = _RATIONAL_FORM.match(s)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(s)


# -- coefficient vectors ---------------------------------------------


class _Vector:
    """Immutable vector of rational coefficients, with the storage,
    equality and linear arithmetic that ``Poly`` and ``Egf`` share.

    The coefficients are integer numerators over one positive
    denominator, kept canonical: the denominator shares no factor with
    every numerator, and the zero vector has denominator 1.  Equal values
    therefore have equal storage, so equality and hashing compare it
    directly.  ``coeffs``, the tuple of ``Fraction``s, is built on each
    read.

    Each subclass turns the numerator list into the stored tuple in its
    own ``_shape``, and refuses an operand it cannot combine with in
    ``_match``.  Values of different subclasses never compare equal.
    ``+``, ``-``, negation and ``scale`` are each one call of
    :func:`_combine`, on one vector or two.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs=()) -> None:
        # over the lcm of reduced denominators the gcd is already 1
        nums, den = common_denominator(coeffs)
        _set_nums(self, self._shape(nums))
        _set_den(self, den)

    @classmethod
    def _from_nums(cls, nums: list[int], den: int):
        """The vector nums / den, for den > 0, brought to canonical form."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        out = object.__new__(cls)
        _set_nums(out, cls._shape(nums))
        _set_den(out, den)
        return out

    def _match(self, other: "_Vector") -> None:
        """Vectors of one subclass combine at any lengths unless it says not."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(x, den) for x in self._nums])

    def __bool__(self) -> bool:
        """False for the zero vector, whatever its length."""
        return any(self._nums)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __add__(self, other):
        return _combine((1, 1), (self, other))

    def __sub__(self, other):
        return _combine((1, -1), (self, other))

    def __neg__(self):
        return _combine((-1,), (self,))

    def scale(self, c):
        return _combine((c,), (self,))


# the slots' own setters, which the immutable vector's __setattr__ refuses
_set_nums, _set_den = _Vector._nums.__set__, _Vector._den.__set__


def _convolve(a, b, size: int) -> list[int]:
    """The first ``size`` coefficients of the Cauchy product of two
    integer sequences: out[k] is the sum of a[i] b[j] over i + j = k."""
    out = [0] * size
    for i in range(min(len(a), size)):
        ai = a[i]
        if ai:
            end = i + min(len(b), size - i)
            out[i:end] = [o + ai * y for o, y in zip(out[i:end], b)]
    return out


def _combine(weights, vectors):
    """The vector sum_k weights[k] vectors[k] for one or more vectors of
    one subclass, in a single pass over integers.

    The weights go over their common denominator and the vectors over the
    lcm of theirs, so each term is an integer multiple of a numerator
    tuple, and the sum is reduced once at the end.  Vectors may differ in
    length (a shorter one is padded with zeros) unless ``_match`` refuses
    the pair, as it does for ``Egf``s of different orders.
    """
    first = vectors[0]
    kind = type(first)
    if kind._match is not _Vector._match or {*map(type, vectors)} != {kind}:
        for v in vectors:
            first._match(v)
    wn, wd = (weights, 1) if {*map(type, weights)} <= {int} else common_denominator(weights)
    den = math.lcm(*[v._den for v in vectors])
    out = [0] * max([len(v._nums) for v in vectors])
    for w, v in zip(wn, vectors):
        if w:
            m = w * (den // v._den)
            nums = v._nums
            out[: len(nums)] = [o + m * x for o, x in zip(out, nums)]
    return first._from_nums(out, den * wd)
