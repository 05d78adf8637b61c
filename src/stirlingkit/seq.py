"""Named integer and rational sequences behind a memoizing context.

A ``SeqContext`` owns the two Stirling triangles and every sequence built
from them.  Every table grows through one of two primitives: ``_grow``
appends list entries one index at a time, each from the entries before
it, and ``_memo`` fills keyed tables.  Only growth takes the lock and
every table reads a built entry without it, so a context can be shared
between threads; returned values are ints, Fractions, or tuples and
never mutate.

Triangle recurrences, row by row:

    S(n, k) = k S(n-1, k) + S(n-1, k-1)        set partitions
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)    signed, falling factorial

Both are T(n, k) = T(n-1, k-1) + w_k T(n-1, k), with w_k = k for S and
w_k = 1 - n for s, and one function builds a row of either.

Bell numbers are the row sums of the partition triangle, but they are
grown by additions alone along Aitken's array (the Bell triangle), and the
moments M(n, p) come from Bell numbers by a recurrence.  The Bernoulli and
Euler numbers both read one column of zigzag numbers A_m, grown by
additions too (Seidel's boustrophedon; Brent and Harvey, arXiv:1108.0286).
Fubini numbers, the triangle's factorial-weighted row sums, are grown over
one rolling row of Pascal's triangle.  So no family reads a Stirling
triangle row, and this module builds on ``exact`` alone.

Functions that take ``ctx=None`` resolve it through :func:`context` to one
process-wide default context, so their memo tables are shared and live as
long as the process.  Pass your own ``SeqContext`` to scope or release
them.

``FAMILIES`` is the one table of named sequences: the command line and
the expression language both read their names and argument orders here.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul

from .exact import binomial, common_denominator

# M(n, p) takes about p^3/6 big-integer products and p^2/2 memo entries
# (with n = 0, p = 256 took 0.9 s, p = 300 took 1.6 s and p = 400 took
# 4.9 s under CPython 3.11 on one pinned core of a shared 2-vCPU VM), so
# larger exponents are refused.
MOMENT_ORDER_CAP = 256


def _next_row(prev: tuple[int, ...], weights) -> tuple[int, ...]:
    """Row m of a triangle with T(m, k) = T(m-1, k-1) + w_k T(m-1, k),
    T(m, 0) = 0 and T(m, m) = 1, from row m - 1 and w_1, ..., w_(m-1)."""
    return (0, *map(add, prev, map(mul, weights, prev[1:])), 1)


def _next_pascal_row(prev: tuple[int, ...]) -> tuple[int, ...]:
    """Row m of Pascal's triangle, C(m, 0), ..., C(m, m), from row m - 1."""
    return (1, *map(add, prev, prev[1:]), 1)


class Family(namedtuple("Family", "cli_name expr_name method params")):
    """One named sequence: its command-line name, its expression-language
    name, the ``SeqContext`` method that computes it, and that method's
    parameter order ("n" is the index, "p" the order or exponent)."""

    __slots__ = ()


FAMILIES = (
    Family("bell", "bell", "bell", ("n",)),
    Family("fubini", "fubini", "fubini", ("n",)),
    Family("derangement", "D", "derangement", ("n",)),
    Family("harmonic", "H", "harmonic", ("n",)),
    Family("hyperharmonic", "h", "hyperharmonic", ("p", "n")),
    Family("bernoulli", "B", "bernoulli", ("n",)),
    Family("bernoulli-plus", "Bplus", "bernoulli_plus", ("n",)),
    Family("euler", "E", "euler_number", ("n",)),
    Family("factorial", "fact", "factorial", ("n",)),
    Family("power-sum", "powsum", "power_sum", ("p", "n")),
    Family("moment", "M", "moment", ("n", "p")),
)


class SeqContext:
    """Shared memo tables for the triangles and the sequences over them."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._s2_rows: list[tuple[int, ...]] = [(1,)]
        self._s1_rows: list[tuple[int, ...]] = [(1,)]
        self._bell: list[int] = [1]
        self._bell_row: list[int] = [1]  # the row of Aitken's array that starts with the last B_m
        self._fubini: list[int] = [1]
        self._fubini_row: tuple[int, ...] = (1,)  # the Pascal row of the last F_m
        self._bernoulli: list[Fraction] = []
        self._euler: list[Fraction] = []
        self._zigzag: list[int] = [1]  # A_m, the alternating permutations of m
        self._zigzag_row: list[int] = [1]  # the boustrophedon row ending in the last A_m
        self._derangement: list[int] = [1]
        self._harmonic: list[Fraction] = [Fraction(0)]
        self._factorial: list[int] = [1]
        self._moment: dict[int, list[int]] = {}  # M(m, 0), M(m, 1), ... by m
        self._pascal: list[tuple[int, ...]] = [(1,)]  # C(m, 0), ..., C(m, m), for moment
        self._power_sums: dict[int, list[int]] = {}
        self._hyperharmonic: dict[tuple[int, int], Fraction] = {}
        self._faulhaber: dict[int, tuple[tuple[int, ...], int]] = {}

    # Each public read returns a built entry from its own frame, without the
    # lock, and enters ``_grow`` or ``_memo`` only on a miss; those two are
    # the only code that grows a table, and only growth takes the lock.
    # Lists only append and no dict entry is replaced, so an entry another
    # thread can see is complete.

    def _grow(self, table: list, n: int, step):
        """``table[n]``, first appending ``step(m)`` for each missing index m
        in order; a negative n is refused here, for every list table."""
        if 0 <= n < len(table):
            return table[n]
        if n < 0:
            raise ValueError(f"negative index {n}")
        with self._lock:
            while len(table) <= n:
                table.append(step(len(table)))
            return table[n]

    def _memo(self, memo: dict, key, compute):
        """``memo[key]``, first storing ``compute()`` if the key is missing.
        No stored value is None."""
        value = memo.get(key)
        if value is not None:
            return value
        with self._lock:
            if key not in memo:
                memo[key] = compute()
            return memo[key]

    # -- triangles ---------------------------------------------------

    def stirling2(self, n: int, k: int) -> int:
        """Partition count S(n, k); zero outside 0 <= k <= n."""
        if n < 0:
            raise ValueError(f"negative index {n}")
        if k < 0 or k > n:
            return 0
        return self.stirling2_row(n)[k]

    def stirling1(self, n: int, k: int) -> int:
        """Signed first-kind s(n, k); zero outside 0 <= k <= n."""
        if n < 0:
            raise ValueError(f"negative index {n}")
        if k < 0 or k > n:
            return 0
        return self.stirling1_row(n)[k]

    # The row methods are the one place the public triangle entries come
    # from, so a subclass that overrides them changes every entry lookup
    # and every transform.  No family below reads a triangle row.
    # A row is stored as a tuple, so it is returned without a copy.

    def stirling2_row(self, n: int) -> tuple[int, ...]:
        """Row n of the partition triangle: S(n, 0), ..., S(n, n)."""
        rows = self._s2_rows
        return rows[n] if 0 <= n < len(rows) else self._grow(rows, n, self._next_s2_row)

    def stirling1_row(self, n: int) -> tuple[int, ...]:
        """Row n of the signed first-kind triangle: s(n, 0), ..., s(n, n)."""
        rows = self._s1_rows
        return rows[n] if 0 <= n < len(rows) else self._grow(rows, n, self._next_s1_row)

    def _next_s2_row(self, m: int) -> tuple[int, ...]:
        return _next_row(self._s2_rows[m - 1], range(1, m))

    def _next_s1_row(self, m: int) -> tuple[int, ...]:
        return _next_row(self._s1_rows[m - 1], repeat(1 - m))

    # -- integer sequences -------------------------------------------

    def factorial(self, n: int) -> int:
        table = self._factorial
        return table[n] if 0 <= n < len(table) else self._grow(table, n, lambda m: table[m - 1] * m)

    def bell(self, n: int) -> int:
        """B_n, the row sum of the partition triangle, from Aitken's array
        (the Bell triangle): row m starts with the last entry of row m - 1,
        which is B_m, and each later entry adds the one above it.  Only
        additions and one row of state; no triangle row is read."""
        table = self._bell
        return table[n] if 0 <= n < len(table) else self._grow(table, n, self._next_bell)

    def _next_bell(self, m: int) -> int:
        # under the lock, inside _grow: the row is read and written only
        # here, and advanced only while it is row m - 1, as in _next_fubini
        row = self._bell_row
        if len(row) == m:
            row = self._bell_row = list(accumulate(row, initial=row[-1]))
        return row[0]

    def fubini(self, n: int) -> int:
        """Ordered set partitions F_n, the sum of S(n, k) k! over the row,
        grown by F_0 = 1 and F_m = sum_(j<m) C(m, j) F_j: the first block
        takes m - j of the m elements and the other j are partitioned in
        order.  One Pascal row of state, as Bell numbers keep one row of
        Aitken's array; no Stirling row and no factorial is read."""
        table = self._fubini
        return table[n] if 0 <= n < len(table) else self._grow(table, n, self._next_fubini)

    def _next_fubini(self, m: int) -> int:
        # under the lock, inside _grow: the row is read and written only
        # here.  F_0 .. F_(m-1) are built, so the row's last entry C(m, m)
        # finds no F_m to pair with.  The row is advanced only while it is
        # row m - 1, so a step that raised (say a MemoryError in the sum)
        # leaves row m to the retry instead of stepping past it
        row = self._fubini_row
        if len(row) == m:
            row = self._fubini_row = _next_pascal_row(row)
        return sum(map(mul, row, self._fubini))

    def derangement(self, n: int) -> int:
        """Fixed-point-free permutations, by D_0 = 1 and the recurrence
        D_m = m D_(m-1) + (-1)^m: one product per new index.  The tests
        check it against inclusion-exclusion,
        D_n = sum_{j=0}^{n} (-1)^j n!/j!."""
        table = self._derangement
        return table[n] if 0 <= n < len(table) else self._grow(table, n, lambda m: m * table[m - 1] + (-1) ** m)

    # -- rational sequences ------------------------------------------

    def harmonic(self, n: int) -> Fraction:
        """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
        table = self._harmonic
        return table[n] if 0 <= n < len(table) else self._grow(table, n, lambda m: table[m - 1] + Fraction(1, m))

    def hyperharmonic(self, p: int, n: int) -> Fraction:
        """Order-p hyperharmonic number h_n^(p).

        Order 1 is H_n and each higher order is the partial-sum operator
        applied again; the closed form used here is
        C(n+p-1, n) (H_{n+p-1} - H_{p-1}) for p >= 1.  Order 0 is the
        summand layer itself: h_n^(0) = 1/n with h_0^(0) = 0.
        """
        if p < 0:
            raise ValueError(f"negative order {p}")
        if n < 0:
            raise ValueError(f"negative index {n}")
        if p == 0:
            return Fraction(0) if n == 0 else Fraction(1, n)
        if p == 1:
            return self.harmonic(n)
        value = self._hyperharmonic.get((p, n))
        if value is not None:
            return value
        return self._memo(self._hyperharmonic, (p, n), lambda: self._hyperharmonic_value(p, n))

    def _hyperharmonic_value(self, p: int, n: int) -> Fraction:
        """The closed form as one Fraction built from integers, on two reads
        of the public ``harmonic``, so that a subclass's values reach it."""
        a, b = self.harmonic(n + p - 1), self.harmonic(p - 1)
        diff = a.numerator * b.denominator - b.numerator * a.denominator
        return Fraction(binomial(n + p - 1, n) * diff, a.denominator * b.denominator)

    def bernoulli(self, n: int) -> Fraction:
        """B_n with B_1 = -1/2, from the zigzag column:

        B_n = (-1)^(n/2 - 1) n A_(n-1) / (2^n (2^n - 1)) for even n >= 2,

        and B_n = 0 for odd n >= 3.
        """
        table = self._bernoulli
        return table[n] if 0 <= n < len(table) else self._grow(table, n, self._next_bernoulli)

    def _next_bernoulli(self, m: int) -> Fraction:
        if m < 2:
            return Fraction(-1, 2) if m else Fraction(1)
        if m % 2:
            return Fraction(0)
        num = m * self._grow(self._zigzag, m - 1, self._next_zigzag)
        return Fraction(num if m % 4 else -num, (1 << m) * ((1 << m) - 1))

    def bernoulli_plus(self, n: int) -> Fraction:
        """B_n with the sign of B_1 flipped to +1/2.

        Only the n = 1 entry differs from ``bernoulli``.  Note this is
        merely the other sign convention for the same numbers; despite a
        name sometimes attached to it, it is unrelated to the
        Cauchy-number family.
        """
        if n == 1:
            return Fraction(1, 2)
        return self.bernoulli(n)

    def euler_number(self, n: int) -> Fraction:
        """E_n(1/2) as an exact rational, e.g. E_2 = -1/4.

        The classical integer Euler numbers are 2^n times these values:
        (-1)^(n/2) A_n for even n, the signed secant numbers, and 0 for
        odd n.
        """
        table = self._euler
        return table[n] if 0 <= n < len(table) else self._grow(table, n, self._next_euler)

    def _next_euler(self, m: int) -> Fraction:
        if m % 2:
            return Fraction(0)
        a = self._grow(self._zigzag, m, self._next_zigzag)
        return Fraction(-a if m % 4 else a, 1 << m)

    def _next_zigzag(self, m: int) -> int:
        # under the lock, inside _grow: the row is read and written only
        # here, and advanced only while it is row m - 1, as in _next_fubini.
        # Row m is 0, then the running sums of row m - 1 read in reverse.
        row = self._zigzag_row
        if len(row) == m:
            row = self._zigzag_row = list(accumulate(reversed(row), initial=0))
        return row[-1]

    def power_sum(self, p: int, n: int) -> int:
        """1^p + 2^p + ... + n^p by direct summation (0 terms give 0),
        kept as a running prefix table per exponent."""
        table = self._power_sums.get(p)
        if table is not None and 0 <= n < len(table):
            return table[n]
        if p < 0:
            raise ValueError(f"negative exponent {p}")
        table = table or [0]
        value = self._grow(table, n, lambda m: table[m - 1] + m**p)
        self._memo(self._power_sums, p, lambda: table)  # once _grow has taken n
        return value

    def faulhaber(self, p: int, n: int) -> Fraction:
        """Closed form for 1^p + ... + n^p via Bernoulli numbers.

        For p >= 1:  n^p + (1/(p+1)) sum_{k=1}^{p+1} C(p+1, k) B_{p+1-k} n^k.
        That display needs p >= 1, so p = 0 returns n directly.  The
        polynomial in n is kept per exponent as integer coefficients over
        one denominator, so each value is one Horner pass.
        """
        if p < 0:
            raise ValueError(f"negative exponent {p}")
        if n < 0:
            raise ValueError(f"negative index {n}")
        if p == 0:
            return Fraction(n)
        coeffs, den = self._faulhaber.get(p) or self._memo(self._faulhaber, p, lambda: self._faulhaber_poly(p))
        total = 0
        for c in reversed(coeffs):
            total = total * n + c
        return Fraction(total, den)

    def _faulhaber_poly(self, p: int) -> tuple[tuple[int, ...], int]:
        # over the lcm of the Bernoulli denominators, times p + 1
        bnums, bden = common_denominator([self.bernoulli(j) for j in range(p + 1)])
        coeffs = [0] + [binomial(p + 1, k) * bnums[p + 1 - k] for k in range(1, p + 2)]
        den = bden * (p + 1)
        coeffs[p] += den
        return tuple(coeffs), den

    def moment(self, n: int, p: int) -> int:
        """M(n, p) = sum_k S(n, k) k^p, computed by the recurrence

        M(n, p+1) = M(n+1, p) - sum_{j<=p} C(p, j) M(n, j),

        with M(n, 0) the Bell number.  The direct sum is the test oracle.
        Column m of the table is the list M(m, 0), M(m, 1), ...; M(n, p)
        needs column m up to n + p - m for every m from n to n + p, each
        entry from the column to its right, so the columns are grown from
        the largest m down and the work takes no recursion.  Each entry is
        one dot product of a row of Pascal's triangle with its column.
        """
        column = self._moment.get(n)
        if column is not None and 0 <= p < len(column):
            return column[p]
        if n < 0:
            raise ValueError(f"negative index {n}")
        if p < 0:
            raise ValueError(f"negative exponent {p}")
        if p > MOMENT_ORDER_CAP:
            raise ValueError(f"moment exponent {p} exceeds the cap {MOMENT_ORDER_CAP}")
        if p == 0:
            return self.bell(n)
        pascal = self._pascal
        self._grow(pascal, p - 1, lambda m: _next_pascal_row(pascal[m - 1]))
        columns = self._moment
        right = None
        for m in range(n + p, n - 1, -1):
            column = columns.get(m) or self._memo(columns, m, lambda: [self.bell(m)])
            if len(column) <= n + p - m:
                # M(m, q) = M(m + 1, q - 1) - sum_j C(q - 1, j) M(m, j)
                self._grow(column, n + p - m, lambda q: right[q - 1] - sum(map(mul, pascal[q - 1], column)))
            right = column
        return column[p]


_DEFAULT = SeqContext()


def context(ctx: SeqContext | None = None) -> SeqContext:
    """``ctx`` itself, or the process-wide default context when it is None.

    The default context is created once, at import; like any context it
    locks around every table update, so threads may share it.
    """
    return _DEFAULT if ctx is None else ctx
