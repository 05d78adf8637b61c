"""Sequence families against enumeration and textbook-recurrence oracles."""

import copy
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from stirlingkit import (
    SeqContext,
    bernoulli_poly,
    binom_poly,
    binomial,
    euler_poly,
    exp_poly,
    geom_poly,
)
from stirlingkit.seq import FAMILIES

from support import (
    bernoulli_oracle,
    derangement_oracle,
    derangement_sum_oracle,
    euler_poly_oracle,
    euler_polys_oracle,
    faulhaber_oracle,
    fubini_oracle,
    moment_fill_oracle,
    stirling1_row_oracle,
    stirling2_oracle,
    triangle_rows_oracle,
)


@pytest.fixture(scope="module")
def ctx():
    return SeqContext()


def test_stirling2_matches_set_partition_count(ctx):
    for n in range(0, 10):
        for k in range(0, n + 2):
            assert ctx.stirling2(n, k) == stirling2_oracle(n, k), (n, k)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_rows_equal_the_per_entry_loop_up_to_150(warm):
    # brute force reaches n = 10 only; the per-entry loop checks the shared
    # row recurrence far out, grown at once and grown on top of row 40
    ctx = SeqContext()
    if warm:
        ctx.stirling2_row(40)
        ctx.stirling1_row(40)
    for row, kind in ((ctx.stirling2_row, "second"), (ctx.stirling1_row, "first")):
        row(150)
        assert [row(n) for n in range(151)] == triangle_rows_oracle(150, kind), kind


def test_stirling1_matches_falling_factorial(ctx):
    for n in range(0, 10):
        row = stirling1_row_oracle(n)
        for k in range(0, n + 1):
            assert ctx.stirling1(n, k) == row[k], (n, k)
        assert ctx.stirling1(n, n + 1) == 0


def test_rows_are_tuples_equal_to_entry_lookups(ctx):
    for n in range(0, 31):
        for row_of, entry in ((ctx.stirling2_row, ctx.stirling2), (ctx.stirling1_row, ctx.stirling1)):
            row = row_of(n)
            assert row is row_of(n), n  # stored once, returned without a copy
            assert type(row) is tuple and len(row) == n + 1, n
            assert row == tuple(entry(n, k) for k in range(n + 1)), n
    assert ctx.stirling1_row(9) == tuple(stirling1_row_oracle(9))
    assert ctx.stirling2_row(9) == tuple(stirling2_oracle(9, k) for k in range(10))
    for row in (ctx.stirling2_row, ctx.stirling1_row):
        with pytest.raises(ValueError):
            row(-1)


def test_stirling_out_of_range_is_zero(ctx):
    assert ctx.stirling2(5, 7) == 0
    assert ctx.stirling2(5, -1) == 0
    assert ctx.stirling1(4, 9) == 0


def test_negative_index_rejected(ctx):
    calls = [
        (getattr(ctx, family.method), [-1 if name == "n" else 1 for name in family.params])
        for family in FAMILIES
    ]
    calls += [(fn, [-1]) for fn in (ctx.stirling2_row, ctx.stirling1_row)]
    calls += [(fn, [-1, 0]) for fn in (ctx.stirling2, ctx.stirling1)]
    calls += [(fn, [-1]) for fn in (exp_poly, geom_poly, bernoulli_poly, euler_poly, binom_poly)]
    for fn, args in calls:
        with pytest.raises(ValueError, match="negative index -1"):
            fn(*args)


def _tables(ctx):
    """A copy of every memo table of ctx."""
    return {name: copy.deepcopy(value) for name, value in vars(ctx).items() if name != "_lock"}


REFUSED_CALLS = [
    ("power_sum", (5, -1), "negative index -1"),
    ("power_sum", (-1, 3), "negative exponent -1"),
    ("faulhaber", (-1, 3), "negative exponent -1"),
    ("faulhaber", (3, -1), "negative index -1"),
    ("moment", (3, -1), "negative exponent -1"),
    ("hyperharmonic", (-1, 3), "negative order -1"),
]


@pytest.mark.parametrize("method, args, message", REFUSED_CALLS, ids=[f"{m}{a}" for m, a, _ in REFUSED_CALLS])
def test_a_refused_call_leaves_the_context_as_it_found_it(method, args, message):
    # power_sum once stored the exponent's prefix table before _grow refused
    # the index, so a refused call left {5: [0]} behind
    fresh, used = SeqContext(), SeqContext()
    used.power_sum(5, 3)
    used.faulhaber(3, 2)
    used.moment(3, 2)
    used.hyperharmonic(2, 3)
    for ctx in (fresh, used):
        before = _tables(ctx)
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(ctx, method)(*args)
        assert _tables(ctx) == before


def test_orthogonality_both_orders(ctx):
    for n in range(0, 31):
        for j in range(0, n + 1):
            want = 1 if n == j else 0
            assert (
                sum(ctx.stirling2(n, k) * ctx.stirling1(k, j) for k in range(j, n + 1))
                == want
            )
            assert (
                sum(ctx.stirling1(n, k) * ctx.stirling2(k, j) for k in range(j, n + 1))
                == want
            )


def test_bell_is_row_sum_of_oracle(ctx):
    for n in range(0, 10):
        assert ctx.bell(n) == sum(stirling2_oracle(n, k) for k in range(n + 1))
    assert [ctx.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert ctx.bell(10) == 115975


def _partition_row_sums(top: int) -> list[int]:
    # Bell numbers checked against the partition triangle, never against
    # Aitken's array: the library grows them along that array, and two
    # recurrences that share nothing check each other
    rows = SeqContext()
    return [sum(rows.stirling2_row(n)) for n in range(top + 1)]


@pytest.mark.parametrize("order", ["fresh", "warm", "row-then-bell", "bell-then-row"])
def test_bell_equals_the_partition_row_sums_up_to_200(order):
    ctx = SeqContext()
    if order in ("fresh", "warm"):
        if order == "warm":
            ctx.bell(60)
        ctx.bell(200)
        got = [ctx.bell(n) for n in range(201)]
    else:
        # the triangle grows in step with the Bell table, one side first
        got = []
        for n in range(201):
            if order == "row-then-bell":
                ctx.stirling2_row(n)
            got.append(ctx.bell(n))
            if order == "bell-then-row":
                ctx.stirling2_row(n)
    assert got == _partition_row_sums(200)


def test_bell_table_fills_safely_between_threads():
    assert _filled_three_ways("bell", 200) == [_partition_row_sums(200)] * 4


@pytest.mark.parametrize(
    "fill, top",
    [(lambda ctx: ctx.bell(600), 600), (lambda ctx: ctx.moment(100, 20), 120)],
    ids=["bell", "moment"],
)
def test_bell_and_moment_fills_read_no_triangle_row(fill, top):
    # work guard: Bell numbers grow along Aitken's array, keeping one row of
    # it, and moments from Bell numbers (moment(100, 20) reads B_0..B_120),
    # so neither builds a partition-triangle row
    ctx = SeqContext()
    fill(ctx)
    assert len(ctx._s2_rows) == 1
    assert len(ctx._bell) == len(ctx._bell_row) == top + 1


def test_fubini_weights_oracle_row_by_factorials(ctx):
    for n in range(0, 10):
        assert ctx.fubini(n) == sum(
            stirling2_oracle(n, k) * ctx.factorial(k) for k in range(n + 1)
        )
    assert [ctx.fubini(n) for n in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]


@pytest.mark.parametrize("order", ["fresh", "warm"])
def test_fubini_equals_the_weighted_partition_row_sums_up_to_200(order):
    ctx = SeqContext()
    if order == "warm":
        ctx.moment(0, 80)  # Pascal rows 0..79, ahead of the Fubini table
        ctx.fubini(60)
    ctx.fubini(200)
    assert [ctx.fubini(n) for n in range(201)] == fubini_oracle(200, SeqContext())


def test_fubini_table_fills_safely_between_threads():
    assert _filled_three_ways("fubini", 200) == [fubini_oracle(200, SeqContext())] * 4


def test_fubini_fill_reads_no_triangle_row_and_no_factorial():
    # work guard: the Fubini table reads Pascal rows alone.  A fresh
    # fubini(600) took 1.0-1.4 s over the partition triangle and 0.25-0.31
    # s over Pascal rows (one pinned CPU); the gate leaves room for a
    # host that runs twice as slowly
    import time

    class CountingContext(SeqContext):
        calls = 0

        def factorial(self, n):
            self.calls += 1
            return super().factorial(n)

    times = []
    for _ in range(3):
        ctx = CountingContext()
        start = time.perf_counter()
        ctx.fubini(600)
        times.append(time.perf_counter() - start)
        assert len(ctx._s2_rows) == 1
        assert ctx.calls == 0
        assert len(ctx._fubini) == 601
        assert len(ctx._pascal) == 1  # one rolling row, not a Pascal table
    assert min(times) < 0.6


def test_fubini_step_that_raised_leaves_the_table_in_step(monkeypatch):
    # a MemoryError or KeyboardInterrupt inside the weighted sum must not
    # leave the rolling Pascal row one step ahead of the table
    import stirlingkit.seq as seq_module

    ctx = SeqContext()
    ctx.fubini(10)

    def failing_mul(a, b):
        raise MemoryError

    monkeypatch.setattr(seq_module, "mul", failing_mul)
    with pytest.raises(MemoryError):
        ctx.fubini(11)
    monkeypatch.undo()
    assert [ctx.fubini(n) for n in range(41)] == fubini_oracle(40, SeqContext())


# every public read, as a function of one index i: the sweep below reads
# i = 10 with a raise injected, then i = 0..10 again
PUBLIC_READS = {
    "stirling2": lambda ctx, i: ctx.stirling2(i, i // 2),
    "stirling1": lambda ctx, i: ctx.stirling1(i, i // 2),
    "stirling2_row": lambda ctx, i: ctx.stirling2_row(i),
    "stirling1_row": lambda ctx, i: ctx.stirling1_row(i),
    "factorial": lambda ctx, i: ctx.factorial(i),
    "bell": lambda ctx, i: ctx.bell(i),
    "fubini": lambda ctx, i: ctx.fubini(i),
    "derangement": lambda ctx, i: ctx.derangement(i),
    "harmonic": lambda ctx, i: ctx.harmonic(i),
    "hyperharmonic": lambda ctx, i: ctx.hyperharmonic(3, i),
    "bernoulli": lambda ctx, i: ctx.bernoulli(i),
    "bernoulli_plus": lambda ctx, i: ctx.bernoulli_plus(i),
    "euler_number": lambda ctx, i: ctx.euler_number(i),
    "power_sum": lambda ctx, i: ctx.power_sum(3, i),
    "faulhaber": lambda ctx, i: ctx.faulhaber(i, 4),
    "moment": lambda ctx, i: ctx.moment(3, i),
}


class _Injected(BaseException):
    """Raised into a read by the tracer, as a KeyboardInterrupt would be."""


def _read_raising_at(read, target):
    """Run read(ctx, 10) on a fresh context, raising ``_Injected`` at the
    target-th line or return event of a frame in seq.py (never, for
    target 0).  Returns the context and the number of events seen."""
    import stirlingkit.seq as seq_module

    seen = 0

    def local(frame, event, arg):
        nonlocal seen
        if event in ("line", "return"):
            seen += 1
            if seen == target:
                raise _Injected
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == seq_module.__file__ else None

    ctx = SeqContext()
    previous = sys.gettrace()
    sys.settrace(calls)  # this thread only
    try:
        read(ctx, 10)
    except _Injected:
        pass
    finally:
        sys.settrace(previous)
    return ctx, seen


@pytest.mark.parametrize("name", sorted(PUBLIC_READS))
def test_a_read_interrupted_anywhere_leaves_its_context_exact(name):
    # a raise between a growth step and its append (a KeyboardInterrupt, a
    # MemoryError, a tracer) must leave every table and its rolling row in
    # step, so that later reads on that context give the fresh values
    assert set(PUBLIC_READS) == {attr for attr in vars(SeqContext) if not attr.startswith("_")}
    read = PUBLIC_READS[name]
    expected = [read(SeqContext(), i) for i in range(11)]
    _, events = _read_raising_at(read, 0)
    desynced = []
    for target in range(1, events + 1):
        ctx, _ = _read_raising_at(read, target)
        if [read(ctx, i) for i in range(11)] != expected:
            desynced.append(target)
    assert desynced == [], f"{len(desynced)} of {events} injection points"


def test_derangement_matches_enumeration(ctx):
    for n in range(0, 8):
        assert ctx.derangement(n) == derangement_oracle(n)


def test_derangement_recurrence(ctx):
    # the table grows by the recurrence; inclusion-exclusion is the oracle
    assert [ctx.derangement(n) for n in range(301)] == [derangement_sum_oracle(n) for n in range(301)]


def test_harmonic_partial_sums(ctx):
    acc = Fraction(0)
    for n in range(1, 31):
        acc += Fraction(1, n)
        assert ctx.harmonic(n) == acc
    assert ctx.harmonic(0) == 0


def test_hyperharmonic_is_iterated_partial_sum(ctx):
    # order p+1 is the running total of order p, including the p = 0 level
    for p in range(0, 5):
        for n in range(0, 31):
            assert ctx.hyperharmonic(p + 1, n) == sum(
                ctx.hyperharmonic(p, m) for m in range(1, n + 1)
            ), (p, n)


def test_hyperharmonic_base_levels(ctx):
    assert ctx.hyperharmonic(0, 4) == Fraction(1, 4)
    assert ctx.hyperharmonic(0, 0) == 0
    for n in range(0, 20):
        assert ctx.hyperharmonic(1, n) == ctx.harmonic(n)
    assert ctx.hyperharmonic(2, 2) == Fraction(5, 2)


def test_hyperharmonic_closed_form_matches_definition(ctx):
    # closed form vs literally iterating partial sums from the harmonic row
    top = 25
    level = [ctx.harmonic(n) for n in range(top + 1)]
    for p in range(2, 7):
        nxt = [Fraction(0)] * (top + 1)
        acc = Fraction(0)
        for n in range(1, top + 1):
            acc += level[n]
            nxt[n] = acc
        level = nxt
        for n in range(0, top + 1):
            assert ctx.hyperharmonic(p, n) == level[n], (p, n)


def _filled_three_ways(method: str, top: int) -> list[list]:
    """Entries 0..top of one table on fresh contexts: filled all at once,
    stepwise, and by two threads sharing a context, one climbing and one
    descending.  Four lists, each of which must equal the oracle."""
    import sys
    import threading

    at_once = SeqContext()
    getattr(at_once, method)(top)
    stepwise = SeqContext()
    fills = [
        [getattr(at_once, method)(n) for n in range(top + 1)],
        [getattr(stepwise, method)(n) for n in range(top + 1)],
    ]
    shared = SeqContext()
    start = threading.Barrier(2)
    results = {}

    def fill(name, order):
        start.wait(timeout=60)
        results[name] = {n: getattr(shared, method)(n) for n in order}

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fill, args=("up", range(top + 1))),
            threading.Thread(target=fill, args=("down", range(top, -1, -1))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    return fills + [[results[name][n] for n in range(top + 1)] for name in ("up", "down")]


def test_bernoulli_matches_pascal_recurrence():
    want = bernoulli_oracle(300)
    assert _filled_three_ways("bernoulli", 300) == [want] * 4


def test_bernoulli_fill_reads_no_triangle_row_and_no_factorial():
    # work guard: the Bernoulli table reads the zigzag column alone, so it
    # builds no triangle row and computes no factorial
    class CountingContext(SeqContext):
        calls = 0

        def factorial(self, n):
            self.calls += 1
            return super().factorial(n)

    ctx = CountingContext()
    ctx.bernoulli(600)
    assert len(ctx._s2_rows) == 1
    assert ctx.calls == 0
    assert len(ctx._zigzag) == 600  # A_0 .. A_599: B_600 reads A_599


def test_bernoulli_sign_variants(ctx):
    assert ctx.bernoulli(1) == Fraction(-1, 2)
    assert ctx.bernoulli_plus(1) == Fraction(1, 2)
    for n in range(0, 31):
        if n != 1:
            assert ctx.bernoulli_plus(n) == ctx.bernoulli(n)
    for n in range(3, 31, 2):
        assert ctx.bernoulli(n) == 0


def test_euler_number_matches_polynomial_oracle(ctx):
    half = Fraction(1, 2)
    for n in range(0, 21):
        coeffs = euler_poly_oracle(n)
        want = sum(c * half**j for j, c in enumerate(coeffs))
        assert ctx.euler_number(n) == want, n


def test_euler_number_classical_integers(ctx):
    # scaling by 2^n recovers the integer secant numbers
    classical = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521]
    for n, want in enumerate(classical):
        got = 2**n * ctx.euler_number(n)
        assert got == want, n


def test_power_sum_direct(ctx):
    assert ctx.power_sum(2, 3) == 14
    assert ctx.power_sum(0, 5) == 5
    assert ctx.power_sum(3, 0) == 0


def test_euler_table_grows_one_index_at_a_time_and_equals_the_polynomials_at_one_half():
    import random
    import time

    from stirlingkit.egf import Egf, egf_reciprocal
    from stirlingkit.poly import euler_polys

    half = Fraction(1, 2)
    want = [sum(c * half**j for j, c in enumerate(coeffs)) for coeffs in euler_polys_oracle(120)]
    polys = [e(half) for e in euler_polys(300)]
    # 2/(e^t + 1), the reciprocal euler_polys reads its coefficients from
    r = egf_reciprocal(Egf([Fraction(1)] + [half] * 300)).coeffs
    start = time.perf_counter()  # times the table work, not the oracles
    assert _filled_three_ways("euler_number", 120) == [want] * 4
    assert _filled_three_ways("euler_number", 300) == [polys] * 4
    rising = SeqContext()
    for n in range(521):
        rising.euler_number(n)
    assert len(rising._euler) == 521
    order = list(range(121))
    random.Random(5).shuffle(order)
    shuffled = SeqContext()
    for n in order:
        assert shuffled.euler_number(n) == want[n], n
    once = SeqContext()
    once.euler_number(300)
    # the odd entries, which the Bernoulli table reads, are the tangent
    # numbers: A_(2k-1) = (-1)^k 2^(2k-1) r_(2k-1)
    assert once._zigzag[1::2] == [(-1) ** ((j + 1) // 2) * 2**j * r[j] for j in range(1, 301, 2)]
    assert time.perf_counter() - start < 3.0


def test_only_the_growth_primitives_take_the_lock_and_seq_builds_on_exact_alone():
    import ast
    import inspect

    import stirlingkit.seq as seq

    blocks, uses, imports = [], [], []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, (ast.With, ast.AsyncWith)):
            blocks.extend(fn for item in node.items if "_lock" in ast.unparse(item.context_expr))
        elif isinstance(node, ast.Attribute) and node.attr == "_lock":
            uses.append(fn)
        elif isinstance(node, ast.ImportFrom) and node.level:
            imports.append(node.module)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(inspect.getsource(seq)), None)
    assert blocks == ["_grow", "_memo"]
    assert sorted(uses) == ["__init__", "_grow", "_memo"]  # no acquire() or lock handed out elsewhere
    assert imports == ["exact"]


def test_no_method_that_grows_a_list_table_checks_the_index_sign_itself():
    """``_grow`` refuses a negative index for every list table, so a method
    that returns ``self._grow(table, n, ...)``, directly or as the miss
    branch of ``table[n] if 0 <= n < len(table) else self._grow(...)``,
    has no ``if n < 0: raise`` of its own; checks of a second argument or
    a ``_memo`` key stay."""
    import ast
    import inspect

    def grow_call(value):
        if isinstance(value, ast.IfExp):
            value = value.orelse
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "self._grow":
            return value
        return None

    tree = ast.parse(inspect.getsource(SeqContext))
    methods = [node for node in tree.body[0].body if isinstance(node, ast.FunctionDef)]
    grown, copies = [], []
    for method in methods:
        indices = {
            ast.unparse(grow_call(node.value).args[1])
            for node in ast.walk(method)
            if isinstance(node, ast.Return) and grow_call(node.value) is not None
        }
        if not indices:
            continue
        grown.append(method.name)
        copies += [
            method.name
            for node in ast.walk(method)
            if isinstance(node, ast.If)
            and ast.unparse(node.test) in {f"{n} < 0" for n in indices}
            and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        ]
    assert "factorial" in grown and "stirling2_row" in grown  # the guard sees the methods it covers
    assert copies == []


def test_power_sums_in_any_order_equal_direct_sums():
    import random

    rng = random.Random(7)
    queries = [(p, n) for p in range(13) for n in range(201)]
    rng.shuffle(queries)
    fresh = SeqContext()
    for p, n in queries:
        assert fresh.power_sum(p, n) == sum(i**p for i in range(1, n + 1)), (p, n)


def test_faulhaber_equals_power_sum_and_is_integral(ctx):
    for p in range(0, 13):
        for n in range(0, 31):
            v = ctx.faulhaber(p, n)
            assert v == ctx.power_sum(p, n), (p, n)
            assert v.denominator == 1, (p, n)


def test_faulhaber_table_equals_the_per_call_formula():
    import random

    rng = random.Random(11)
    queries = [(p, n) for p in range(25) for n in range(201)]
    rng.shuffle(queries)
    reference = SeqContext()
    shared = SeqContext()
    for p, n in queries:
        assert shared.faulhaber(p, n) == faulhaber_oracle(p, n, reference), (p, n)
    for p, n in queries[:200]:
        assert SeqContext().faulhaber(p, n) == faulhaber_oracle(p, n, reference), (p, n)


def _family_calls(n_end, p_end):
    """(method, args) for every ``FAMILIES`` entry over n < n_end and, for
    the two-argument families, p < p_end."""
    values = {"n": range(n_end), "p": range(p_end)}
    return [
        (family.method, args)
        for family in FAMILIES
        for args in product(*[values[name] for name in family.params])
    ]


def test_faulhaber_and_hyperharmonic_tables_fill_safely_between_threads():
    import random
    import sys
    import threading

    queries = [(method, (p, n)) for method in ("faulhaber", "hyperharmonic")
               for p in range(2, 17) for n in range(60)]
    queries += _family_calls(40, 5)
    queries += [(method, (n,)) for method in ("stirling2_row", "stirling1_row") for n in range(40)]
    reference = SeqContext()
    want = {q: getattr(reference, q[0])(*q[1]) for q in queries}
    shared = SeqContext()
    results = {}

    def work(seed):
        order = list(queries)
        random.Random(seed).shuffle(order)
        order.sort(key=lambda q: q[1][-1])  # rising indices, so the threads grow tables together
        results[seed] = {q: getattr(shared, q[0])(*q[1]) for q in order}

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert all(results[seed] == want for seed in range(4))


def test_built_entries_are_read_without_the_lock():
    import threading

    ctx = SeqContext()
    calls = _family_calls(30, 5) + [("faulhaber", (p, n)) for p in range(5) for n in range(30)]
    calls += [(method, (n,)) for method in ("stirling2_row", "stirling1_row") for n in range(30)]

    def read_all():
        for method, args in calls:
            getattr(ctx, method)(*args)

    read_all()
    held = threading.Event()
    release = threading.Event()

    def hold():
        with ctx._lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    reader = threading.Thread(target=read_all)
    holder.start()
    try:
        assert held.wait(2)
        reader.start()
        reader.join(timeout=2)
        assert not reader.is_alive(), "a read of a built entry waited for the lock"
    finally:
        release.set()
        holder.join(timeout=10)
        reader.join(timeout=10)


# (method, built entry's arguments, a miss's arguments, the primitive the
# miss must enter) for every list table, then every keyed table
TABLE_READS = [
    ("stirling2_row", (9,), (10,), "_grow"),
    ("stirling1_row", (9,), (10,), "_grow"),
    ("factorial", (9,), (10,), "_grow"),
    ("bell", (9,), (10,), "_grow"),
    ("fubini", (9,), (10,), "_grow"),
    ("derangement", (9,), (10,), "_grow"),
    ("harmonic", (9,), (10,), "_grow"),
    ("bernoulli", (9,), (10,), "_grow"),
    ("euler_number", (9,), (10,), "_grow"),
    ("power_sum", (3, 9), (3, 10), "_grow"),
    ("hyperharmonic", (3, 9), (3, 10), "_memo"),
    ("faulhaber", (3, 9), (4, 9), "_memo"),
    ("moment", (9, 3), (8, 3), "_memo"),
]


@pytest.mark.parametrize("method, built, missing, primitive", TABLE_READS, ids=[row[0] for row in TABLE_READS])
def test_a_built_entry_is_read_without_entering_the_growth_primitives(method, built, missing, primitive):
    # each public read returns a built entry from its own frame; only a
    # miss enters _grow or _memo, the code that grows a table
    ctx = SeqContext()
    read = getattr(ctx, method)
    want = read(*built)
    entered = []

    def recording(name):
        clean = getattr(ctx, name)

        def primitive_call(*args):
            entered.append(name)
            return clean(*args)

        return primitive_call

    ctx._grow, ctx._memo = recording("_grow"), recording("_memo")  # shadow the methods
    assert read(*built) == want
    assert entered == []
    assert read(*missing) == getattr(SeqContext(), method)(*missing)
    assert primitive in entered


def test_moment_recurrence_equals_direct_sum(ctx):
    for n in range(0, 21):
        for p in range(0, 9):
            direct = sum(ctx.stirling2(n, k) * k**p for k in range(n + 1))
            assert ctx.moment(n, p) == direct, (n, p)


class _BellBumpedAt110(SeqContext):
    def bell(self, n):
        return super().bell(n) + (n == 110)


def _moment_t7_order(ctx, n, p):
    # T7's loop: the exponent outside, the index inside, so each call
    # stores one new entry on top of columns the last exponent filled
    for q in range(p + 1):
        for m in range(n, n + p - q + 1):
            ctx.moment(m, q)


@pytest.mark.parametrize("fill", [
    lambda ctx: ctx.moment(100, 20),
    lambda ctx: (ctx.moment(40, 10), ctx.moment(100, 20)),
    lambda ctx: _moment_t7_order(ctx, 100, 20),
], ids=["fresh", "after-40-10", "t7-order"])
@pytest.mark.parametrize("make", [SeqContext, _BellBumpedAt110], ids=lambda c: c.__name__)
def test_moment_fill_orders_agree_with_the_per_term_recurrence(fill, make):
    ctx = make()
    fill(ctx)
    want = moment_fill_oracle(make(), 100, 20)
    assert {key: ctx.moment(*key) for key in want} == want
    if make is SeqContext:
        for (m, q), value in want.items():
            row = ctx.stirling2_row(m)
            assert value == sum(row[k] * k**q for k in range(m + 1)), (m, q)
    else:
        assert want[109, 1] != SeqContext().moment(109, 1)  # the bump reaches the fill


def test_moment_closed_forms(ctx):
    b = ctx.bell
    for n in range(0, 16):
        assert ctx.moment(n, 1) == b(n + 1) - b(n)
        assert ctx.moment(n, 2) == b(n + 2) - 2 * b(n + 1)
        assert ctx.moment(n, 3) == b(n + 3) - 3 * b(n + 2) + b(n)
        assert ctx.moment(n, 4) == b(n + 4) - 4 * b(n + 3) + 4 * b(n + 1) + b(n)
        assert ctx.moment(n, 5) == b(n + 5) - 5 * b(n + 4) + 10 * b(n + 2) + 5 * b(
            n + 1
        ) - 2 * b(n)
    assert ctx.moment(1, 5) == 1


def test_moment_runs_in_a_shallow_stack():
    # the recurrence is filled bottom-up, so a deep exponent needs no
    # recursion: 150 levels would not fit under this limit
    import inspect
    import sys

    ctx = SeqContext()
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        deep = ctx.moment(0, 150), ctx.moment(2, 150)
    finally:
        sys.setrecursionlimit(saved)
    # M(2, p) = S(2, 1) 1^p + S(2, 2) 2^p
    assert deep == (0, 1 + 2**150)


def test_moment_exponent_cap(ctx):
    from stirlingkit.seq import MOMENT_ORDER_CAP

    with pytest.raises(ValueError, match="exceeds the cap"):
        ctx.moment(0, MOMENT_ORDER_CAP + 1)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=25))
def test_memoized_equals_fresh(n):
    # a warm context and a cold one must agree entry for entry
    warm = SeqContext()
    warm.bell(25)
    warm.bernoulli(20)
    cold = SeqContext()
    assert warm.bell(n) == cold.bell(n)
    assert warm.bernoulli(n) == cold.bernoulli(n)
    assert warm.stirling2(n, n // 2) == cold.stirling2(n, n // 2)


def test_factorial_table(ctx):
    import math

    for n in range(0, 20):
        assert ctx.factorial(n) == math.factorial(n)


# -- the process-wide default context --------------------------------


class RecordingContext(SeqContext):
    """Notes which triangle or sequence tables were consulted."""

    def __init__(self):
        super().__init__()
        self.used = set()

    def stirling2(self, n, k):
        self.used.add("stirling2")
        return super().stirling2(n, k)

    def stirling1(self, n, k):
        self.used.add("stirling1")
        return super().stirling1(n, k)

    def stirling2_row(self, n):
        self.used.add("stirling2")
        return super().stirling2_row(n)

    def stirling1_row(self, n):
        self.used.add("stirling1")
        return super().stirling1_row(n)

    def bernoulli(self, n):
        self.used.add("bernoulli")
        return super().bernoulli(n)

    def bell(self, n):
        self.used.add("bell")
        return super().bell(n)


def test_ctx_none_uses_the_one_default_context(monkeypatch):
    import stirlingkit.seq as seq
    from stirlingkit import (
        Egf,
        Env,
        bernoulli_poly,
        check_identity,
        evaluate,
        geom_poly,
        log_substitution,
        parse,
        run_all,
        stirling_inverse,
        stirling_substitution,
        stirling_transform,
        weighted_stirling_transform,
    )
    from stirlingkit.cli import main

    assert seq.context() is seq.context()
    assert Env().ctx is seq.context()
    calls = [
        (lambda: stirling_transform([1, 2, 3]), "stirling2"),
        (lambda: stirling_inverse([1, 2, 3], None), "stirling1"),
        (lambda: weighted_stirling_transform([1, 2, 3], 2, 3, kind="first"), "stirling1"),
        (lambda: geom_poly(4), "stirling2"),
        (lambda: bernoulli_poly(4), "bernoulli"),
        (lambda: stirling_substitution(Egf([1, 2, 3]), 1, 2), "stirling2"),
        (lambda: log_substitution(Egf([1, 2, 3]), 1, 2), "stirling1"),
        (lambda: check_identity("T1b", max_n=5), "stirling2"),
        (lambda: run_all(max_n=5), "stirling1"),
        (lambda: evaluate(parse("bell(4)")), "bell"),
        (lambda: evaluate(parse("S(4, 2)"), Env()), "stirling2"),
        (lambda: main(["seq", "bell", "--n", "3"]), "bell"),
        (lambda: main(["triangle", "stirling1", "--n", "3"]), "stirling1"),
    ]
    for call, table in calls:
        default = RecordingContext()
        monkeypatch.setattr(seq, "_DEFAULT", default)
        call()
        assert table in default.used, table


def test_default_context_is_shared_safely_between_threads(monkeypatch):
    import sys
    import threading

    import stirlingkit.seq as seq
    from stirlingkit import stirling_inverse, stirling_transform

    monkeypatch.setattr(seq, "_DEFAULT", SeqContext())
    reference = SeqContext()
    lengths = (24, 31, 37, 40)
    want = {m: stirling_transform([1] * m, reference) for m in lengths}
    results = {}

    def work(m):
        bells = stirling_transform([1] * m)
        results[m] = (bells, stirling_inverse(bells))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(m,)) for m in lengths]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    for m in lengths:
        assert results[m] == (want[m], [1] * m), m
    assert seq.context().bell(39) == reference.bell(39)
