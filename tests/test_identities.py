"""Identity registry mechanics: ordering, knobs, fault visibility."""

import gc
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stirlingkit import (
    Egf,
    Failure,
    IdentityReport,
    Poly,
    SeqContext,
    X,
    check_identity,
    list_identities,
    log_substitution,
    parse,
    parse_rational,
    run_all,
    stirling_substitution,
)
from stirlingkit import egf, exact, identities, poly
from stirlingkit.identities import DEFAULT_SERIES_ORDER, ENV_MAX_N

from support import binom_poly_oracle, weighted_partial_sums_oracle

EXPECTED_ORDER = [
    "T1", "T1b", "C2", "T3a", "T3b", "E9", "T5a", "T5b", "T5c",
    "T6a", "T6b", "T6c", "T6d", "T7", "L8", "E15", "P9", "C10",
    "E21", "E22", "P11", "C12", "C13", "E30", "C14", "T15", "L16",
    "ORTH", "GF6", "DIL", "L4", "E18", "CBH",
]


class SignFlippedContext(SeqContext):
    """Deliberately corrupted context: s(3, 2) has the wrong sign.  It is
    injected through the row method, which entry lookups, transforms and
    checkers all read, so any identity whose routes consult that entry
    must fail."""

    def stirling1_row(self, n):
        row = super().stirling1_row(n)
        if n == 3:
            return row[:2] + (-row[2],) + row[3:]
        return row


class PartitionBumpedContext(SeqContext):
    """Deliberately corrupted context: S(4, 2) is one too large, injected
    through the row method."""

    def stirling2_row(self, n):
        row = super().stirling2_row(n)
        if n == 4:
            return row[:2] + (row[2] + 1,) + row[3:]
        return row


class EntryCountingContext(SeqContext):
    """Counts single-entry triangle lookups."""

    def __init__(self):
        super().__init__()
        self.entry_calls = 0

    def stirling2(self, n, k):
        self.entry_calls += 1
        return super().stirling2(n, k)

    def stirling1(self, n, k):
        self.entry_calls += 1
        return super().stirling1(n, k)


@pytest.fixture(scope="module")
def reports():
    return run_all()


def test_registry_order_is_fixed():
    assert [spec.id for spec in list_identities()] == EXPECTED_ORDER


def test_specs_well_formed():
    kinds = {
        "scalar-equality",
        "polynomial-equality",
        "series-equality",
        "numeric-tolerance",
    }
    seen = set()
    for spec in list_identities():
        assert spec.id not in seen
        seen.add(spec.id)
        assert spec.description
        assert spec.kind in kinds
        # dual routes must be declared and genuinely distinct
        assert len(spec.routes) == 2
        assert spec.routes[0] != spec.routes[1]
        assert all(r.strip() for r in spec.routes)


def test_series_and_eps_flags():
    by_id = {spec.id: spec for spec in list_identities()}
    assert {s.id for s in by_id.values() if s.n_range is None} == {"P9", "GF6", "DIL", "L4"}
    assert {s.id for s in by_id.values() if s.kind == "numeric-tolerance"} == {"E30"}


def test_everything_passes_at_defaults(reports):
    assert [r.id for r in reports] == EXPECTED_ORDER
    for r in reports:
        assert r.passed, r.id
        assert r.checked > 0, r.id
        assert r.failures == ()


def test_reports_are_deterministic(reports):
    again = run_all()
    assert again == reports


def test_expected_instance_counts(reports):
    counts = {r.id: r.checked for r in reports}
    assert counts["T1"] == 360  # 9 p-values x 40 indices
    assert counts["T1b"] == 61
    assert counts["T15"] == 41
    assert counts["ORTH"] == 992  # both orders, all 0 <= j <= n <= 30
    assert counts["E30"] == 16
    assert counts["DIL"] == 1


def test_convention_note_present(reports):
    t1 = next(r for r in reports if r.id == "T1")
    assert any("0^0" in note for note in t1.notes)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        check_identity("NOPE")


def test_bad_knobs_rejected():
    with pytest.raises(ValueError):
        run_all(max_n=3)
    with pytest.raises(ValueError):
        check_identity("P9", order=0)
    with pytest.raises(ValueError):
        check_identity("E30", eps=Fraction(0))


def test_max_n_shrinks_domain():
    assert check_identity("T15", max_n=20).checked == 21
    assert check_identity("C14", max_n=10).checked == 10  # domain starts at 1


def test_env_var_raises_cap(monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "45")
    assert check_identity("T15").checked == 46
    # the env floor only ever raises; a small value changes nothing
    monkeypatch.setenv(ENV_MAX_N, "5")
    assert check_identity("T15").checked == 41
    # an explicit max_n still intersects from above
    monkeypatch.setenv(ENV_MAX_N, "45")
    assert check_identity("T15", max_n=20).checked == 21
    monkeypatch.setenv(ENV_MAX_N, "not-a-number")
    with pytest.raises(ValueError):
        check_identity("T15")


def test_series_order_knob():
    base = check_identity("GF6")
    deeper = check_identity("GF6", order=DEFAULT_SERIES_ORDER + 4)
    assert base.passed and deeper.passed


def test_tight_eps_still_passes():
    # the cutoff adapts to the tolerance, so shrinking eps must not fail
    r = check_identity("E30", eps=Fraction(1, 10**30), max_n=10)
    assert r.passed


def test_sign_fault_breaks_orthogonality():
    r = check_identity("ORTH", ctx=SignFlippedContext(), max_n=6)
    assert not r.passed
    bad = r.failures[0]
    assert isinstance(bad, Failure)
    assert bad.lhs != bad.rhs
    # both sides must be readable exact values
    parse_rational(bad.lhs)
    parse_rational(bad.rhs)


def test_sign_fault_breaks_triangle_weighted_sum():
    r = check_identity("T6a", ctx=SignFlippedContext(), max_n=8)
    assert not r.passed
    params = r.failures[0].params
    assert params["n"] == 3


def test_sign_fault_leaves_unrelated_identity_alone():
    # a second-kind-only identity never consults the corrupted triangle
    r = check_identity("T1b", ctx=SignFlippedContext(), max_n=10)
    assert r.passed


# every entry whose routes read the corrupted row entry
ROW_FAULT_ENTRIES = {
    SignFlippedContext: {"C2", "ORTH", "T3a", "T5a", "T6a", "T6c"},
    PartitionBumpedContext: {
        "C10", "C12", "C13", "C14", "E15", "E21", "E22", "E9", "ORTH", "P11",
        "P9", "T1", "T15", "T1b", "T3b", "T5b", "T5c", "T6b", "T6d", "T7",
    },
}


@pytest.mark.parametrize("faulty", list(ROW_FAULT_ENTRIES), ids=lambda c: c.__name__)
def test_row_faults_fail_exactly_the_entries_that_read_the_entry(faulty):
    reports = run_all(ctx=faulty())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == ROW_FAULT_ENTRIES[faulty]


def test_registry_reads_triangle_rows_not_entries():
    # work-count guard: one locked lookup per summand made about 51,000
    # entry calls in a default pass; the checkers and the geometric
    # polynomials read whole rows
    ctx = EntryCountingContext()
    assert all(r.passed for r in run_all(ctx=ctx))
    assert ctx.entry_calls == 0


class BernoulliBumpedContext(SeqContext):
    """Deliberately corrupted context: B_4 is one too large."""

    def bernoulli(self, n):
        value = super().bernoulli(n)
        return value + 1 if n == 4 else value


class HarmonicBumpedContext(SeqContext):
    """Deliberately corrupted context: H_4 is one too large."""

    def harmonic(self, n):
        value = super().harmonic(n)
        return value + 1 if n == 4 else value


class PowerSumBumpedContext(SeqContext):
    """Deliberately corrupted context: 1^p + ... + 4^p is one too large
    for every p."""

    def power_sum(self, p, n):
        value = super().power_sum(p, n)
        return value + 1 if n == 4 else value


def _bumped_at_5(method):
    """A context whose public ``method`` is one too large at index 5, or
    at entry (5, 2) for a triangle row; every other method is sound."""

    def bumped(self, *args):
        value = getattr(SeqContext, method)(self, *args)
        if method.endswith("_row"):
            return value[:2] + (value[2] + 1,) + value[3:] if args[0] == 5 else value
        index = args[0] if method == "moment" else args[-1]
        return value + 1 if index == 5 else value

    return type(f"{method}_bumped_at_5", (SeqContext,), {method: bumped})


# every entry whose routes read the corrupted table entry; the Faulhaber
# and hyperharmonic tables are filled through the faulty methods.  The
# entry-5 sets pin which table each route reads.
TABLE_FAULT_ENTRIES = {
    BernoulliBumpedContext: {"C10", "E18", "E21", "E22", "T5a", "T5b", "T6a", "T6b", "T6c", "T6d"},
    HarmonicBumpedContext: {"C2", "DIL", "GF6", "T1", "T1b", "T6a", "T6b"},
    PowerSumBumpedContext: {"E18", "P9"},
    _bumped_at_5("factorial"): {
        "C10", "C12", "C13", "C14", "C2", "DIL", "E18", "E21", "E22", "E30", "E9", "GF6", "P11",
        "P9", "T1", "T1b", "T3a", "T3b", "T5a", "T5b", "T5c", "T6a", "T6b", "T6c", "T6d",
    },
    _bumped_at_5("stirling2_row"): {
        "C10", "C12", "C13", "C14", "E15", "E21", "E22", "E9", "ORTH", "P11",
        "P9", "T1", "T15", "T1b", "T3b", "T5b", "T5c", "T6b", "T6d", "T7",
    },
    _bumped_at_5("stirling1_row"): {"C2", "ORTH", "T3a", "T5a", "T6a", "T6c"},
    _bumped_at_5("bell"): {"C10", "E21", "E22", "T15", "T7"},
    _bumped_at_5("fubini"): {"C13", "E30"},
    _bumped_at_5("derangement"): {"T15"},
    _bumped_at_5("harmonic"): {"C2", "DIL", "GF6", "T1", "T1b", "T6a", "T6b"},
    _bumped_at_5("hyperharmonic"): {"C2", "GF6", "T1"},
    _bumped_at_5("bernoulli"): {"C10", "E18", "E21", "E22", "T5a", "T5b", "T6a", "T6b", "T6c", "T6d"},
    _bumped_at_5("euler_number"): {"E9"},
    _bumped_at_5("power_sum"): {"E18", "P9"},
    _bumped_at_5("faulhaber"): {"E18"},
    _bumped_at_5("moment"): {"T7"},
}


@pytest.mark.parametrize("faulty", list(TABLE_FAULT_ENTRIES), ids=lambda c: c.__name__)
def test_table_faults_fail_exactly_the_entries_that_read_the_table(faulty):
    reports = run_all(ctx=faulty())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == TABLE_FAULT_ENTRIES[faulty]


def test_context_tables_are_filled_through_the_faulty_methods():
    # a table filled from the private lists would hide the fault from
    # every order p >= 2, every Faulhaber exponent and every moment
    clean = SeqContext()
    assert HarmonicBumpedContext().hyperharmonic(2, 3) == clean.hyperharmonic(2, 3) + 4
    assert BernoulliBumpedContext().faulhaber(4, 2) != clean.faulhaber(4, 2)
    assert _bumped_at_5("bell")().moment(4, 1) == clean.moment(4, 1) + 1  # M(4, 1) = B_5 - B_4


def test_report_passed_property():
    good = IdentityReport("X1", 3, ())
    bad = IdentityReport("X2", 3, (Failure({"n": 1}, "0", "1"),))
    assert good.passed and not bad.passed


def test_records_keep_their_repr_are_read_only_and_pickle():
    report = IdentityReport("T1", 4, (Failure({"n": 3, "p": 1}, "5", "7"),))
    spec = list_identities()[0]
    tree = parse("sum(k=0..n, -S(n,k)^2)")
    assert repr(report) == (
        "IdentityReport(id='T1', checked=4, failures=(Failure(params={'n': 3, 'p': 1}, lhs='5', rhs='7'),), notes=())"
    )
    assert repr(tree) == (
        "Sum(var='k', lo=IntLit(value=0), hi=Var(name='n'), body=Neg(operand=BinOp(op='^', "
        "left=Call(name='S', args=(Var(name='n'), Var(name='k'))), right=IntLit(value=2))))"
    )
    for record, field in ((report, "id"), (report.failures[0], "lhs"), (spec, "kind"), (tree, "var"),
                          (tree.body, "operand")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    for record in (report, spec, tree):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == repr(record)
    assert hash(pickle.loads(pickle.dumps(tree))) == hash(tree)
    assert hash(pickle.loads(pickle.dumps(spec))) == hash(spec)


# -- per-checker family lists ------------------------------------------


def _corrupt_entry(builder, index):
    """A family builder whose list has one wrong entry at ``index``."""

    def corrupted(n):
        out = builder(n)
        if index < len(out):
            out[index] = out[index] + X
        return out

    return corrupted


@pytest.mark.parametrize("entry", ["T3a", "T3b", "T5a", "T5b"])
def test_binom_builder_fault_breaks_binomial_entries(monkeypatch, entry):
    monkeypatch.setattr(identities, "binom_polys", _corrupt_entry(poly.binom_polys, 3))
    r = check_identity(entry, ctx=SeqContext())
    assert not r.passed
    assert min(f.params["n"] for f in r.failures) == 3


@pytest.mark.parametrize("entry", ["L8", "E15", "L16", "C10", "E21", "E22"])
def test_exp_builder_fault_breaks_exponential_entries(monkeypatch, entry):
    monkeypatch.setattr(identities, "exp_polys", _corrupt_entry(poly.exp_polys, 4))
    r = check_identity(entry, ctx=SeqContext())
    assert not r.passed
    # the fault reaches back at most two indices (E15 reads phi_(n+2))
    assert min(f.params["n"] for f in r.failures) >= 2


@pytest.mark.parametrize("entry", ["T3b", "T5b", "L8"])
def test_family_lists_bound_polynomial_products(monkeypatch, entry):
    # a per-summand rebuild of the families makes over 20,000 products
    # for each of these entries at n <= 30; products and linear
    # combinations are counted together
    calls = []
    mul = Poly.__mul__
    combine = identities._combine

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    def counting_combine(weights, vectors):
        calls.append(None)
        return combine(weights, vectors)

    monkeypatch.setenv(ENV_MAX_N, "30")
    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(identities, "_combine", counting_combine)
    r = check_identity(entry, ctx=SeqContext())
    assert r.passed and r.checked >= 31
    assert 0 < len(calls) <= 2000


def test_geometric_blocks_equal_direct_double_sum():
    w = Fraction(-1, 2)
    blocks = identities._geometric_blocks(poly.binom_polys(20), w)
    for k, block in enumerate(blocks):
        direct = sum(
            (w ** (k - j) * binom_poly_oracle(j) for j in range(k + 1)), Poly()
        )
        assert block == direct, k


def test_empty_effective_range_is_refused():
    with pytest.raises(ValueError, match="no instance"):
        check_identity("T1", max_n=0)
    with pytest.raises(ValueError, match="no instance"):
        check_identity("T3b", max_n=-1)
    assert check_identity("T3b", max_n=0).checked == 1


# -- the shared convolution --------------------------------------------

# every entry whose routes take a product of two polynomials or series
CONVOLUTION_ENTRIES = {"L8", "E15", "P9", "P11", "C12", "L16", "GF6", "DIL", "L4"}


def _faulty_convolve(a, b, size):
    out = exact._convolve(a, b, size)
    if size >= 3:
        out[2] += 1
    return out


def test_convolution_fault_cannot_cancel_across_routes(monkeypatch):
    # Poly and Egf share one product loop; corrupting it must fail exactly
    # the entries that multiply, so no defect in it cancels between the
    # two routes of an entry
    users = {
        name
        for name, module in sys.modules.items()
        if name.startswith("stirlingkit.") and getattr(module, "_convolve", None) is exact._convolve
    }
    assert users == {"stirlingkit.exact", "stirlingkit.poly", "stirlingkit.egf"}
    monkeypatch.setattr(poly, "_convolve", _faulty_convolve)
    monkeypatch.setattr(egf, "_convolve", _faulty_convolve)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == CONVOLUTION_ENTRIES
    for substitution in (stirling_substitution, log_substitution):
        with pytest.raises(ArithmeticError):
            substitution(Egf([1, 2, 3, 4, 5]), 1, 1, SeqContext())


# -- the shared linear combination -------------------------------------

# every entry whose polynomial sums go through the combination kernel
COMBINATION_ENTRIES = {"T3a", "T3b", "T5a", "T5b", "L8", "C10", "E21", "E22", "L16"}


def _faulty_combine(weights, vectors):
    return exact._combine(weights, vectors) + X * X


def test_combination_fault_cannot_cancel_across_routes(monkeypatch):
    # corrupting the one kernel must fail every entry that calls it, so
    # no defect in it cancels between the two routes of an entry
    src = Path(exact.__file__).parent
    definitions = sum(path.read_text().count("def _combine(") for path in src.glob("*.py"))
    assert definitions == 1
    users = {
        name
        for name, module in sys.modules.items()
        if name.startswith("stirlingkit.") and getattr(module, "_combine", None) is exact._combine
    }
    assert users == {"stirlingkit.exact", "stirlingkit.identities"}
    monkeypatch.setattr(identities, "_combine", _faulty_combine)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == COMBINATION_ENTRIES


# -- L4's direct side ----------------------------------------------------

l4_terms = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))
l4_weights = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=80)
@given(st.lists(l4_terms, min_size=1, max_size=40), l4_weights)
def test_weighted_partial_sums_match_the_fraction_loop(g, weight):
    nums, den = exact.common_denominator(g)
    apows = [weight.numerator**j for j in range(len(g))]
    bpows = [weight.denominator**j for j in range(len(g))]
    got = identities._weighted_partial_sums(nums, den, apows, bpows)
    assert got == weighted_partial_sums_oracle(g, weight)


def test_a_registry_pass_leaves_no_reference_cycles():
    # cycles would keep Polys and context tables alive until a collection
    run_all(ctx=SeqContext())  # imports and the default context settle
    gc.disable()
    try:
        gc.collect()
        run_all(ctx=SeqContext())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_repeated_registry_passes_do_not_grow_the_allocator():
    # CPython builds a tuple from a generator by resizing one taken from
    # another size's free list, and frees it into the list of its final
    # size, so every such build moves one tuple between free lists; a
    # pass runs no full collection to empty them, so they only grow.
    probe = textwrap.dedent(
        """
        import sys
        from stirlingkit import SeqContext, run_all
        for _ in range(3):
            run_all(ctx=SeqContext())
        before = sys.getallocatedblocks()
        for _ in range(20):
            run_all(ctx=SeqContext())
        print(sys.getallocatedblocks() - before)
        """
    )
    src = str(Path(exact.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(proc.stdout) < 1000
