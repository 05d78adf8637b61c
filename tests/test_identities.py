"""Identity registry mechanics: ordering, knobs, fault visibility."""

import gc
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb
from operator import add, sub
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
from stirlingkit import egf, exact, identities, poly, transform
from stirlingkit.identities import DEFAULT_SERIES_ORDER, ENV_MAX_N

from support import binom_poly_oracle, reciprocal_blocks_oracle, weighted_partial_sums_oracle

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


# sha256 of the pickled run_all() reports on a fresh context at each
# STIRLINGKIT_MAX_N (None: the default caps).  A passing report carries
# only ids, counts and notes, so these pin that every entry runs the same
# instances, in the same order, and passes them.
PASSING_REPORT_DIGESTS = {
    None: "c6532e90598a92d5500a0ceefdd9c1268f0cfb469bc8da7647b6e96e42758454",
    "30": "0c6bcac439a232a3c4b0fb86fb916229820b4b5497b73b85887c280718a13dd1",
    "60": "2d2f5b80ea3b31ffa02b380bd0e5d8f6a747ab0c7023e813951d57f27fa33b8c",
    "100": "a8db9abccffe1e4279bb2cadeec235de9fc47bb4242d630208fbaddfd10afc90",
}


@pytest.mark.parametrize("cap", list(PASSING_REPORT_DIGESTS))
def test_passing_reports_pickle_to_the_pinned_digests(monkeypatch, cap):
    if cap is None:
        monkeypatch.delenv(ENV_MAX_N, raising=False)
    else:
        monkeypatch.setenv(ENV_MAX_N, cap)
    digest = hashlib.sha256(pickle.dumps(run_all(ctx=SeqContext()), protocol=4)).hexdigest()
    assert digest == PASSING_REPORT_DIGESTS[cap]


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


class FubiniPlusOneContext(SeqContext):
    """Every ordered-partition count one too large."""

    def fubini(self, n):
        return SeqContext.fubini(self, n) + 1


def test_no_tolerance_can_pass_a_wrong_count():
    # a wrong integer F_n + d passes E30 only when |d| < 2 eps: at
    # eps = 1/2 an off-by-one count fails every instance, and a larger
    # tolerance, which could pass it, is refused
    r = check_identity("E30", ctx=FubiniPlusOneContext(), eps=Fraction(1, 2))
    assert (r.checked, len(r.failures)) == (16, 16)
    assert check_identity("E30", eps=Fraction(1, 2)).passed
    for eps in (Fraction(1, 2) + Fraction(1, 10**30), 1, Fraction(10**50)):
        with pytest.raises(ValueError, match="^tolerance must be at most 1/2$"):
            check_identity("E30", ctx=FubiniPlusOneContext(), eps=eps)
    with pytest.raises(ValueError, match="at most 1/2"):
        run_all(eps=1)


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
        "C12", "C13", "C14", "C2", "DIL", "E9", "GF6", "P11",
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


# sha256 of the pickled run_all() reports under each pinned fault: the
# failing ids and every counterexample, its parameters and the text of
# both sides.  A change that compares sides another way must print the
# same counterexamples; one that changes them on purpose updates this table.
FAULT_REPORT_DIGESTS = {
    "SignFlippedContext": "22da318d6af03137d8b9333df0ca6d91d1b9ff5d7581f92bbea85df53c3add49",
    "PartitionBumpedContext": "c36e0a6497937b36225abbd0d08d898d6ca20603f35d74dfbe42199253878f05",
    "BernoulliBumpedContext": "92ffc5e93208b1f7ff9c530fb39598ab7dce0831775d345d736fdb95450c055f",
    "HarmonicBumpedContext": "160f3d8519817e6a0ec631991a65ad048a8882ffe010dee273e6f3d5ec6cb177",
    "PowerSumBumpedContext": "506bbc8faa3414032f10036259c89fde10187b6fe005095584945f63bffc5484",
    "factorial_bumped_at_5": "8b28d6fe07d35c6b7b7d83c3f4c3684ca12a1e2ef4c5244dc5777b94d7f93d8d",
    "stirling2_row_bumped_at_5": "c3d6daf71eecef3a5e472acdbe164653ee33efaa3fc9fa9d3e9e425d81a4fb18",
    "stirling1_row_bumped_at_5": "6d41344048ecc09a14e3255830fc398490e17e4314f239a67b796acc65f200c6",
    "bell_bumped_at_5": "7b3adf5a75e5b376bea3d18f04855247bf89a710eb9506fdf9911a4a1ec18ecc",
    "fubini_bumped_at_5": "4757c5b0699a70fc5173d52c7f529a6b3709c695699e5c03f2bc894df896aa3d",
    "derangement_bumped_at_5": "24e277df62cf8c9e93a63729beb67941ccffcbb9cc7cdec12e835ee229fda908",
    "harmonic_bumped_at_5": "5e0ecd03cb597e4ca5aad79de7b310e6eeb2e2361d2121ace6d8f93dc2866087",
    "hyperharmonic_bumped_at_5": "9843a98cb52dccbdff09796c0df0fc92ce1e1e263f2206a85befcb500bbbb3db",
    "bernoulli_bumped_at_5": "bc784045543f312bf4135883045dfe5ffd4c4b068c17125f73a14e134717f46e",
    "euler_number_bumped_at_5": "ed812707534c56c31a611fdbafb87f4e0f8af514b2e74e3f15e3e6fb374fd474",
    "power_sum_bumped_at_5": "d7391cdb34215f48f32ede982981779340e16b4dd01986843634c98035cf5460",
    "faulhaber_bumped_at_5": "5d0d30d7ce6c978eda4bced3c04601d9b56fcc72b97b7d901673f40f04a0068e",
    "moment_bumped_at_5": "409743597648c36510ca4afe52948dddf3fcbe9a0f31c11d7d865ddd17fd4f6a",
}


@pytest.mark.parametrize("faulty", [*ROW_FAULT_ENTRIES, *TABLE_FAULT_ENTRIES], ids=lambda c: c.__name__)
def test_fault_reports_print_the_pinned_counterexamples(faulty):
    reports = run_all(ctx=faulty())
    digest = hashlib.sha256(pickle.dumps(reports, protocol=4)).hexdigest()
    assert digest == FAULT_REPORT_DIGESTS[faulty.__name__]


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


# the first index a wrong binom_3 reaches: T5's block_k is the derivative
# of binom_(k+1), so there it first reaches block_2
FIRST_BINOM_FAULT_INDEX = {"T3a": 3, "T3b": 3, "T5a": 2, "T5b": 2}


@pytest.mark.parametrize("entry", list(FIRST_BINOM_FAULT_INDEX))
def test_binom_builder_fault_breaks_binomial_entries(monkeypatch, entry):
    monkeypatch.setattr(identities, "binom_polys", _corrupt_entry(poly.binom_polys, 3))
    r = check_identity(entry, ctx=SeqContext())
    assert not r.passed
    assert min(f.params["n"] for f in r.failures) == FIRST_BINOM_FAULT_INDEX[entry]


# every entry that reads exp_polys
EXP_BUILDER_ENTRIES = {"L8", "E15", "L16", "C10", "E21", "E22"}


@pytest.mark.parametrize("entry", sorted(EXP_BUILDER_ENTRIES))
def test_exp_builder_fault_breaks_exponential_entries(monkeypatch, entry):
    monkeypatch.setattr(identities, "exp_polys", _corrupt_entry(poly.exp_polys, 4))
    r = check_identity(entry, ctx=SeqContext())
    assert not r.passed
    # the fault reaches back at most two indices (E15 reads phi_(n+2))
    assert min(f.params["n"] for f in r.failures) >= 2


def _count_products_and_combinations(monkeypatch):
    """Counts of Poly.__mul__ and registry _combine calls from here on, as
    a dict that the calls update."""
    counts = {"products": 0, "combinations": 0}
    mul = Poly.__mul__
    combine = identities._combine

    def counting(self, other):
        counts["products"] += 1
        return mul(self, other)

    def counting_combine(weights, vectors):
        counts["combinations"] += 1
        return combine(weights, vectors)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(identities, "_combine", counting_combine)
    return counts


# the most Poly products, _combine calls and xd_apply calls, together,
# that each entry may make at n <= 30.  A per-summand rebuild of the
# families makes over 20,000 products in T3b or T5b; L8 applies x d/dx
# once per index and power it reads, (n_hi + 2)(p_hi + 2) = 256 times,
# where a rebuild per summand would apply it over 1,000 times.
FAMILY_WORK_AT_30 = {"T3b": 2000, "T5b": 2000, "L8": 256}


@pytest.mark.parametrize("entry", list(FAMILY_WORK_AT_30))
def test_family_lists_bound_polynomial_products(monkeypatch, entry):
    monkeypatch.setenv(ENV_MAX_N, "30")
    counts = _count_products_and_combinations(monkeypatch)
    counts["applications"] = 0
    apply = identities.xd_apply

    def counting_apply(a, times):
        counts["applications"] += 1
        return apply(a, times)

    monkeypatch.setattr(identities, "xd_apply", counting_apply)
    r = check_identity(entry, ctx=SeqContext())
    assert r.passed and r.checked >= 31
    assert 0 < sum(counts.values()) <= FAMILY_WORK_AT_30[entry]


# (Poly products, _combine calls) of each entry that makes any, at n <= 30.
# L8 and E15 add and shift integer rows, and L16 takes its binomial sums
# by Pascal's rule; before, they made (217, 217), (95, 0) and (31, 31).
# C12 made 90 products while it rebuilt x + x^2 for each n.
POLY_WORK_AT_30 = {
    "T3a": (62, 31), "T3b": (31, 31), "T5a": (31, 31), "T5b": (0, 31),
    "C10": (0, 12), "E21": (0, 12), "E22": (0, 24), "P11": (29, 0),
    "C12": (61, 0), "L16": (31, 0),
}


def test_polynomial_entries_make_the_pinned_products_and_combinations(monkeypatch):
    # work-count guard: one pass at n <= 30, entry by entry
    monkeypatch.setenv(ENV_MAX_N, "30")
    counts = _count_products_and_combinations(monkeypatch)
    work = {}
    for spec in list_identities():
        counts.update(products=0, combinations=0)
        assert check_identity(spec.id, ctx=SeqContext()).passed, spec.id
        if any(counts.values()):
            work[spec.id] = (counts["products"], counts["combinations"])
    assert work == POLY_WORK_AT_30


# the builders whose lists a pass shares: T3a and T3b read the Euler
# polynomials and the half-weight blocks, T5a and T5b the Bernoulli
# polynomials and the reciprocal blocks, and L8, E15, C10, E21, E22 and
# L16 the exponential polynomials
SHARED_BUILDERS = ("euler_polys", "_half_blocks", "_bernoulli_polys", "_reciprocal_blocks", "exp_polys")


def _count_builds(monkeypatch):
    """Calls of each shared builder from here on, through the module
    globals the checkers read, as a dict that the calls update."""
    counts = dict.fromkeys(SHARED_BUILDERS, 0)

    def counting(name, clean):
        def build(*args):
            counts[name] += 1
            return clean(*args)

        return build

    for name in SHARED_BUILDERS:
        monkeypatch.setattr(identities, name, counting(name, getattr(identities, name)))
    return counts


def test_a_pass_builds_each_shared_family_once(monkeypatch):
    monkeypatch.delenv(ENV_MAX_N, raising=False)
    counts = _count_builds(monkeypatch)
    assert all(r.passed for r in run_all(ctx=SeqContext()))
    assert counts == dict.fromkeys(SHARED_BUILDERS, 1)
    # one entry on its own builds its own, and so does the next pass
    assert check_identity("T3b", ctx=SeqContext()).passed
    assert check_identity("T5a", ctx=SeqContext()).passed
    assert counts == {**dict.fromkeys(SHARED_BUILDERS, 1), "euler_polys": 2, "_half_blocks": 2,
                      "_bernoulli_polys": 2, "_reciprocal_blocks": 2}
    run_all(ctx=SeqContext())
    assert counts == {**dict.fromkeys(SHARED_BUILDERS, 2), "euler_polys": 3, "_half_blocks": 3,
                      "_bernoulli_polys": 3, "_reciprocal_blocks": 3}


def test_shared_families_are_tuples_that_live_as_long_as_their_pass(monkeypatch):
    import weakref

    families, handed = [], set()

    class Tracked(identities._Families):
        def __init__(self):
            super().__init__()
            families.append(weakref.ref(self))

    def recording(clean):
        def checked(ctx, run, n_lo, n_hi, polys, blocks):
            handed.update({type(polys), type(blocks)})
            return clean(ctx, run, n_lo, n_hi, polys, blocks)

        return checked

    monkeypatch.setattr(identities, "_Families", Tracked)
    for name in ("_first_kind_sums", "_second_kind_sums"):
        monkeypatch.setattr(identities, name, recording(getattr(identities, name)))
    run_all(ctx=SeqContext())
    assert handed == {tuple}
    assert len(families) == 1 and families[0]() is None  # dropped when the pass returned
    # a shorter request reads a prefix of the longest list built so far
    shared = identities._Families()
    longest = shared(poly.exp_polys, 8)
    assert type(longest) is tuple and longest == tuple(poly.exp_polys(8))
    assert shared(poly.exp_polys, 5) == longest[:6] and shared(poly.exp_polys, 8) is longest


def test_geometric_blocks_equal_direct_double_sum():
    w = Fraction(-1, 2)
    blocks = identities._geometric_blocks(poly.binom_polys(20), w)
    for k, block in enumerate(blocks):
        direct = sum(
            (w ** (k - j) * binom_poly_oracle(j) for j in range(k + 1)), Poly()
        )
        assert block == direct, k


@pytest.mark.parametrize("n", [30, 100])
def test_reciprocal_blocks_equal_the_reciprocal_weighted_sums(n):
    assert identities._reciprocal_blocks(n) == reciprocal_blocks_oracle(n)


def test_empty_effective_range_is_refused():
    with pytest.raises(ValueError, match="no instance"):
        check_identity("T1", max_n=0)
    with pytest.raises(ValueError, match="no instance"):
        check_identity("T3b", max_n=-1)
    assert check_identity("T3b", max_n=0).checked == 1


# -- the shared convolution --------------------------------------------

# every entry whose routes take a Cauchy product of two polynomials; EGF
# products and composition read the binomial rows (below), so P9, GF6,
# L4 and DIL are not among them, and L8 and E15 multiply by x as a shift
# of integer rows
CONVOLUTION_ENTRIES = {"P11", "C12", "L16"}


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


# -- the composition column step ---------------------------------------

_clean_bell_column = egf._bell_column


def _faulty_bell_column(rows, prev, k):
    out = _clean_bell_column(rows, prev, k)
    if len(out) > 2:
        out[2] += 1
    return out


# DIL is the one entry that composes series
COMPOSE_ENTRIES = {"DIL"}


def test_compose_fault_cannot_cancel_across_routes(monkeypatch):
    # composition is the second route of both substitution engines
    src = Path(egf.__file__).parent
    definitions = sum(path.read_text().count("def _bell_column(") for path in src.glob("*.py"))
    assert definitions == 1
    monkeypatch.setattr(egf, "_bell_column", _faulty_bell_column)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == COMPOSE_ENTRIES
    for substitution in (stirling_substitution, log_substitution):
        with pytest.raises(ArithmeticError):
            substitution(Egf([1, 2, 3, 4, 5]), 1, 1, SeqContext())


# -- the binomial weight rows -----------------------------------------

# the entries that multiply or compose EGFs; both substitution engines
# compose as their second route
BINOMIAL_ROWS_ENTRIES = {"P9", "GF6", "L4", "DIL"}

_clean_binomial_rows = egf._binomial_rows


def _faulty_binomial_rows(g, shift):
    # in a product the first weight of row 2 multiplies the other factor's
    # a_0, which is zero in GF6's -log(1 + t) and would mask the fault; the
    # last weight multiplies its a_2
    rows = _clean_binomial_rows(g, shift)
    if len(rows) > 2:
        rows[2][-1] += 1
    return rows


def test_binomial_rows_fault_cannot_cancel_across_routes(monkeypatch):
    # EGF products and composition share one row builder; corrupting it
    # must fail exactly the entries that call either
    src = Path(egf.__file__).parent
    definitions = sum(path.read_text().count("def _binomial_rows(") for path in src.glob("*.py"))
    assert definitions == 1
    monkeypatch.setattr(egf, "_binomial_rows", _faulty_binomial_rows)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == BINOMIAL_ROWS_ENTRIES
    for substitution in (stirling_substitution, log_substitution):
        with pytest.raises(ArithmeticError):
            substitution(Egf([1, 2, 3, 4, 5]), 1, 1, SeqContext())


# -- the series reciprocal ---------------------------------------------

# T5c and L4 take a reciprocal directly; T3a and T3b through euler_polys
RECIPROCAL_ENTRIES = {"L4", "T3a", "T3b", "T5c"}

_clean_reciprocal = egf.egf_reciprocal


def _faulty_reciprocal(f):
    coeffs = list(_clean_reciprocal(f).coeffs)
    if len(coeffs) > 2:
        coeffs[2] += 1
    return Egf(coeffs)


def test_reciprocal_fault_cannot_cancel_across_routes(monkeypatch):
    users = {
        name
        for name, module in sys.modules.items()
        if name.startswith("stirlingkit.") and getattr(module, "egf_reciprocal", None) is _clean_reciprocal
    }
    assert users == {"stirlingkit.egf", "stirlingkit.poly", "stirlingkit.identities"}
    for name in users:
        monkeypatch.setattr(sys.modules[name], "egf_reciprocal", _faulty_reciprocal)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == RECIPROCAL_ENTRIES


# -- the shared linear combination -------------------------------------

# every entry whose polynomial sums go through the combination kernel; L8
# and L16 take their binomial sums by Pascal's rule on integer rows
COMBINATION_ENTRIES = {"T3a", "T3b", "T5a", "T5b", "C10", "E21", "E22"}


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


# -- the shared transform engine ---------------------------------------

# every entry with a scalar triangle-weighted sum on one side
TRANSFORM_ENTRIES = {
    "C2", "C10", "C13", "C14", "E9", "E21", "E22", "T1", "T15", "T1b",
    "T5c", "T6a", "T6b", "T6c", "T6d", "T7",
}


_clean_transform = transform._transform


def _faulty_transform(*args, **kwargs):
    out = _clean_transform(*args, **kwargs)
    if len(out) > 5:
        out[5] += 1
    return out


def test_transform_fault_cannot_cancel_across_routes(monkeypatch):
    # every scalar Stirling-transform sum goes through the one engine, so
    # corrupting it must fail each entry that takes such a sum and both
    # substitution engines, whose direct route it is
    src = Path(transform.__file__).parent
    definitions = sum(path.read_text().count("def _transform(") for path in src.glob("*.py"))
    assert definitions == 1
    monkeypatch.setattr(transform, "_transform", _faulty_transform)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == TRANSFORM_ENTRIES
    for substitution in (stirling_substitution, log_substitution):
        with pytest.raises(ArithmeticError):
            substitution(Egf([1, 2, 3, 4, 5, 6, 7]), 1, 1, SeqContext())


# -- the integer binomial ------------------------------------------------

# the entries that fail when C(4, 2) is one too large, as measured; CBH
# reads it in its closed form's C(2j, j) at j = 2
BINOMIAL_FAULT_ENTRIES = {"C10", "C2", "CBH", "E18", "E21", "E22", "E9", "GF6", "T1", "T15", "T5a", "T5b"}

_clean_binomial = exact.binomial


def _faulty_binomial(n, k):
    return _clean_binomial(n, k) + (n == 4 and k == 2)


def test_binomial_fault_cannot_cancel_across_routes(monkeypatch):
    users = {
        name
        for name, module in sys.modules.items()
        if name.startswith("stirlingkit.") and getattr(module, "binomial", None) is _clean_binomial
    }
    # expr binds it for the C builtin, which no entry evaluates
    assert users - {"stirlingkit.expr"} == {
        "stirlingkit.exact", "stirlingkit.identities", "stirlingkit.poly", "stirlingkit.seq",
    }
    for name in users:
        monkeypatch.setattr(sys.modules[name], "binomial", _faulty_binomial)
    reports = run_all(ctx=SeqContext())
    assert [r.id for r in reports] == EXPECTED_ORDER
    assert {r.id for r in reports if not r.passed} == BINOMIAL_FAULT_ENTRIES


# the entries no pinned fault reaches; since the binomial fault reaches
# CBH, there are none
UNFAULTED_ENTRIES = set()


def test_every_entry_but_the_listed_ones_fails_under_a_pinned_fault():
    # an entry that no fault fails could stop checking anything unseen
    failed = set().union(
        *ROW_FAULT_ENTRIES.values(), *TABLE_FAULT_ENTRIES.values(), FIRST_BINOM_FAULT_INDEX,
        EXP_BUILDER_ENTRIES, CONVOLUTION_ENTRIES, COMPOSE_ENTRIES, BINOMIAL_ROWS_ENTRIES,
        RECIPROCAL_ENTRIES, COMBINATION_ENTRIES, TRANSFORM_ENTRIES, BINOMIAL_FAULT_ENTRIES,
    )
    assert failed == set(EXPECTED_ORDER) - UNFAULTED_ENTRIES


# -- the integer-row helpers of L8, E15 and L16 --------------------------

int_rows = st.lists(st.integers(-99, 99), max_size=7)


@settings(max_examples=150)
@given(st.lists(int_rows, max_size=8), st.sampled_from([1, -1]))
def test_binomial_sums_equal_the_direct_sums(rows, sign):
    got = identities._binomial_sums(rows, add if sign == 1 else sub)
    assert len(got) == len(rows)
    width = max(map(len, rows), default=0)
    for p, row in enumerate(got):
        direct = [
            sum(comb(p, j) * sign**j * r[i] for j, r in enumerate(rows[: p + 1]) if i < len(r))
            for i in range(width)
        ]
        assert list(row) + [0] * (width - len(row)) == direct, p


@settings(max_examples=150)
@given(int_rows, int_rows)
def test_shift_sub_equals_poly_arithmetic(a, b):
    assert Poly._from_nums(identities._shift_sub(a, b), 1) == Poly(a) - X * Poly(b)


def test_rows_put_every_polynomial_over_one_denominator():
    half, third = Poly([Fraction(1, 2), 1]), Poly([0, Fraction(1, 3)])
    assert identities._rows([half, third, X]) == ([[3, 6], [0, 2], [0, 6]], 6)
    assert identities._rows([X], 4) == ([[0, 4]], 4)


# -- L4's direct side ----------------------------------------------------

l4_terms = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))
l4_weights = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=80)
@given(st.lists(l4_terms, min_size=1, max_size=40), l4_weights)
def test_weighted_partial_sums_match_the_fraction_loop(g, weight):
    nums, den = exact.common_denominator(g)
    got = identities._weighted_partial_sums(nums, den, weight.numerator, weight.denominator)
    assert [Fraction(a, b) for a, b in got] == weighted_partial_sums_oracle(g, weight)


def test_check_ratios_compares_pairs_and_words_a_failure_as_fractions():
    run = identities._Run()
    run.check_ratios({"i": 0}, [(1, 2), (2, 4)], [(2, 4), (3, 6)])
    assert (run.checked, run.failures) == (1, [])
    run.check_ratios({"i": 1}, [(1, 2)], [(1, 2), (0, 1)])  # a shorter side is no vacuous pass
    run.check_ratios({"i": 2}, [(1, 3)], [(1, 2)])
    assert run.checked == 3
    assert run.failures == [({"i": 1}, "[1/2]", "[1/2, 0]"), ({"i": 2}, "[1/3]", "[1/2]")]


# Fraction.__new__ calls in one default-cap pass on a fresh context,
# counted by the test below; before the transform engine handed integer
# sums to the checkers, a pass built 7,539; before L4 and bernoulli_poly
# moved onto integers, 2,975; before E9, T5c and T6b compared the
# engine's integer sums, 2,183; before T5's blocks were taken as
# derivatives and E15 scaled x by 2 once, 2,035; and before C10, E21 and
# E22 took their scalar levels on integers, 1,988 through run_all (whose
# tolerance argument adds one Fraction per entry) and 1,953 entry by
# entry; and before a vector's scale went through the combination loop,
# which makes no Fraction of its weight, 1,713.  A change that lowers a
# count lowers its figure.
FRACTIONS_PER_PASS = 1601

# the same pass, entry by entry; an entry not named builds none
FRACTIONS_BY_ENTRY = {
    "T1": 422, "E18": 403, "L4": 118, "E9": 106, "T5c": 82, "CBH": 64, "E22": 55, "E21": 43,
    "C10": 42, "C2": 41, "T6b": 40, "T6c": 40, "T6d": 40, "T1b": 26, "T6a": 24, "GF6": 20,
    "T5a": 16, "DIL": 12, "T3a": 3, "T3b": 3, "P9": 1,
}


def test_a_default_pass_builds_no_more_fractions_than_its_budget(monkeypatch):
    # work-budget guard: a Fraction is built for a public value or a
    # failure's text, not for a hand-off between kernels and checkers
    monkeypatch.delenv(ENV_MAX_N, raising=False)
    run_all(ctx=SeqContext())  # imports and lazy set-up settle
    new = Fraction.__new__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is new:
            count += 1

    ctx = SeqContext()
    counts = {}
    previous = sys.getprofile()
    for spec in list_identities():
        count = 0
        sys.setprofile(profile)  # this thread only
        try:
            check_identity(spec.id, ctx=ctx)
        finally:
            sys.setprofile(previous)
        counts[spec.id] = count
    total = sum(counts.values())
    assert total <= FRACTIONS_PER_PASS * 11 // 10, total
    over = {k: v for k, v in counts.items() if v * 10 > FRACTIONS_BY_ENTRY.get(k, 0) * 11}
    assert over == {}, over


def test_a_pass_resolves_its_settings_once(monkeypatch):
    # the env floor, order and tolerance are the same for every entry, so
    # a pass reads the variable once and converts the tolerance once
    monkeypatch.delenv(ENV_MAX_N, raising=False)
    run_all(ctx=SeqContext())  # imports and lazy set-up settle
    reads = 0
    clean_floor = identities._env_floor

    def counting_floor():
        nonlocal reads
        reads += 1
        return clean_floor()

    monkeypatch.setattr(identities, "_env_floor", counting_floor)
    new = Fraction.__new__.__code__
    callers = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            caller = frame.f_back.f_code
            if caller.co_filename == identities.__file__:
                callers[caller.co_name] = callers.get(caller.co_name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)  # this thread only
    try:
        run_all(ctx=SeqContext())
    finally:
        sys.setprofile(previous)
    assert reads == 1
    assert sum(callers.get(name, 0) for name in ("run_all", "check_identity", "_settings")) <= 1, callers


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
