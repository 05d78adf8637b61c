"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stirlingkit.cli as cli
import stirlingkit.identities as identities
from stirlingkit import Failure, IdentityReport, SeqContext
from stirlingkit.cli import main
from stirlingkit.seq import context

FORMATS = ("text", "csv", "json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- seq / triangle / poly / series ----------------------------------


def test_seq_bell_json(capsys):
    code, out, err = run_cli(capsys, "seq", "bell", "--n", "8", "--format", "json")
    assert code == 0 and err == ""
    assert out == '["1","1","2","5","15","52","203","877","4140"]\n'


def test_seq_hyperharmonic_csv(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "hyperharmonic", "--p", "2", "--n", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "n,value\n0,0\n1,1\n2,5/2\n3,13/3\n4,77/12\n"


def test_seq_text_alignment(capsys):
    code, out, _ = run_cli(capsys, "seq", "bell", "--n", "2", "--format", "text")
    assert code == 0
    assert out == "n  value\n0  1\n1  1\n2  2\n"


def test_seq_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["seq", "tribonacci", "--n", "3"])
    assert ei.value.code == 2


def test_triangle_csv(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "stirling1", "--n", "3", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "n,k,value\n"
        "0,0,1\n"
        "1,0,0\n1,1,1\n"
        "2,0,0\n2,1,-1\n2,2,1\n"
        "3,0,0\n3,1,2\n3,2,-3\n3,3,1\n"
    )


def test_poly_json_is_coefficient_array(capsys):
    code, out, _ = run_cli(capsys, "poly", "euler", "--n", "2", "--format", "json")
    assert code == 0
    assert out == '["0","-1","1"]\n'


def test_poly_text_is_rendered_polynomial(capsys):
    code, out, _ = run_cli(capsys, "poly", "bernoulli", "--n", "2", "--format", "text")
    assert code == 0
    assert out.strip() == "1/6 - x + x^2"


def test_series_requires_family_parameters(capsys):
    code, _, err = run_cli(capsys, "series", "pow1p", "--order", "4")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    code, _, err = run_cli(capsys, "series", "monomial", "--order", "4")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


def test_series_csv(capsys):
    code, out, _ = run_cli(
        capsys, "series", "log1p", "--order", "3", "--format", "csv"
    )
    assert code == 0
    assert out == "n,egf,ordinary\n0,0,0\n1,1,1\n2,-1,-1/2\n3,2,1/3\n"


def test_series_order_bounds(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["series", "exp", "--order", "65"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", "--all", "--order", "0"])


# -- transform -------------------------------------------------------


def test_transform_stdin_round_trip(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('["1","1","2","5"]'))
    code, out, _ = run_cli(capsys, "transform", "--kind", "inv-stirling")
    assert code == 0
    assert out == '["1","1","1","1"]\n'


def test_transform_input_file(capsys, tmp_path):
    src = tmp_path / "seq.json"
    src.write_text('["1","1","1"]')
    code, out, _ = run_cli(
        capsys, "transform", "--kind", "stirling", "--input", str(src)
    )
    assert code == 0
    assert out == '["1","1","2"]\n'


def test_transform_weighted(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('["0","1","0","0"]'))
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--kind",
        "weighted",
        "--lambda",
        "2",
        "--mu",
        "1/2",
        "--weighted-kind",
        "second",
    )
    assert code == 0
    # n-th output is S(n,1) 2^(n-1) / 2
    assert out == '["0","1/2","1","2"]\n'


def test_transform_rejects_malformed_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run_cli(capsys, "transform", "--kind", "stirling")
    assert code == 2 and err.startswith("error:")


def test_transform_rejects_non_array(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"a": 1}'))
    code, _, err = run_cli(capsys, "transform", "--kind", "stirling")
    assert code == 2 and "array" in err


def test_transform_missing_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, "transform", "--kind", "stirling", "--input", str(missing))
    assert code == 2 and out == ""
    assert err == f"error: No such file or directory: {missing}\n"


def test_transform_input_directory(capsys, tmp_path):
    code, out, err = run_cli(capsys, "transform", "--kind", "stirling", "--input", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: Is a directory: {tmp_path}\n"


@pytest.mark.parametrize("via", ["input", "stdin"])
def test_transform_input_that_is_not_utf8_is_one_line_error(capsys, monkeypatch, tmp_path, via):
    raw = b"\xff\xfe"
    argv = ["transform", "--kind", "stirling"]
    if via == "input":
        src = tmp_path / "f.json"
        src.write_bytes(raw)
        argv += ["--input", str(src)]
        source = str(src)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        source = "standard input"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: not UTF-8 text (byte 0: invalid start byte): {source}\n")


@pytest.mark.parametrize("via", ["input", "stdin"])
def test_transform_deeply_nested_json_is_one_line_error(capsys, monkeypatch, tmp_path, via):
    raw = "[" * 100_000
    argv = ["transform", "--kind", "stirling"]
    if via == "input":
        src = tmp_path / "deep.json"
        src.write_text(raw)
        argv += ["--input", str(src)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: input JSON is nested too deeply\n")


# -- verify ----------------------------------------------------------


def test_verify_single_identity_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "T15", "--max-n", "30", "--format", "text"
    )
    assert code == 0
    assert out == "T15  checked=31  failures=0  PASS\nall 1 identities passed\n"


def test_verify_all_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--all", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--all", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    from stirlingkit import list_identities

    assert [r["id"] for r in reports] == [s.id for s in list_identities()]
    assert all(r["failures"] == [] for r in reports)


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "NOPE")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_requires_exactly_one_selector(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", "--all", "--id", "T1"])


def test_verify_failure_exit_code_and_counterexample(capsys, monkeypatch):
    # exercise the failure path without corrupting real arithmetic
    broken = IdentityReport(
        "T1", 4, (Failure({"n": 3, "p": 1}, "5", "7"),)
    )
    monkeypatch.setattr(identities, "check_identity", lambda *a, **kw: broken)
    code, out, _ = run_cli(capsys, "verify", "--id", "T1", "--format", "text")
    assert code == 1
    assert "FAIL" in out
    assert "n=3" in out and "p=1" in out
    assert "lhs=5" in out and "rhs=7" in out
    assert "1 of 1 identities FAILED" in out


def test_verify_failure_json_payload(capsys, monkeypatch):
    broken = IdentityReport("C2", 2, (Failure({"n": 1, "p": 0}, "1/2", "1/3"),))
    monkeypatch.setattr(identities, "run_all", lambda *a, **kw: [broken])
    code, out, _ = run_cli(capsys, "verify", "--all", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["failures"] == [
        {"params": {"n": 1, "p": 0}, "lhs": "1/2", "rhs": "1/3"}
    ]


VERIFY_FAILURE_BYTES = {
    "text": (
        "T1  checked=12  failures=0  PASS\n"
        "  note: order-0 instances rely on 0^0 = 1\n"
        "C2  checked=3  failures=2  FAIL\n"
        "  note: a note\n"
        "  counterexample n=1 p=0: lhs=1/2 rhs=1/3\n"
        "  counterexample n=4 p=2: lhs=[1, -3/2] rhs=[1]\n"
        "1 of 2 identities FAILED\n"
    ),
    "json": (
        '[{"id":"T1","checked":12,"failures":[],"notes":["order-0 instances rely on 0^0 = 1"]},'
        '{"id":"C2","checked":3,"failures":[{"params":{"n":1,"p":0},"lhs":"1/2","rhs":"1/3"},'
        '{"params":{"n":4,"p":2},"lhs":"[1, -3/2]","rhs":"[1]"}],"notes":["a note"]}]\n'
    ),
}


@pytest.mark.parametrize("fmt", list(VERIFY_FAILURE_BYTES))
def test_verify_failure_report_keeps_its_bytes(capsys, monkeypatch, fmt):
    # a passing and a failing report, with notes and two counterexamples
    reports = [
        IdentityReport("T1", 12, (), ("order-0 instances rely on 0^0 = 1",)),
        IdentityReport(
            "C2", 3,
            (Failure({"n": 1, "p": 0}, "1/2", "1/3"), Failure({"n": 4, "p": 2}, "[1, -3/2]", "[1]")),
            ("a note",),
        ),
    ]
    monkeypatch.setattr(identities, "run_all", lambda *a, **kw: reports)
    assert run_cli(capsys, "verify", "--all", "--format", fmt) == (1, VERIFY_FAILURE_BYTES[fmt], "")


def test_identities_lister(capsys):
    code, out, _ = run_cli(capsys, "identities", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 33
    assert rows[0]["id"] == "T1"
    assert {"id", "kind", "description"} <= set(rows[0])


# -- eval ------------------------------------------------------------


def test_eval_default_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "sum(k=1..4, S(4,k)*fact(k-1))")
    assert code == 0
    assert out == '"26"\n'


def test_eval_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "1/3 + 1/6", "--format", "text")
    assert code == 0
    assert out == "1/2\n"


def test_eval_with_bindings(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "sum(k=0..n, S(n,k)*(-1)^k*fact(k)*H(k))",
        "-D",
        "n=3",
    )
    assert code == 0
    assert out == '"-3"\n'


def test_eval_parse_error_position(capsys):
    code, _, err = run_cli(capsys, "eval", "1 + * 2")
    assert code == 2
    assert "line 1" in err and "column 5" in err


def test_eval_superscript_digit_is_a_syntax_error(capsys):
    # str.isdigit accepts "²" but int() does not
    code, out, err = run_cli(capsys, "eval", "2²")
    assert (code, out, err) == (2, "", "error: syntax error at line 1, column 2: illegal character '²'\n")


def test_eval_summation_cap_counts_terms_from_the_lower_bound(capsys):
    # two terms far from 0 stay under the cap, and one term past it is
    # refused with the exact count
    code, out, err = run_cli(capsys, "eval", "sum(k=10^6..10^6+1, k)")
    assert (code, out, err) == (0, '"2000001"\n', "")
    code, out, err = run_cli(capsys, "eval", "sum(k=1..10^6+1, k)")
    assert (code, out, err) == (2, "", "error: summation range has 1000001 terms; the cap is 1000000\n")


def test_eval_runtime_error(capsys):
    code, _, err = run_cli(capsys, "eval", "1/0")
    assert code == 2
    assert err.startswith("error:")


def test_eval_bad_define(capsys):
    code, _, err = run_cli(capsys, "eval", "x", "-D", "x=abc")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "x", "-D", "noequals")
    assert code == 2


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


# -- one family table for seq and the expression builtins ------------


def test_seq_families_match_expression_builtins(capsys):
    from stirlingkit import evaluate, parse
    from stirlingkit.seq import FAMILIES

    for family in FAMILIES:
        for p in (0, 1, 3) if "p" in family.params else (1,):
            code, out, _ = run_cli(
                capsys, "seq", family.cli_name, "--n", "6", "--p", str(p), "--format", "json"
            )
            assert code == 0
            args = {"p": p}
            want = []
            for n in range(7):
                args["n"] = n
                call = f"{family.expr_name}({', '.join(str(args[k]) for k in family.params)})"
                want.append(str(evaluate(parse(call))))
            assert json.loads(out) == want, family.cli_name


# -- input validation ------------------------------------------------


@pytest.mark.parametrize("command", ["seq bell", "seq hyperharmonic", "triangle stirling2"])
def test_negative_n_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--n", "-3")
    assert code == 2 and out == ""
    assert err == "error: --n must be nonnegative, got -3\n"


@pytest.mark.parametrize("entry", ["true", "0.5", "null", "[1]", '{"a": 1}'])
def test_transform_rejects_non_rational_entries(capsys, monkeypatch, entry):
    monkeypatch.setattr("sys.stdin", io.StringIO(f'["1", {entry}, "2"]'))
    code, out, err = run_cli(capsys, "transform", "--kind", "stirling")
    assert code == 2 and out == ""
    assert err.startswith("error: input entries must be rational strings or integers")
    assert err.count("\n") == 1


def test_transform_accepts_json_integers(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('[1, "1", 2, "5"]'))
    code, out, _ = run_cli(capsys, "transform", "--kind", "inv-stirling")
    assert code == 0 and out == '["1","1","1","1"]\n'


# -- no vacuous pass, exact --eps, negative rational values ----------


def test_empty_effective_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "T1", "--max-n", "0")
    assert code == 2 and out == ""
    assert err == "error: T1 has no instance in its effective range 1 <= n <= 0\n"


@pytest.mark.parametrize("eps", ["1/1000000", "1e-6", "0.000001"])
def test_eps_is_read_exactly(capsys, monkeypatch, eps):
    seen = []

    def spy(identity_id, **kw):
        seen.append(kw["eps"])
        return IdentityReport(identity_id, 1, ())

    monkeypatch.setattr(identities, "check_identity", spy)
    code, out, _ = run_cli(capsys, "verify", "--id", "E30", "--eps", eps)
    assert code == 0
    assert seen == [Fraction(1, 10**6)]
    assert type(seen[0]) is Fraction


def test_rational_eps_verifies(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "E30", "--max-n", "6", "--eps", "1/1000000")
    assert code == 0
    assert out == "E30  checked=7  failures=0  PASS\nall 1 identities passed\n"


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1", "-1/2", "1/0", "1e-99999"])
def test_bad_eps_is_one_line_usage_error(capsys, eps):
    code, out, err = run_cli(capsys, "verify", "--id", "E30", "--eps", eps)
    assert code == 2 and out == ""
    assert err.startswith("error: --eps must be") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1", "3/5", "1e9999"])
def test_eps_over_one_half_is_one_line_usage_error(capsys, eps):
    # such a tolerance could pass a wrong count, so it never prints a PASS
    code, out, err = run_cli(capsys, "verify", "--id", "E30", "--eps", eps)
    assert (code, out, err) == (2, "", "error: tolerance must be at most 1/2\n")


@pytest.mark.parametrize("option", ["--mu", "--lambda", "--lam"])
def test_negative_transform_weight_as_own_word(capsys, monkeypatch, option):
    monkeypatch.setattr("sys.stdin", io.StringIO('["0","1","0","0"]'))
    spaced = run_cli(capsys, "transform", "--kind", "weighted", option, "-1/3")
    monkeypatch.setattr("sys.stdin", io.StringIO('["0","1","0","0"]'))
    joined = run_cli(capsys, "transform", "--kind", "weighted", f"{option}=-1/3")
    assert spaced[0] == 0 and spaced == joined


def test_negative_pow1p_exponent_as_own_word(capsys):
    spaced = run_cli(capsys, "series", "pow1p", "--order", "4", "--x", "-1/2")
    assert spaced[0] == 0 and "3/8" in spaced[1]
    assert spaced == run_cli(capsys, "series", "pow1p", "--order", "4", "--x=-1/2")


def test_negative_monomial_coefficient_as_own_word(capsys):
    spaced = run_cli(capsys, "series", "monomial", "--order", "3", "--m", "2", "--c", "-3/2")
    assert spaced[0] == 0 and "-3/4" in spaced[1]
    assert spaced == run_cli(capsys, "series", "monomial", "--order", "3", "--m", "2", "--c=-3/2")


def test_signed_value_join_stops_at_double_dash():
    assert cli._attach_signed_values(["eval", "--", "--mu", "-1/3"]) == ["eval", "--", "--mu", "-1/3"]
    assert cli._attach_signed_values(["--mu", "-1/3", "--x"]) == ["--mu=-1/3", "--x"]
    assert cli._attach_signed_values(["--all", "-1/3"]) == ["--all", "-1/3"]


# -- values past the int-to-str limit, deep inputs -------------------


def test_factorial_beyond_the_int_digit_limit(capsys):
    import math
    import sys

    code, out, err = run_cli(capsys, "seq", "factorial", "--n", "1600", "--format", "csv")
    assert code == 0 and err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(math.factorial(1600))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.splitlines()[-1] == f"1600,{want}"


def test_moment_exponent_over_the_cap_is_one_line_usage_error(capsys):
    # the first row is computed before the first byte, so no format has
    # written its csv header or json bracket when the error comes
    for fmt in FORMATS:
        code, out, err = run_cli(capsys, "seq", "moment", "--n", "5", "--p", "300", "--format", fmt)
        assert (code, out, err) == (2, "", "error: moment exponent 300 exceeds the cap 256\n")
    code, out, err = run_cli(capsys, "seq", "moment", "--n", "0", "--p", "1500")
    assert code == 2 and out == ""
    assert err == "error: moment exponent 1500 exceeds the cap 256\n"


def test_triangle_entries_beyond_the_int_digit_limit(capsys):
    # s(400, 1) = -399! has 868 digits; str() refuses it under a limit of
    # 640, and format_rational does not
    import sys

    want = run_cli(capsys, "triangle", "stirling1", "--n", "400", "--format", "csv")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = run_cli(capsys, "triangle", "stirling1", "--n", "400", "--format", "csv")
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert want[0] == 0 and len(want[1].splitlines()[-400]) > 640


def test_deep_nesting_is_one_line_parse_error(capsys):
    code, out, err = run_cli(capsys, "eval", "(" * 1200 + "1" + ")" * 1200)
    assert code == 2 and out == ""
    assert err.startswith("error: syntax error at line 1, column 101: nesting deeper than 100 levels")
    assert err.count("\n") == 1


def test_long_flat_chain_evaluates(capsys):
    code, out, err = run_cli(capsys, "eval", "+".join(["1"] * 1200))
    assert (code, out, err) == (0, '"1200"\n', "")


def test_power_over_the_width_cap_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "eval", "2^(3*10^6)")
    assert code == 2 and out == ""
    assert err == "error: power would be wider than the cap of 1048576 bits\n"


# -- last resorts --------------------------------------------------------


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError, "error: out of memory\n"),  # bare: no message of its own
        (RecursionError("maximum recursion depth exceeded"), "error: maximum recursion depth exceeded\n"),
    ],
    ids=["memory", "recursion"],
)
def test_exhausted_memory_or_stack_is_one_line_usage_error(capsys, monkeypatch, error, message):
    def exhausted(self, n):
        raise error

    monkeypatch.setattr(SeqContext, "bell", exhausted)
    for fmt in FORMATS:
        code, out, err = run_cli(capsys, "seq", "bell", "--n", "3", "--format", fmt)
        assert "Traceback" not in err and err.count("\n") == 1
        assert (code, out, err) == (2, "", message)


def test_a_closed_stdout_ends_quietly_with_exit_0(capsys, monkeypatch):
    class ClosingPipe:
        """Takes ``writes`` writes, then is closed by its reader."""

        def __init__(self, writes):
            self.writes = writes

        def write(self, text):
            if not self.writes:
                raise BrokenPipeError(32, "Broken pipe")
            self.writes -= 1
            return len(text)

        def flush(self):
            pass

    for writes in (0, 1):  # closed before anything, or after the first write
        for fmt in FORMATS:
            pipe = ClosingPipe(writes)
            monkeypatch.setattr("sys.stdout", pipe)
            assert main(["seq", "bell", "--n", "600", "--format", fmt]) == 0  # more than one write
            assert pipe.writes == 0
            assert capsys.readouterr().err == ""


# -- streamed output -----------------------------------------------------

# sha256 of stdout: the bell and triangle outputs were recorded when each
# command built its whole output before printing it, and the Bernoulli,
# Euler and moment outputs before the registry's convolution levels moved
# onto integers
STDOUT_SHA256 = {
    ("seq", "bell", "--n", "400", "--format", "text"):
        "ba532d51b0f145fb9224867f670d48e6a62cb6f91ecdc1659f59d54834bd0b65",
    ("seq", "bell", "--n", "400", "--format", "csv"):
        "8d287b9ebff783b0d5f95963a1f757ba688cae0c33e2d80736c7eddaaa5f6e95",
    ("seq", "bell", "--n", "400", "--format", "json"):
        "c2bffecc64354a551890d90e60eaa4efcbe1666bec043ad41dac74c35a3d4612",
    ("triangle", "stirling2", "--n", "60", "--format", "text"):
        "b0fa107a41f88de63a14da1c43fbaf2481a507c0aa8e329082042f45d352dde4",
    ("triangle", "stirling2", "--n", "60", "--format", "csv"):
        "8892b60eb73b8be590b7dccdd11fbc595ef24cdeb6df401a1a9a7a654ba7f258",
    ("triangle", "stirling2", "--n", "60", "--format", "json"):
        "ec7b1d5cd3172b30bf40d07069bed1f9a062107aa0e248122a933e189568330b",
    ("seq", "bernoulli", "--n", "600"):
        "2828987f2c378073dd777726bfe253b4cb8afb451f663c97b4414803934df41e",
    ("seq", "euler", "--n", "600"):
        "7e95ab6e8222cd6cb17cef3fd84833f81c08e73b52b979df88404173dd066b0c",
    ("eval", "B(1000)"):
        "1dc2210cd675fb0ff0e2460f5605d6ec7036285b50cff0760966a54db436ae83",
    ("seq", "moment", "--n", "60", "--p", "7"):
        "e1af5c2565cf5ecc94b76e8119bf2746405d873cd3d538cb3db0e36be3ab9100",
    ("verify", "--all", "--format", "text"):
        "7d8c5ac1c82063902cf82dca6fa8fdf72d17476b419c023d6b0ed9fe85b4e062",
    ("verify", "--all", "--format", "json"):
        "326f8add2a6de9db9f5610ab6d9703e07cda3043652d1c289336e314e3978972",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_large_outputs_keep_their_bytes(capsys, argv):
    import hashlib

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_streamed_json_equals_the_whole_list_encoded():
    # chunks of 256 items are encoded one at a time; 600 items take three
    items = ["1", "-3/2", 'a "quoted" \\ é', {"n": "0", "value": "1"}, [], *map(str, range(595))]
    for k in (0, 1, 2, 5, 255, 256, 257, 512, 513, 600):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_json_array(iter(items[:k]))
        assert out.getvalue() == json.dumps(items[:k], separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fmt, bound_mb", [("csv", 1), ("json", 1), ("text", 12)])
def test_a_triangle_streams_without_holding_its_output(fmt, bound_mb):
    # csv and json hold one chunk of 256 rows at a time; text holds every
    # row's strings for the column widths, but no dict per entry and no
    # joined output.  Before streaming, each format peaked at 20.4 MB here
    import tracemalloc

    class Discard:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    context().stirling1_row(200)  # the rows are the context's, not the writer's
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            assert main(["triangle", "stirling1", "--n", "200", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


# -- interrupts ------------------------------------------------------


def test_sigint_ends_a_call_with_one_line_and_exit_130():
    # the shell's exit code for SIGINT, and one stderr line, not a traceback
    src = str(Path(cli.__file__).resolve().parent.parent)
    argv = ["seq", "harmonic", "--n", "20000", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-c", "from stirlingkit.cli import run; run()", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.readline() == b"n,value\n"  # the call is writing its rows
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (130, b"error: interrupted\n")
