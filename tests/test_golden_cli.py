"""Byte-for-byte CLI contract: every case in golden_cli.GOLDEN must give
exactly the recorded stdout, stderr and exit code."""

import contextlib
import io
import sys

import pytest

from stirlingkit.cli import main

from golden_cli import GOLDEN


def invoke(argv, stdin):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _case_id(case):
    stdin = f" <{case['stdin'].strip()}" if case["stdin"] else ""
    return " ".join(case["argv"]) + stdin


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_golden_cli(case):
    code, out, err = invoke(case["argv"], case["stdin"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
