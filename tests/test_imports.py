"""Import discipline: ``import stirlingkit`` loads no submodule, each CLI
subcommand loads only the modules it runs, and the lazy package namespace
still gives every public name."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stirlingkit

SRC = str(Path(stirlingkit.__file__).resolve().parent.parent)

CLI_BASE = ["stirlingkit", "stirlingkit.cli", "stirlingkit.exact", "stirlingkit.seq"]

# Prints the stirlingkit modules loaded, and which of dataclasses and
# typing this process imported itself, after the import and after each
# main(argv) call.
PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    preloaded = set(sys.modules)

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "stirlingkit")

    def heavy():
        return [m for m in ("dataclasses", "typing") if m in sys.modules and m not in preloaded]

    import stirlingkit
    steps = [loaded()]
    import stirlingkit.cli
    steps.append([loaded(), heavy()])
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert stirlingkit.cli.main(argv) == 0
        steps.append([loaded(), heavy()])
    print(json.dumps(steps))
    """
)


def run_python(code, *args, flags=()):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return proc.stdout


def probe(*argvs, flags=()):
    return json.loads(run_python(PROBE, json.dumps(argvs), flags=flags))


def test_cli_loads_only_exact_and_seq_for_seq_and_triangle():
    bare, *steps = probe(["seq", "bell", "--n", "3"], ["seq", "euler", "--n", "3"], ["triangle", "stirling1", "--n", "3"])
    assert bare == ["stirlingkit"]
    assert steps == [[CLI_BASE, []]] * 4


def test_eval_loads_only_expr_beyond_the_cli_base():
    *_, (modules, _) = probe(["eval", "sum(k=1..4, S(4,k)*fact(k-1))"])
    assert modules == sorted(CLI_BASE + ["stirlingkit.expr"])


@pytest.mark.parametrize("argv", [["poly", "euler", "--n", "3"], ["series", "dilog", "--order", "4"]])
def test_poly_and_series_load_neither_identities_nor_expr(argv):
    *_, (modules, heavy) = probe(argv)
    assert "stirlingkit.identities" not in modules and "stirlingkit.expr" not in modules
    assert not heavy


@pytest.mark.parametrize("argv", [["verify", "--id", "T15"], ["identities"], ["eval", "sum(k=1..4, S(4,k))"]])
def test_verify_identities_and_eval_load_no_dataclasses(argv):
    *_, (_, heavy) = probe(argv)
    assert "dataclasses" not in heavy


def test_no_subcommand_loads_typing_or_dataclasses_without_site(tmp_path):
    # Without site, no .pth file can preload either module, so the probe
    # sees every import the package itself makes.
    assert run_python("import sys; print(sorted({'dataclasses', 'typing'} & set(sys.modules)))", flags=["-S"]) == "[]\n"
    numbers = tmp_path / "in.json"
    numbers.write_text('["1", "2", "3"]')
    steps = probe(["seq", "bell", "--n", "3"], ["triangle", "stirling2", "--n", "3"], ["poly", "euler", "--n", "3"],
                  ["series", "dilog", "--order", "4"], ["transform", "--kind", "stirling", "--input", str(numbers)],
                  ["verify", "--id", "T15"], ["identities"], ["eval", "sum(k=1..4, S(4,k))"], flags=["-S"])
    assert [heavy for _, heavy in steps[1:]] == [[]] * 9


def test_every_public_name_is_its_submodules_object():
    for name in stirlingkit.__all__:
        if name == "__version__":
            continue
        home = stirlingkit._HOME[name]
        assert getattr(stirlingkit, name) is getattr(getattr(stirlingkit, home), name), name
        assert name in vars(stirlingkit), name  # kept, so the next lookup skips __getattr__
    namespace = {}
    exec("from stirlingkit import *", namespace)
    assert set(stirlingkit.__all__) <= set(namespace)
    assert namespace["run_all"] is stirlingkit.identities.run_all


def test_submodules_resolve_and_unknown_names_raise():
    import importlib

    for name in ("exact", "seq", "poly", "egf", "transform", "identities", "expr"):
        assert getattr(stirlingkit, name) is importlib.import_module(f"stirlingkit.{name}")
        assert name in dir(stirlingkit)
    assert set(stirlingkit.__all__) <= set(dir(stirlingkit))
    with pytest.raises(AttributeError):
        stirlingkit.IndexedValue
    with pytest.raises(AttributeError):
        stirlingkit.no_such_name


def test_submodules_and_names_load_on_first_access_in_a_fresh_process():
    out = run_python("import stirlingkit as sk; print(sk.expr.__name__, sk.seq.context().bell(4), sk.Poly.__module__)")
    assert out == "stirlingkit.expr 15 stirlingkit.poly\n"
