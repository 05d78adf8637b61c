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
        # an imported submodule is a plain attribute, so call the hook itself
        assert stirlingkit.__getattr__(name) is importlib.import_module(f"stirlingkit.{name}")
        assert name in dir(stirlingkit)
    assert set(stirlingkit.__all__) <= set(dir(stirlingkit))
    with pytest.raises(AttributeError):
        stirlingkit.IndexedValue
    with pytest.raises(AttributeError):
        stirlingkit.no_such_name


def test_submodules_and_names_load_on_first_access_in_a_fresh_process():
    out = run_python("import stirlingkit as sk; print(sk.expr.__name__, sk.seq.context().bell(4), sk.Poly.__module__)")
    assert out == "stirlingkit.expr 15 stirlingkit.poly\n"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that no expression in
    the module reads (``from __future__`` imports excepted)."""
    import ast

    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_top_level_import_in_the_package_is_used():
    assert unused_imports("from math import comb, gcd\nfrom operator import mul\nprint(gcd)\n") == ["comb", "mul"]
    found = {path.name: unused_imports(path.read_text()) for path in Path(SRC, "stirlingkit").glob("*.py")}
    assert "seq.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level function or constant
    (one leading underscore) that no top-level statement of any source
    reads, its own definition excepted.  Checkers registered through an
    ``@_entry(...)`` decorator are reached through the registry, not by
    name, and are left out."""
    import ast

    defined = []  # (module.name, name, index of the defining statement)
    reads = []  # names each top-level statement reads
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = []
            if isinstance(node, ast.FunctionDef):
                registered = any(
                    isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_entry"
                    for d in node.decorator_list
                )
                names = [] if registered else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            reads.append({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)})
            defined += [(f"{module}.{name}", name, len(reads) - 1) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return [full for full, name, own in defined if not any(name in r for i, r in enumerate(reads) if i != own)]


def test_every_private_helper_in_the_package_is_read():
    sample = {
        "m": "def _a(): pass\ndef _b(): return _b()\n_C = 1\n@_entry(1)\ndef _d(): pass\n",
        "n": "from m import _C\ndef f(): return _C\n",
    }
    assert unread_private_names(sample) == ["m._a", "m._b"]
    sources = {path.stem: path.read_text() for path in Path(SRC, "stirlingkit").glob("*.py")}
    assert "egf" in sources
    assert unread_private_names(sources) == []
