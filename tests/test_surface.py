"""The public surface, pinned: every name the package exports, the
signature of each exported function and class and of their public
methods, every command-line option with its choices and default, and
every environment variable the package reads.  A change that adds,
drops or reshapes any of these fails here and updates the snapshot on
purpose."""

import argparse
import ast
import inspect
from pathlib import Path

import stirlingkit
from stirlingkit.cli import build_parser

PACKAGE = Path(stirlingkit.__file__).resolve().parent


def _signature(obj) -> str:
    if inspect.isclass(obj) and issubclass(obj, Exception) and "__init__" not in vars(obj):
        # a builtin __init__ has no signature; its bases say how it is raised
        return "subclass of " + ", ".join(base.__name__ for base in obj.__bases__)
    return str(inspect.signature(obj))


def api_surface() -> dict[str, str]:
    """Signature of each exported function and class, and of each public
    method or property a class defines or inherits from the package."""
    out = {}
    for name in stirlingkit.__all__:
        obj = getattr(stirlingkit, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        out[name] = _signature(obj)
        if not inspect.isclass(obj):
            continue
        for owner in reversed(obj.__mro__):
            if not owner.__module__.startswith("stirlingkit"):
                continue
            for attr, value in vars(owner).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, property):
                    out[f"{name}.{attr}"] = "property"
                elif callable(value):
                    out[f"{name}.{attr}"] = str(inspect.signature(value))
    return out


def _options(parser) -> dict[str, tuple]:
    return {
        "/".join(action.option_strings) or action.dest: (
            None if action.choices is None else tuple(action.choices),
            repr(action.default),
        )
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


def cli_surface() -> dict[str, dict[str, tuple]]:
    """(choices, repr of the default) of every option of every subcommand."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": _options(parser), **{name: _options(p) for name, p in commands.choices.items()}}


def environment_reads() -> list[str]:
    """The key of each read of the environment in the package's source:
    ``os.environ[key]``, ``os.environ.get(key)`` or ``os.getenv(key)``, with
    a literal key or a module-level string constant.  Any other use of
    ``os.environ`` or ``os.getenv`` reads as "?", so none goes unseen."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def key(arg):
            if isinstance(arg, ast.Constant):
                return arg.value
            return constants.get(arg.id, "?") if isinstance(arg, ast.Name) else "?"

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += ["?" for alias in node.names if alias.name in ("environ", "getenv", "*")]
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in ("environ", "getenv")):
                continue
            up = parent[node]
            if node.attr == "getenv" and isinstance(up, ast.Call) and up.args:
                reads.append(key(up.args[0]))
            elif node.attr == "environ" and isinstance(up, ast.Subscript):
                reads.append(key(up.slice))
            elif (node.attr == "environ" and isinstance(up, ast.Attribute) and up.attr == "get"
                  and isinstance(parent[up], ast.Call) and parent[up].args):
                reads.append(key(parent[up].args[0]))
            else:
                reads.append("?")
    return reads


API = {
    "binomial": "(n: 'int', k: 'int') -> 'int'",
    "binomial_rational": "(x: 'Fraction | int', k: 'int') -> 'Fraction'",
    "factorial": "(n: 'int') -> 'int'",
    "format_rational": "(x: 'Fraction | int') -> 'str'",
    "parse_rational": "(text: 'str') -> 'Fraction'",
    "SeqContext": "() -> 'None'",
    "SeqContext.stirling2": "(self, n: 'int', k: 'int') -> 'int'",
    "SeqContext.stirling1": "(self, n: 'int', k: 'int') -> 'int'",
    "SeqContext.stirling2_row": "(self, n: 'int') -> 'tuple[int, ...]'",
    "SeqContext.stirling1_row": "(self, n: 'int') -> 'tuple[int, ...]'",
    "SeqContext.factorial": "(self, n: 'int') -> 'int'",
    "SeqContext.bell": "(self, n: 'int') -> 'int'",
    "SeqContext.fubini": "(self, n: 'int') -> 'int'",
    "SeqContext.derangement": "(self, n: 'int') -> 'int'",
    "SeqContext.harmonic": "(self, n: 'int') -> 'Fraction'",
    "SeqContext.hyperharmonic": "(self, p: 'int', n: 'int') -> 'Fraction'",
    "SeqContext.bernoulli": "(self, n: 'int') -> 'Fraction'",
    "SeqContext.bernoulli_plus": "(self, n: 'int') -> 'Fraction'",
    "SeqContext.euler_number": "(self, n: 'int') -> 'Fraction'",
    "SeqContext.power_sum": "(self, p: 'int', n: 'int') -> 'int'",
    "SeqContext.faulhaber": "(self, p: 'int', n: 'int') -> 'Fraction'",
    "SeqContext.moment": "(self, n: 'int', p: 'int') -> 'int'",
    "Poly": "(coeffs=()) -> 'None'",
    "Poly.coeffs": "property",
    "Poly.scale": "(self, c)",
    "Poly.degree": "property",
    "Poly.derivative": '(self) -> "\'Poly\'"',
    "bernoulli_poly": "(n: 'int', ctx: 'SeqContext | None' = None) -> 'Poly'",
    "binom_poly": "(k: 'int') -> 'Poly'",
    "euler_poly": "(n: 'int') -> 'Poly'",
    "exp_poly": "(n: 'int') -> 'Poly'",
    "geom_poly": "(n: 'int', ctx: 'SeqContext | None' = None) -> 'Poly'",
    "xd_apply": "(a: 'Poly', times: 'int') -> 'Poly'",
    "Egf": "(coeffs=()) -> 'None'",
    "Egf.coeffs": "property",
    "Egf.scale": "(self, c)",
    "Egf.order": "property",
    "OrderMismatchError": "subclass of ValueError",
    "dilog_series": "(order: 'int') -> 'Egf'",
    "egf_compose": "(f: 'Egf', g: 'Egf') -> 'Egf'",
    "egf_elementary": "(kind: 'str', order: 'int', *, x=None, c=None, m=None) -> 'Egf'",
    "egf_mul": "(f: 'Egf', g: 'Egf') -> 'Egf'",
    "egf_reciprocal": "(f: 'Egf') -> 'Egf'",
    "exp_series": "(order: 'int', scale=1) -> 'Egf'",
    "expm1_series": "(order: 'int', scale=1) -> 'Egf'",
    "from_ordinary": "(coeffs) -> 'Egf'",
    "geom_series": "(order: 'int') -> 'Egf'",
    "log1p_series": "(order: 'int', scale=1) -> 'Egf'",
    "log_substitution": "(f: 'Egf', lam, mu, ctx: 'SeqContext | None' = None) -> 'list[Fraction]'",
    "monomial_series": "(c, m: 'int', order: 'int') -> 'Egf'",
    "ordinary_mul": "(a, b) -> 'list[Fraction]'",
    "pow1p_series": "(x, order: 'int') -> 'Egf'",
    "stirling_substitution": "(f: 'Egf', lam, mu, ctx: 'SeqContext | None' = None) -> 'list[Fraction]'",
    "to_ordinary": "(f: 'Egf') -> 'tuple[Fraction, ...]'",
    "binomial_transform": "(a, alternating: 'bool' = False) -> 'list[Fraction]'",
    "stirling_inverse": "(b, ctx: 'SeqContext | None' = None) -> 'list[Fraction]'",
    "stirling_transform": "(a, ctx: 'SeqContext | None' = None) -> 'list[Fraction]'",
    "weighted_stirling_transform": "(a, lam, mu, kind: 'str' = 'second', ctx: 'SeqContext | None' = None) -> "
                                   "'list[Fraction]'",
    "Failure": "(params, lhs, rhs)",
    "IdentityReport": "(id, checked, failures, notes=())",
    "IdentityReport.passed": "property",
    "IdentitySpec": "(id, description, kind, routes, n_range=None, p_max=None)",
    "check_identity": "(identity_id: 'str', ctx: 'SeqContext | None' = None, max_n: 'int | None' = None, order: "
                      "'int | None' = None, eps: 'Fraction | float | None' = None) -> 'IdentityReport'",
    "list_identities": "() -> 'list[IdentitySpec]'",
    "run_all": "(max_n: 'int | None' = None, series_order: 'int' = 12, eps: 'Fraction | float' = Fraction(1, "
               "1000000000000), ctx: 'SeqContext | None' = None) -> 'list[IdentityReport]'",
    "Env": "(bindings: 'dict[str, Fraction] | None' = None, ctx: 'SeqContext | None' = None)",
    "EvalError": "subclass of ExprError",
    "ExprError": "subclass of ValueError",
    "ParseError": "(message: 'str', line: 'int', col: 'int', expected: 'frozenset[str]' = frozenset())",
    "evaluate": "(node, env: 'Env | None' = None) -> 'Fraction'",
    "parse": "(src: 'str')",
    "to_source": "(node) -> 'str'",
}

CLI = {
    "": {},
    "seq": {"family": (("bell", "bernoulli", "bernoulli-plus", "derangement", "euler", "factorial", "fubini",
                        "harmonic", "hyperharmonic", "moment", "power-sum"), "None"),
            "--n": (None, "None"),
            "--p": (None, "1"),
            "--format": (("text", "json", "csv"), "'text'")},
    "triangle": {"triangle": (("stirling2", "stirling1"), "None"),
                 "--n": (None, "None"),
                 "--format": (("text", "json", "csv"), "'text'")},
    "poly": {"family": (("bernoulli", "binomial", "euler", "exponential", "geometric"), "None"),
             "--n": (None, "None"),
             "--format": (("text", "json", "csv"), "'text'")},
    "series": {"kind": (("exp", "expm1", "log1p", "geom", "pow1p", "dilog", "monomial"), "None"),
               "--order": (None, "12"),
               "--x": (None, "None"),
               "--c": (None, "None"),
               "--m": (None, "None"),
               "--format": (("text", "json", "csv"), "'text'")},
    "transform": {"--kind": (("stirling", "inv-stirling", "binomial", "alt-binomial", "weighted"), "None"),
                  "--lambda": (None, "Fraction(1, 1)"),
                  "--mu": (None, "Fraction(1, 1)"),
                  "--weighted-kind": (("second", "first"), "'second'"),
                  "--input": (None, "None"),
                  "--format": (("text", "json", "csv"), "'json'")},
    "verify": {"--all": (None, "False"),
               "--id": (None, "None"),
               "--max-n": (None, "None"),
               "--order": (None, "12"),
               "--eps": (None, "None"),
               "--format": (("text", "json"), "'text'")},
    "identities": {"--format": (("text", "json", "csv"), "'text'")},
    "eval": {"expression": (None, "None"),
             "-D/--define": (None, "[]"),
             "--format": (("json", "text"), "'json'")},
}


def test_public_surface_matches_the_snapshot():
    assert stirlingkit.__all__ == [
        "binomial", "binomial_rational", "factorial", "format_rational", "parse_rational", "SeqContext",
        "ONE", "Poly", "X", "ZERO", "bernoulli_poly", "binom_poly", "euler_poly", "exp_poly", "geom_poly",
        "xd_apply", "Egf", "OrderMismatchError", "dilog_series", "egf_compose", "egf_elementary",
        "egf_mul", "egf_reciprocal", "exp_series", "expm1_series", "from_ordinary", "geom_series",
        "log1p_series", "log_substitution", "monomial_series", "ordinary_mul", "pow1p_series",
        "stirling_substitution", "to_ordinary", "binomial_transform", "stirling_inverse",
        "stirling_transform", "weighted_stirling_transform", "Failure", "IdentityReport", "IdentitySpec",
        "check_identity", "list_identities", "run_all", "Env", "EvalError", "ExprError", "ParseError",
        "evaluate", "parse", "to_source", "__version__",
    ]
    assert api_surface() == API
    assert cli_surface() == CLI
    assert environment_reads() == ["STIRLINGKIT_MAX_N"]
