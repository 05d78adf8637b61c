"""Exact-arithmetic toolkit for Stirling-transform combinatorics.

Everything computes over unbounded integers and exact rationals: the two
Stirling triangles and the sequences built from them, the classical
polynomial families, truncated exponential generating functions, the
Stirling and binomial transforms, a registry of mechanically verified
identities, and a small expression language.  The command line lives in
``stirlingkit.cli`` (``main`` and the console entry point ``run``) and is
not imported here.

Importing the package imports none of its submodules.  Each public name
below is looked up in its submodule on first access (PEP 562), so a
program pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it provides.
_EXPORTS = {
    "exact": (
        "binomial",
        "binomial_rational",
        "factorial",
        "format_rational",
        "parse_rational",
    ),
    "seq": ("SeqContext",),
    "poly": (
        "ONE",
        "Poly",
        "X",
        "ZERO",
        "bernoulli_poly",
        "binom_poly",
        "euler_poly",
        "exp_poly",
        "geom_poly",
        "xd_apply",
    ),
    "egf": (
        "Egf",
        "OrderMismatchError",
        "dilog_series",
        "egf_compose",
        "egf_elementary",
        "egf_mul",
        "egf_reciprocal",
        "exp_series",
        "expm1_series",
        "from_ordinary",
        "geom_series",
        "log1p_series",
        "log_substitution",
        "monomial_series",
        "ordinary_mul",
        "pow1p_series",
        "stirling_substitution",
        "to_ordinary",
    ),
    "transform": (
        "binomial_transform",
        "stirling_inverse",
        "stirling_transform",
        "weighted_stirling_transform",
    ),
    "identities": (
        "Failure",
        "IdentityReport",
        "IdentitySpec",
        "check_identity",
        "list_identities",
        "run_all",
    ),
    "expr": ("Env", "EvalError", "ExprError", "ParseError", "evaluate", "parse", "to_source"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import the submodule that provides ``name`` and keep the value here,
    so the next lookup is an ordinary global one."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
