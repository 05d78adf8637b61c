"""Exact-arithmetic toolkit for Stirling-transform combinatorics.

Everything computes over unbounded integers and exact rationals: the two
Stirling triangles and the sequences built from them, the classical
polynomial families, truncated exponential generating functions, the
Stirling and binomial transforms, a registry of mechanically verified
identities, and a small expression language.  The command line lives in
``stirlingkit.cli`` (``main`` and the console entry point ``run``) and is
not imported here.
"""

from .exact import (
    binomial,
    binomial_rational,
    factorial,
    format_rational,
    int_pow,
    parse_rational,
)
from .seq import IndexedValue, SeqContext
from .poly import (
    ONE,
    Poly,
    X,
    ZERO,
    bernoulli_poly,
    binom_poly,
    euler_poly,
    exp_poly,
    geom_poly,
    xd_apply,
)
from .egf import (
    Egf,
    OrderMismatchError,
    dilog_series,
    egf_compose,
    egf_derivative,
    egf_elementary,
    egf_integrate,
    egf_mul,
    egf_reciprocal,
    egf_truncate,
    exp_series,
    expm1_series,
    from_ordinary,
    geom_series,
    log1p_series,
    log_substitution,
    monomial_series,
    ordinary_mul,
    pow1p_series,
    stirling_substitution,
    to_ordinary,
)
from .transform import (
    binomial_transform,
    stirling_inverse,
    stirling_transform,
    weighted_stirling_transform,
)
from .identities import (
    Failure,
    IdentityReport,
    IdentitySpec,
    check_identity,
    list_identities,
    run_all,
)
from .expr import Env, EvalError, ExprError, ParseError, evaluate, parse, to_source

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "binomial_rational",
    "factorial",
    "format_rational",
    "int_pow",
    "parse_rational",
    "IndexedValue",
    "SeqContext",
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
    "Egf",
    "OrderMismatchError",
    "dilog_series",
    "egf_compose",
    "egf_derivative",
    "egf_elementary",
    "egf_integrate",
    "egf_mul",
    "egf_reciprocal",
    "egf_truncate",
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
    "binomial_transform",
    "stirling_inverse",
    "stirling_transform",
    "weighted_stirling_transform",
    "Failure",
    "IdentityReport",
    "IdentitySpec",
    "check_identity",
    "list_identities",
    "run_all",
    "Env",
    "EvalError",
    "ExprError",
    "ParseError",
    "evaluate",
    "parse",
    "to_source",
    "__version__",
]
