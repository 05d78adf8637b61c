"""Command line front end.

Exit codes: 0 on success, 1 when verification finds a counterexample,
2 on usage errors (argparse holds up that convention on its own).
All output is deterministic: same invocation, same bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# Only exact and seq load with the command line.  Each subcommand imports
# the modules it runs, so a call pays start-up time for those alone.
from .exact import format_rational, parse_rational
from .seq import FAMILIES, context

_JSON_SEPARATORS = (",", ":")


def _dumps(data) -> str:
    return json.dumps(data, separators=_JSON_SEPARATORS)


def emit(data, fmt: str) -> str:
    """Render a value list or a row table to text.

    Value lists (list of canonical rational strings) index implicitly
    from 0; row tables are lists of dicts with a shared key order.
    """
    if all(isinstance(item, str) for item in data):
        return _emit_values(data, fmt)
    return _emit_rows(data, fmt)


def _emit_values(values: list[str], fmt: str) -> str:
    if fmt == "json":
        return _dumps(values)
    rows = [{"n": str(i), "value": v} for i, v in enumerate(values)]
    return _emit_rows(rows, fmt)


def _emit_rows(rows: list[dict], fmt: str) -> str:
    rows = [{k: str(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        return _dumps(rows)
    if not rows:
        return ""
    headers = list(rows[0])
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(row[h] for h in headers) for row in rows]
        return "\n".join(lines)
    widths = {h: max(len(h), *(len(row[h]) for row in rows)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers).rstrip()]
    for row in rows:
        lines.append("  ".join(row[h].ljust(widths[h]) for h in headers).rstrip())
    return "\n".join(lines)


def _report_dict(report) -> dict:
    data: dict = {
        "id": report.id,
        "checked": report.checked,
        "failures": [
            {"params": f.params, "lhs": f.lhs, "rhs": f.rhs} for f in report.failures
        ],
    }
    if report.notes:
        data["notes"] = list(report.notes)
    return data


def _emit_reports(reports: list, fmt: str) -> str:
    if fmt == "json":
        return _dumps([_report_dict(r) for r in reports])
    lines = []
    width = max(len(r.id) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.id.ljust(width)}  checked={r.checked}  failures={len(r.failures)}  {status}")
        for note in r.notes:
            lines.append(f"  note: {note}")
        for f in r.failures:
            params = " ".join(f"{k}={v}" for k, v in f.params.items())
            lines.append(f"  counterexample {params}: lhs={f.lhs} rhs={f.rhs}")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(reports)} identities FAILED")
    else:
        lines.append(f"all {len(reports)} identities passed")
    return "\n".join(lines)


# -- subcommand implementations --------------------------------------

_SEQ_BY_NAME = {family.cli_name: family for family in FAMILIES}

# Command-line name -> builder in stirlingkit.poly.
_POLY_FAMILIES = {
    "exponential": "exp_poly",
    "geometric": "geom_poly",
    "bernoulli": "bernoulli_poly",
    "euler": "euler_poly",
    "binomial": "binom_poly",
}


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")


def _cmd_seq(args) -> int:
    _check_n(args.n)
    ctx = context()
    family = _SEQ_BY_NAME[args.family]
    values = [
        format_rational(family(ctx, *(i if name == "n" else args.p for name in family.params)))
        for i in range(args.n + 1)
    ]
    print(emit(values, args.format))
    return 0


def _cmd_triangle(args) -> int:
    _check_n(args.n)
    ctx = context()
    row_of = ctx.stirling2_row if args.triangle == "stirling2" else ctx.stirling1_row
    rows = [{"n": n, "k": k, "value": value} for n in range(args.n + 1) for k, value in enumerate(row_of(n))]
    print(emit(rows, args.format))
    return 0


def _cmd_poly(args) -> int:
    from . import poly

    p = getattr(poly, _POLY_FAMILIES[args.family])(args.n)
    if args.format == "json":
        print(_dumps(p.to_json()))
    elif args.format == "csv":
        rows = [{"k": k, "value": format_rational(c)} for k, c in enumerate(p.coeffs)]
        print(_emit_rows(rows, "csv"))
    else:
        print(str(p))
    return 0


def _cmd_series(args) -> int:
    from .egf import egf_elementary, to_ordinary

    kwargs = {}
    if args.kind == "pow1p":
        if args.x is None:
            raise ValueError("series pow1p needs --x")
        kwargs["x"] = args.x
    if args.kind == "monomial":
        if args.c is None or args.m is None:
            raise ValueError("series monomial needs --c and --m")
        kwargs["c"] = args.c
        kwargs["m"] = args.m
    f = egf_elementary(args.kind, args.order, **kwargs)
    ordinary = to_ordinary(f)
    rows = [
        {"n": n, "egf": format_rational(a), "ordinary": format_rational(c)}
        for n, (a, c) in enumerate(zip(f.coeffs, ordinary))
    ]
    print(emit(rows, args.format))
    return 0


def _input_rational(item) -> Fraction:
    """A transform input entry: a rational string or a JSON integer.
    Booleans and floats are refused, since JSON gives them no exact
    rational meaning here."""
    if isinstance(item, str):
        return parse_rational(item)
    if isinstance(item, int) and not isinstance(item, bool):
        return Fraction(item)
    raise ValueError(f"input entries must be rational strings or integers, got {json.dumps(item)}")


def _cmd_transform(args) -> int:
    from .transform import binomial_transform, stirling_inverse, stirling_transform, weighted_stirling_transform

    if args.input is None:
        raw = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    items = json.loads(raw)
    if not isinstance(items, list):
        raise ValueError("input must be a JSON array of rational strings")
    seq = [_input_rational(item) for item in items]
    if args.kind == "stirling":
        out = stirling_transform(seq)
    elif args.kind == "inv-stirling":
        out = stirling_inverse(seq)
    elif args.kind == "binomial":
        out = binomial_transform(seq)
    elif args.kind == "alt-binomial":
        out = binomial_transform(seq, alternating=True)
    else:
        out = weighted_stirling_transform(seq, args.lam, args.mu, kind=args.weighted_kind)
    print(emit([format_rational(v) for v in out], args.format))
    return 0


# A positive rational "p/q", or a decimal such as "0.001" or "1e-12" whose
# exponent has at most four digits, so no power beyond 10^9999 is built.
_EPS_FORM = re.compile(r"\+?(?:\d+/0*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d{1,4})?)\Z")


def _parse_eps(text: str) -> Fraction:
    """--eps read exactly, never through a float."""
    s = text.strip()
    value = Fraction(s) if _EPS_FORM.match(s) else Fraction(0)
    if value == 0:
        raise ValueError(f"--eps must be a positive rational or decimal, got {text!r}")
    return value


def _cmd_verify(args) -> int:
    from .identities import check_identity, run_all

    eps = None if args.eps is None else _parse_eps(args.eps)
    if args.all:
        reports = run_all(max_n=args.max_n, series_order=args.order, eps=eps)
    else:
        reports = [check_identity(args.id, max_n=args.max_n, order=args.order, eps=eps)]
    print(_emit_reports(reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_identities(args) -> int:
    from .identities import list_identities

    rows = [
        {"id": spec.id, "kind": spec.kind, "description": spec.description}
        for spec in list_identities()
    ]
    print(emit(rows, args.format))
    return 0


def _cmd_eval(args) -> int:
    from .expr import Env, evaluate, parse

    bindings = {}
    for item in args.define:
        name, _, value = item.partition("=")
        if not name or not value:
            raise ValueError(f"bad definition {item!r}; use name=value")
        bindings[name] = parse_rational(value)
    result = evaluate(parse(args.expression), Env(bindings=bindings))
    text = format_rational(result)
    if args.format == "json":
        print(_dumps(text))
    else:
        print(text)
    return 0


# -- argument parsing ------------------------------------------------


def _add_format(p, choices=("text", "json", "csv"), default="text") -> None:
    p.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingkit",
        description="Exact sequences, polynomials, truncated series, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a named sequence from index 0 to n")
    p.add_argument("family", choices=sorted(_SEQ_BY_NAME))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=1, help="order or exponent for families that take one")
    _add_format(p)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("triangle", help="print a Stirling triangle as (n, k, value) rows")
    p.add_argument("triangle", choices=("stirling2", "stirling1"))
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_triangle)

    p = sub.add_parser("poly", help="print one polynomial of a named family")
    p.add_argument("family", choices=sorted(_POLY_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("series", help="print truncated series coefficients")
    p.add_argument("kind", choices=("exp", "expm1", "log1p", "geom", "pow1p", "dilog", "monomial"))
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--x", type=parse_rational, default=None, help="exponent for pow1p")
    p.add_argument("--c", type=parse_rational, default=None, help="coefficient for monomial")
    p.add_argument("--m", type=int, default=None, help="degree for monomial")
    _add_format(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("transform", help="transform a JSON array of rationals")
    p.add_argument(
        "--kind",
        choices=("stirling", "inv-stirling", "binomial", "alt-binomial", "weighted"),
        required=True,
    )
    p.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(1))
    p.add_argument("--mu", type=parse_rational, default=Fraction(1))
    p.add_argument("--weighted-kind", choices=("second", "first"), default="second")
    p.add_argument("--input", default=None, help="path to a JSON array; default reads stdin")
    _add_format(p, default="json")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("verify", help="check identities and report counterexamples")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--id")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--eps", default=None, help='tolerance for E30, e.g. "1/1000000" or "1e-6"')
    _add_format(p, choices=("text", "json"))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("identities", help="list the identity registry")
    _add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_identities)

    p = sub.add_parser("eval", help="evaluate an expression exactly")
    p.add_argument("expression")
    p.add_argument(
        "-D",
        "--define",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a variable to a rational",
    )
    _add_format(p, choices=("json", "text"), default="json")
    p.set_defaults(fn=_cmd_eval)

    return parser


# Options whose value is a rational and so may start with a minus sign.
_SIGNED_OPTIONS = ("--lambda", "--mu", "--x", "--c", "--eps")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _takes_signed_value(word: str) -> bool:
    # argparse also accepts any unambiguous prefix such as --lam
    return len(word) > 2 and word.startswith("--") and any(o.startswith(word) for o in _SIGNED_OPTIONS)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--mu -1/3" as "--mu=-1/3".

    argparse takes a word that starts with "-" for an option unless it
    looks like a plain negative number, so "-1/3" would otherwise leave
    --mu without its value.  Joining keeps the option word as given, so
    argparse still resolves it exactly as before.
    """
    out: list[str] = []
    for word in argv:
        if out and _SIGNED_VALUE.match(word) and _takes_signed_value(out[-1]) and "--" not in out:
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    if getattr(args, "order", None) is not None and args.command in ("verify", "series"):
        if args.order < 1 or args.order > 64:
            parser.error(f"--order must be between 1 and 64, got {args.order}")
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
