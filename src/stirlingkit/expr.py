"""A small exact expression language over integers and rationals.

Grammar, with precedence ^ above unary minus above * / above + - and
with ^ right-associative:

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := INT | IDENT "(" args? ")" | IDENT | "(" expr ")"
           | "sum" "(" IDENT "=" expr ".." expr "," expr ")"
    args  := expr ("," expr)*

There are no rational literals: "/" is exact division, so 1/3 already
denotes the exact rational.  Summation is an inclusive fold whose empty
range is 0; ranges are capped at 1_000_000 terms, and nesting at 100
levels.  Exponents must evaluate to nonnegative integers, with 0^0 = 1,
and a power may be at most about 2^20 bits wide.  Chains of + - or * /
have no length cap: they evaluate and print by a loop, not recursion.
Each evaluation compiles the tree once into closures; integral values
stay ints while they run, and the result is a Fraction.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction

from .exact import binomial
from .seq import FAMILIES, SeqContext, context

SUM_TERM_CAP = 1_000_000
# Parentheses, unary minus, exponents and call arguments may nest this
# deep, which keeps parsing, evaluation and printing well inside the
# interpreter's recursion limit.
NESTING_CAP = 100
# A power wider than this many bits (numerator and denominator together,
# by the estimate in _power_bits) is refused before it is computed:
# printing a value about this wide already takes a second.
POWER_BITS_CAP = 2**20


class ExprError(ValueError):
    """A parse or evaluation error; a ValueError like the sequence layer's
    domain errors, so one handler reports both."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        where = f"line {line}, column {col}"
        if expected:
            hint = ", ".join(sorted(expected))
            super().__init__(f"syntax error at {where}: {message} (expected {hint})")
        else:
            super().__init__(f"syntax error at {where}: {message}")


class EvalError(ExprError):
    pass


# -- tokens ----------------------------------------------------------

_PUNCT = ("..", "+", "-", "*", "/", "^", "(", ")", ",", "=")

# kind is "int", "ident", "eof", or the punctuation itself
Token = namedtuple("Token", "kind text line col")


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if src.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                col += len(punct)
                i += len(punct)
                break
        else:
            raise ParseError(f"illegal character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- syntax tree -----------------------------------------------------

IntLit = namedtuple("IntLit", "value")
Var = namedtuple("Var", "name")
Neg = namedtuple("Neg", "operand")
BinOp = namedtuple("BinOp", "op left right")  # op is one of + - * / ^
Call = namedtuple("Call", "name args")  # args is a tuple of nodes
Sum = namedtuple("Sum", "var lo hi body")


# -- parser ----------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected: frozenset[str]) -> None:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(f"{message}, found {found}", tok.line, tok.col, expected)

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            self.fail(f"expected {kind!r}", frozenset({kind}))
        return self.take()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        # every nesting path passes through here, so this bounds recursion
        if self.depth == NESTING_CAP:
            self.fail(f"nesting deeper than {NESTING_CAP} levels", frozenset())
        self.depth += 1
        try:
            if self.peek().kind == "-":
                self.take()
                return Neg(self.parse_unary())
            return self.parse_power()
        finally:
            self.depth -= 1

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return IntLit(int(tok.text))
        if tok.kind == "(":
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.take()
            if tok.text == "sum" and self.peek().kind == "(":
                return self.parse_sum()
            if self.peek().kind == "(":
                self.take()
                args = []
                if self.peek().kind != ")":
                    args.append(self.parse_expr())
                    while self.peek().kind == ",":
                        self.take()
                        args.append(self.parse_expr())
                self.expect(")")
                return Call(tok.text, tuple(args))
            return Var(tok.text)
        self.fail("expected a value", frozenset({"int", "ident", "(", "-", "sum"}))

    def parse_sum(self):
        self.expect("(")
        var = self.expect("ident").text
        self.expect("=")
        lo = self.parse_expr()
        self.expect("..")
        hi = self.parse_expr()
        self.expect(",")
        body = self.parse_expr()
        self.expect(")")
        return Sum(var, lo, hi, body)


def parse(src: str):
    """Parse a complete expression; trailing input is an error."""
    parser = _Parser(tokenize(src))
    node = parser.parse_expr()
    if parser.peek().kind != "eof":
        parser.fail("expected end of input", frozenset({"eof"}))
    return node


# -- evaluation ------------------------------------------------------


class Env:
    """Variable bindings plus the sequence context builtins draw from;
    ``ctx=None`` means the process-wide default context."""

    __slots__ = ("bindings", "ctx")

    def __init__(self, bindings: dict[str, Fraction] | None = None, ctx: SeqContext | None = None):
        self.bindings = {} if bindings is None else bindings
        self.ctx = context(ctx)


# (arity, function of ctx and the arguments) by name: the triangles and
# binomials here, then every sequence family of seq.FAMILIES.
_BUILTINS = {
    "S": (2, lambda ctx, n, k: ctx.stirling2(n, k)),
    "s": (2, lambda ctx, n, k: ctx.stirling1(n, k)),
    "C": (2, lambda ctx, n, k: binomial(n, k)),
    **{family.expr_name: (len(family.params), family) for family in FAMILIES},
}


def _num(value):
    """An exact value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _as_int(value, what: str) -> int:
    if type(value) is not int:
        raise EvalError(f"{what} must be an integer, got {value}")
    return value


def evaluate(node, env: Env | None = None) -> Fraction:
    """Evaluate a syntax tree to an exact rational.

    Domain errors from the sequence layer (negative indices and the
    like) propagate as ValueError; language-level problems raise
    EvalError.
    """
    if env is None:
        env = Env()
    return Fraction(_compile(node)(env.bindings, env.ctx))


def _chain(node):
    """Split a left-deep chain of + - (or of * /) into its first operand
    and the (operator, operand) pairs that follow it, in source order."""
    group = ("+", "-") if node.op in ("+", "-") else ("*", "/")
    tail = []
    while isinstance(node, BinOp) and node.op in group:
        tail.append((node.op, node.right))
        node = node.left
    tail.reverse()
    return node, tail


def _power_bits(base: Fraction | int, e: int) -> int:
    """An upper bound on log2 |n^e| summed over the numerator and the
    denominator: e * ceil(log2 |n|) each, so 0 for 0 and 1, and exact for
    powers of two."""
    return e * sum(max(abs(n) - 1, 0).bit_length() for n in (base.numerator, base.denominator))


def _divide(a, b):
    if b == 0:
        raise EvalError("division by zero")
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


_STEPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _fail(message: str):
    def fail(b, ctx):
        raise EvalError(message)
    return fail


def _compile(node):
    """Compile a syntax tree into a closure f(bindings, ctx) that returns
    its value, an int when integral and else a Fraction.  Dispatch, chain
    flattening, builtin lookup and messages are done here, once; an error
    found here compiles to a closure that raises only when reached."""
    if isinstance(node, IntLit):
        value = _num(node.value)
        return lambda b, ctx: value
    if isinstance(node, Var):
        name = node.name

        def var(b, ctx):
            if name not in b:
                raise EvalError(f"unbound variable {name!r}")
            return _num(b[name])
        return var
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda b, ctx: -operand(b, ctx)
    if isinstance(node, BinOp) and node.op == "^":
        base, exponent = _compile(node.left), _compile(node.right)

        def power(b, ctx):
            left = base(b, ctx)
            e = _as_int(exponent(b, ctx), "exponent")
            if e < 0:
                raise EvalError(f"exponent must be nonnegative, got {e}")
            if _power_bits(left, e) > POWER_BITS_CAP:
                raise EvalError(f"power would be wider than the cap of {POWER_BITS_CAP} bits")
            return _num(left**e)
        return power
    if isinstance(node, BinOp):
        if node.op not in _STEPS:
            return _fail(f"unknown operator {node.op!r}")
        first, tail = _chain(node)
        head = _compile(first)
        steps = [(_STEPS[op], _compile(operand)) for op, operand in tail]

        def chain(b, ctx):
            acc = head(b, ctx)
            for step, operand in steps:
                acc = _num(step(acc, operand(b, ctx)))
            return acc
        return chain
    if isinstance(node, Call):
        if node.name not in _BUILTINS:
            return _fail(f"unknown function {node.name!r}")
        arity, fn = _BUILTINS[node.name]
        if len(node.args) != arity:
            return _fail(f"{node.name} takes {arity} argument(s), got {len(node.args)}")
        args = [_compile(a) for a in node.args]
        what = f"argument of {node.name}"
        return lambda b, ctx: _num(fn(ctx, *[_as_int(a(b, ctx), what) for a in args]))
    if isinstance(node, Sum):
        var, lo, hi, body = node.var, _compile(node.lo), _compile(node.hi), _compile(node.body)

        def total(b, ctx):
            first = _as_int(lo(b, ctx), "summation lower bound")
            last = _as_int(hi(b, ctx), "summation upper bound")
            if last < first:
                return 0
            if last - first >= SUM_TERM_CAP:
                raise EvalError(f"summation range has {last - first + 1} terms; the cap is {SUM_TERM_CAP}")
            saved = {var: b[var]} if var in b else {}
            acc = 0
            try:
                for i in range(first, last + 1):
                    b[var] = i
                    acc += body(b, ctx)
            finally:
                b.pop(var, None)
                b.update(saved)
            return _num(acc)
        return total
    return _fail(f"cannot evaluate node {node!r}")


# -- pretty printer --------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node) -> int:
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _LEVEL_ADD
        if node.op in ("*", "/"):
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _render(node, min_level: int) -> str:
    text = _render_raw(node)
    if _level(node) < min_level:
        return f"({text})"
    return text


def _render_raw(node) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _render(node.operand, _LEVEL_UNARY)
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _render_chain(node, _LEVEL_ADD, _LEVEL_MUL, " {} ")
        if node.op in ("*", "/"):
            return _render_chain(node, _LEVEL_MUL, _LEVEL_UNARY, "{}")
        return f"{_render(node.left, _LEVEL_ATOM)}^{_render(node.right, _LEVEL_UNARY)}"
    if isinstance(node, Call):
        inside = ", ".join(_render(a, _LEVEL_ADD) for a in node.args)
        return f"{node.name}({inside})"
    if isinstance(node, Sum):
        lo = _render(node.lo, _LEVEL_ADD)
        hi = _render(node.hi, _LEVEL_ADD)
        body = _render(node.body, _LEVEL_ADD)
        return f"sum({node.var}={lo}..{hi}, {body})"
    raise TypeError(f"cannot render node {node!r}")


def _render_chain(node, level: int, right_level: int, joint: str) -> str:
    """A left-deep chain of one precedence level, printed by a loop."""
    first, tail = _chain(node)
    parts = [_render(first, level)]
    for op, operand in tail:
        parts.append(joint.format(op))
        parts.append(_render(operand, right_level))
    return "".join(parts)


def to_source(node) -> str:
    """Canonical source text; printing then parsing is a fixpoint."""
    return _render(node, _LEVEL_ADD)
