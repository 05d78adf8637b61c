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
The tokenizer is one compiled pattern.  Each evaluation compiles the
tree once, against its context, into closures of the bindings: node kind
is dispatched and each builtin's method bound before any term runs.
Integral values stay ints while they run, a sum keeps its terms as one
integer over the lcm of their denominators, and the result is a Fraction.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

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

# One alternative per token class, tried in order at each position: a run
# of decimal digits, a word, punctuation, blanks, a newline, and any other
# single character, which is illegal.  A word is a run of \w characters,
# so it may start with a digit-like character such as "²", which is illegal
# there: only a letter or "_" may start an identifier.
_SCAN = re.compile(r"(\d+)|(\w+)|(\.\.|[-+*/^(),=])|[ \t\r]+|(\n)|(.)")

# kind is "int", "ident", "eof", or the punctuation itself
Token = namedtuple("Token", "kind text line col")


def tokenize(src: str) -> list[Token]:
    # tuple.__new__ builds a Token in C, where Token(...) runs the Python
    # __new__ that namedtuple generates
    new = tuple.__new__
    tokens: list[Token] = []
    line, start = 1, 0  # start is the index of the line's first character
    for match in _SCAN.finditer(src):
        group = match.lastindex
        if group is None:
            continue
        text = match.group()
        col = match.start() - start + 1
        if group == 1:
            tokens.append(new(Token, ("int", text, line, col)))
        elif group == 2:
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"illegal character {text[0]!r}", line, col)
            tokens.append(new(Token, ("ident", text, line, col)))
        elif group == 3:
            tokens.append(new(Token, (text, text, line, col)))
        elif group == 4:
            line += 1
            start = match.end()
        else:
            raise ParseError(f"illegal character {text!r}", line, col)
    tokens.append(Token("eof", "", line, len(src) - start + 1))
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


# (arity, function of ctx that returns the builtin) by name: the triangles
# and binomials here, then every sequence family of seq.FAMILIES.  Each call
# site looks its method up once, on the context it is compiled against, so
# subclasses take effect.
_BUILTINS = {
    "S": (2, operator.attrgetter("stirling2")),
    "s": (2, operator.attrgetter("stirling1")),
    "C": (2, lambda ctx: binomial),
    **{family.expr_name: (len(family.params), operator.attrgetter(family.method)) for family in FAMILIES},
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
    # a private copy: a sum binds its index here, never in the caller's
    # dict, and an integral Fraction is read as an int from the start
    bindings = {
        name: value.numerator if type(value) is Fraction and value.denominator == 1 else value
        for name, value in env.bindings.items()
    }
    return Fraction(_compile(node, env.ctx)(bindings))


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
    return e * (max(abs(base.numerator) - 1, 0).bit_length() + (base.denominator - 1).bit_length())


def _divide(a, b):
    if b == 0:
        raise EvalError("division by zero")
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


_STEPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _fail(message: str):
    def fail(b):
        raise EvalError(message)
    return fail


def _compile(node, ctx):
    """Compile a syntax tree against the context ``ctx`` into a closure
    f(bindings) that returns its value, an int when integral and else a
    Fraction.  Dispatch, chain flattening, builtin lookup and messages are
    done here, once; an error found here compiles to a closure that raises
    only when reached."""
    if isinstance(node, IntLit):
        value = _num(node.value)
        return lambda b: value
    if isinstance(node, Var):
        name = node.name

        def var(b):
            if name not in b:
                raise EvalError(f"unbound variable {name!r}")
            value = b[name]
            return value if type(value) is int else _num(value)
        return var
    if isinstance(node, Neg):
        operand = _compile(node.operand, ctx)
        return lambda b: -operand(b)
    if isinstance(node, BinOp) and node.op == "^":
        base, exponent = _compile(node.left, ctx), _compile(node.right, ctx)

        def power(b):
            left = base(b)
            e = _as_int(exponent(b), "exponent")
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
        head = _compile(first, ctx)
        steps = [(_STEPS[op], _compile(operand, ctx)) for op, operand in tail]

        def chain(b):
            acc = head(b)
            for step, operand in steps:
                acc = step(acc, operand(b))
                if type(acc) is not int:
                    acc = _num(acc)
            return acc
        return chain
    if isinstance(node, Call):
        if node.name not in _BUILTINS:
            return _fail(f"unknown function {node.name!r}")
        arity, lookup = _BUILTINS[node.name]
        if len(node.args) != arity:
            return _fail(f"{node.name} takes {arity} argument(s), got {len(node.args)}")
        what = f"argument of {node.name}"
        fn = lookup(ctx)
        if arity == 1:
            (first,) = [_compile(a, ctx) for a in node.args]

            def call1(b):
                n = first(b)
                if type(n) is not int:
                    raise EvalError(f"{what} must be an integer, got {n}")
                value = fn(n)
                return value if type(value) is int else _num(value)
            return call1
        first, second = [_compile(a, ctx) for a in node.args]

        def call2(b):
            n = first(b)
            if type(n) is not int:
                raise EvalError(f"{what} must be an integer, got {n}")
            k = second(b)
            if type(k) is not int:
                raise EvalError(f"{what} must be an integer, got {k}")
            value = fn(n, k)
            return value if type(value) is int else _num(value)
        return call2
    if isinstance(node, Sum):
        var, lo, hi, body = node.var, _compile(node.lo, ctx), _compile(node.hi, ctx), _compile(node.body, ctx)

        def total(b):
            first = _as_int(lo(b), "summation lower bound")
            last = _as_int(hi(b), "summation upper bound")
            if last < first:
                return 0
            if last - first >= SUM_TERM_CAP:
                raise EvalError(f"summation range has {last - first + 1} terms; the cap is {SUM_TERM_CAP}")
            saved = {var: b[var]} if var in b else {}
            # the terms so far are num / den, den the lcm of their denominators
            num, den = 0, 1
            for i in range(first, last + 1):
                b[var] = i
                term = body(b)
                if type(term) is int:
                    num += term * den
                else:
                    d = term.denominator
                    if den % d:
                        scale = d // gcd(den, d)
                        num *= scale
                        den *= scale
                    num += term.numerator * (den // d)
            # an outer sum over the same name reads its own index again; the
            # bindings are private to the evaluation, so an error needs no undo
            del b[var]
            b.update(saved)
            return num if den == 1 else _num(Fraction(num, den))
        return total
    return _fail(f"cannot evaluate node {node!r}")


# -- pretty printer --------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _render(node, min_level: int) -> str:
    """The node's source text, in parentheses when its level is below
    min_level.  A left-deep chain of + - (or of * /) is printed by a loop,
    its right operands one level up."""
    if isinstance(node, IntLit):
        level, text = _LEVEL_ATOM, str(node.value)
    elif isinstance(node, Var):
        level, text = _LEVEL_ATOM, node.name
    elif isinstance(node, Neg):
        level, text = _LEVEL_UNARY, "-" + _render(node.operand, _LEVEL_UNARY)
    elif isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
        level, joint = (_LEVEL_ADD, " {} ") if node.op in ("+", "-") else (_LEVEL_MUL, "{}")
        first, tail = _chain(node)
        text = _render(first, level) + "".join(joint.format(op) + _render(x, level + 1) for op, x in tail)
    elif isinstance(node, BinOp):
        level, text = _LEVEL_POW, f"{_render(node.left, _LEVEL_ATOM)}^{_render(node.right, _LEVEL_UNARY)}"
    elif isinstance(node, Call):
        level, text = _LEVEL_ATOM, f"{node.name}({', '.join(_render(a, _LEVEL_ADD) for a in node.args)})"
    elif isinstance(node, Sum):
        lo, hi, body = (_render(part, _LEVEL_ADD) for part in (node.lo, node.hi, node.body))
        level, text = _LEVEL_ATOM, f"sum({node.var}={lo}..{hi}, {body})"
    else:
        raise TypeError(f"cannot render node {node!r}")
    return f"({text})" if level < min_level else text


def to_source(node) -> str:
    """Canonical source text; printing then parsing is a fixpoint."""
    return _render(node, _LEVEL_ADD)
