"""Expression language: tokenizer, parser, evaluator, pretty-printer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stirlingkit import (
    Env,
    EvalError,
    ExprError,
    ParseError,
    SeqContext,
    evaluate,
    format_rational,
    parse,
    parse_rational,
    seq,
    to_source,
)
from stirlingkit.expr import BinOp, Call, IntLit, Neg, Sum, Var, _compile

import golden_exprs
from support import eval_oracle


# -- golden corpus ---------------------------------------------------


@pytest.mark.parametrize("src,bindings,want", golden_exprs.VALID)
def test_corpus_valid(src, bindings, want):
    node = parse(src)
    env = Env()
    if bindings:
        env = Env(bindings={k: parse_rational(v) for k, v in bindings.items()})
    assert format_rational(evaluate(node, env)) == want
    # printing and reparsing must reach a fixpoint
    printed = to_source(node)
    assert to_source(parse(printed)) == printed
    assert format_rational(evaluate(parse(printed), env)) == want


@pytest.mark.parametrize("src,line,col", golden_exprs.INVALID)
def test_corpus_invalid(src, line, col):
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert ei.value.line == line
    assert ei.value.col == col
    assert isinstance(ei.value.expected, frozenset)


def test_corpus_size():
    assert len(golden_exprs.VALID) == 30
    assert len(golden_exprs.INVALID) == 20


# -- parser details --------------------------------------------------


def test_error_position_on_second_line():
    with pytest.raises(ParseError) as ei:
        parse("1 +\n* 2")
    assert ei.value.line == 2
    assert ei.value.col == 1


def test_error_message_mentions_position():
    with pytest.raises(ParseError) as ei:
        parse("(1")
    msg = str(ei.value)
    assert "line 1" in msg and "column 3" in msg
    # grammar-level errors carry the expected-token set; lexical ones may not
    assert ei.value.expected


def test_precedence_shapes():
    node = parse("1 + 2*3")
    assert isinstance(node, BinOp) and node.op == "+"
    assert isinstance(node.right, BinOp) and node.right.op == "*"
    node = parse("-2^2")
    assert isinstance(node, Neg)
    node = parse("2^3^2")
    assert isinstance(node, BinOp) and node.op == "^"
    assert isinstance(node.right, BinOp) and node.right.op == "^"


def test_integer_literals_are_decimal_digits():
    # "²" is a digit to str.isdigit but not to int(); "٣" is a decimal digit
    with pytest.raises(ParseError) as ei:
        parse("2²")
    assert str(ei.value) == "syntax error at line 1, column 2: illegal character '²'"
    assert evaluate(parse("٣+1")) == 4
    with pytest.raises(EvalError, match=r"^unbound variable 'x²'$"):
        evaluate(parse("x²"))


def test_sum_node_shape():
    node = parse("sum(k=0..3, k)")
    assert isinstance(node, Sum)
    assert node.var == "k"
    assert isinstance(node.body, Var)


# -- evaluator -------------------------------------------------------


def test_eval_agrees_with_sequence_layer():
    import random

    ctx = SeqContext()
    env = Env(ctx=ctx)
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(0, 12)
        k = rng.randint(0, n)
        p = rng.randint(1, 4)
        checks = [
            (f"S({n},{k})", ctx.stirling2(n, k)),
            (f"s({n},{k})", ctx.stirling1(n, k)),
            (f"C({n},{k})", Fraction(__import__("math").comb(n, k))),
            (f"fact({k})", ctx.factorial(k)),
            (f"H({n})", ctx.harmonic(n)),
            (f"h({p},{n})", ctx.hyperharmonic(p, n)),
            (f"B({n})", ctx.bernoulli(n)),
            (f"bell({n})", ctx.bell(n)),
            (f"fubini({n})", ctx.fubini(n)),
            (f"D({n})", ctx.derangement(n)),
            (f"M({k},{p})", ctx.moment(k, p)),
            (f"powsum({p},{n})", ctx.power_sum(p, n)),
        ]
        for src, want in checks:
            assert evaluate(parse(src), env) == want, src


def test_unbound_variable():
    with pytest.raises(EvalError):
        evaluate(parse("y + 1"))


def test_unknown_function():
    with pytest.raises(EvalError):
        evaluate(parse("zeta(2)"))


def test_wrong_arity():
    with pytest.raises(EvalError):
        evaluate(parse("S(3)"))
    with pytest.raises(EvalError):
        evaluate(parse("fact(3,4)"))


def test_non_integer_function_argument():
    with pytest.raises(EvalError):
        evaluate(parse("fact(1/2)"))


def test_exponent_must_be_nonnegative_integer():
    with pytest.raises(EvalError):
        evaluate(parse("2^(1/2)"))
    with pytest.raises(EvalError):
        evaluate(parse("2^(0-1)"))


def test_division_by_zero_reported():
    with pytest.raises(EvalError):
        evaluate(parse("1/(2-2)"))


def test_sum_term_cap():
    with pytest.raises(EvalError) as ei:
        evaluate(parse("sum(k=0..2000000, 1)"))
    assert "cap" in str(ei.value) or "1000000" in str(ei.value).replace(",", "")


def test_nesting_cap():
    from stirlingkit.expr import NESTING_CAP

    fits = "(" * (NESTING_CAP - 1) + "1" + ")" * (NESTING_CAP - 1)
    assert evaluate(parse(fits)) == 1
    too_deep = (
        "(" * NESTING_CAP + "1" + ")" * NESTING_CAP,
        "-" * NESTING_CAP + "1",
        "2^" * NESTING_CAP + "1",
        "f(" * NESTING_CAP + "1" + ")" * NESTING_CAP,
    )
    for src in too_deep:
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(src)


@pytest.mark.parametrize("terms", [1200, 10000])
def test_flat_chains_evaluate_and_print_without_recursion(terms):
    # a chain parses into a left-deep tree as deep as it is long
    chains = (
        ("+".join(["1"] * terms), " + ".join(["1"] * terms), Fraction(terms)),
        ("-".join(["1"] * terms), " - ".join(["1"] * terms), Fraction(2 - terms)),
        ("*".join(["3"] * terms), "*".join(["3"] * terms), Fraction(3**terms)),
        ("/".join(["2"] * terms), "/".join(["2"] * terms), Fraction(2, 2**(terms - 1))),
        ("x+x-" * terms + "x", "x + x - " * terms + "x", Fraction(7)),
        ("x*x/" * terms + "x", "x*x/" * terms + "x", Fraction(7)),
    )
    for src, printed, want in chains:
        node = parse(src)
        assert evaluate(node, Env(bindings={"x": Fraction(7)})) == want
        assert to_source(node) == printed
        assert to_source(parse(printed)) == printed


def test_power_width_cap():
    from stirlingkit.expr import POWER_BITS_CAP

    assert POWER_BITS_CAP == 2**20
    assert evaluate(parse("2^1048576")) == 2**POWER_BITS_CAP
    assert evaluate(parse("(1/4)^524288")) == Fraction(1, 2**POWER_BITS_CAP)
    # 0 and 1 need no bits, whatever the exponent
    assert evaluate(parse("(-1)^(10^9+1) + 0^(10^9) + 1^(10^12)")) == 0
    for src in ("2^1048577", "(1/2)^1048577", "(2/3)^(10^6)", "2^(10^8)", "2^2^2^2^2^2"):
        with pytest.raises(EvalError, match="wider than the cap of 1048576 bits"):
            evaluate(parse(src))


def test_sum_bounds_must_be_integers():
    with pytest.raises(EvalError):
        evaluate(parse("sum(k=0..1/2, k)"))


def test_sum_variable_shadowing_restored():
    env = Env(bindings={"k": Fraction(100)})
    assert evaluate(parse("sum(k=0..2, k) + k"), env) == 103
    # the outer binding survives the summation
    assert env.bindings["k"] == 100
    assert evaluate(parse("sum(k=0..2, k) + k"), env) == 103


def test_bindings_are_restored_after_a_sum_raises():
    env = Env(bindings={"k": Fraction(100)})
    with pytest.raises(EvalError, match="^division by zero$"):
        evaluate(parse("sum(k=0..2, 1/(k-1))"), env)
    assert env.bindings == {"k": Fraction(100)}
    assert type(env.bindings["k"]) is Fraction
    env = Env(bindings={"n": Fraction(1, 2)})
    with pytest.raises(EvalError, match="^division by zero$"):
        evaluate(parse("sum(k=0..2, 1/(k-1))"), env)
    assert env.bindings == {"n": Fraction(1, 2)}


def test_env_without_a_context_uses_the_default_and_owns_its_bindings():
    assert Env(ctx=None).ctx is seq.context()
    assert evaluate(parse("S(3,1)"), Env(ctx=None)) == 1
    assert Env().bindings is not Env().bindings


def test_errors_found_while_compiling_raise_only_when_reached():
    for body in (Call("zeta", (Var("k"),)), Call("S", (Var("k"),)), BinOp("%", Var("k"), IntLit(2)), object()):
        assert evaluate(Sum("k", IntLit(1), IntLit(0), body)) == 0
    with pytest.raises(EvalError, match="^unbound variable 'y'$"):
        evaluate(parse("y + zeta(1) + S(1)"))
    with pytest.raises(EvalError, match=r"^cannot evaluate node <object object at "):
        evaluate(BinOp("+", IntLit(1), object()))


def test_integral_values_are_ints_inside_and_the_result_is_a_fraction():
    ctx = SeqContext()
    bindings = {"x": Fraction(4), "y": Fraction(1, 2)}
    for src in ("3", "x", "y", "-y", "6/3", "y + y", "2*y", "y^0", "2^3", "H(1)", "H(2)", "fact(4)",
                "sum(k=1..2, y)", "sum(k=1..3, y)", "sum(k=1..0, y)", "fact(sum(k=1..2, y)) + 2^(y^0)"):
        node = parse(src)
        value = evaluate(node, Env(bindings=dict(bindings), ctx=ctx))
        raw = _compile(node)(dict(bindings), ctx)
        assert type(value) is Fraction and raw == value, src
        assert type(raw) is (int if value.denominator == 1 else Fraction), src


def test_an_integral_sum_builds_no_fractions():
    import cProfile
    import pstats

    ctx = SeqContext()
    node = parse("sum(k=0..60, S(60,k)*fact(k))")
    evaluate(node, Env(ctx=ctx))  # warm the tables
    profile = cProfile.Profile()
    profile.enable()
    value = evaluate(parse("sum(k=0..60, S(60,k)*fact(k))"), Env(ctx=ctx))
    profile.disable()
    assert value == ctx.fubini(60)
    made = sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))
    # the tree-walking evaluator made 491
    assert made <= 2


def test_zero_power_zero():
    assert evaluate(parse("0^0")) == 1
    assert evaluate(parse("sum(k=0..2, 0^k)")) == 1


# -- pretty printer --------------------------------------------------


def test_printer_golden_forms():
    cases = [
        ("1+2*3", "1 + 2*3"),
        ("(1+2)*3", "(1 + 2)*3"),
        ("- 2 ^ 2", "-2^2"),
        ("(-2)^2", "(-2)^2"),
        ("2^(3^2)", "2^3^2"),
        ("(2^3)^2", "(2^3)^2"),
        ("1-(2-3)", "1 - (2 - 3)"),
        ("sum( k = 0 .. 3 , k*k )", "sum(k=0..3, k*k)"),
    ]
    for src, want in cases:
        assert to_source(parse(src)) == want, src


_atoms = st.one_of(
    st.integers(min_value=0, max_value=99).map(IntLit),
    st.sampled_from("xyk").map(Var),
)


def _arithmetic(children, ops=("+", "-", "*", "/", "^")):
    return st.one_of(st.builds(Neg, children), st.builds(BinOp, st.sampled_from(ops), children, children))


def _exprs(children):
    return st.one_of(
        _arithmetic(children),
        st.builds(
            Call,
            st.just("C"),
            st.tuples(children, children),
        ),
        st.builds(
            Sum,
            st.just("k"),
            children,
            children,
            children,
        ),
    )


ast_strategy = st.recursive(_atoms, _exprs, max_leaves=12)


@given(ast_strategy)
def test_print_parse_fixpoint_on_random_asts(node):
    printed = to_source(node)
    assert to_source(parse(printed)) == printed


# -- compiled evaluator against the tree-walking oracle ---------------

# Builtin arguments and summation bounds stay small, so that no example
# grows a table or a range far; the bound variables take values in
# [-4, 4], some of them non-integral.
_small = st.one_of(st.integers(min_value=0, max_value=12).map(IntLit), st.sampled_from("xyk").map(Var))
_small = st.one_of(_small, st.builds(Neg, _small), st.builds(BinOp, st.sampled_from("+-*/"), _small, _small))
_bound = st.one_of(st.integers(min_value=-2, max_value=4).map(IntLit), st.sampled_from("xyk").map(Var))
_value = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 1, 2, 3]))


def _eval_exprs(children):
    return st.one_of(
        _arithmetic(children, ("+", "-", "*", "/", "^", "%")),
        st.builds(Call, st.sampled_from(["S", "s", "C"]), st.tuples(_small, _small)),
        st.builds(Call, st.sampled_from(["fact", "H", "B", "D"]), st.tuples(_small)),
        # an unknown name or a wrong arity: the arguments are never evaluated
        st.builds(Call, st.sampled_from(["zeta", "S", "fact"]), st.tuples(children, children, children)),
        st.builds(Sum, st.sampled_from("kx"), _bound, _bound, children),
    )


eval_ast_strategy = st.recursive(_atoms, _eval_exprs, max_leaves=10)


def _outcome(evaluator, node, bindings, ctx):
    env = Env(bindings=dict(bindings), ctx=ctx)
    try:
        result = ("value", evaluator(node, env))
    except Exception as exc:  # both sides must raise the same class and message
        result = ("error", type(exc), str(exc))
    return result, env.bindings


@settings(derandomize=True, max_examples=500, deadline=None)
@given(eval_ast_strategy, st.fixed_dictionaries({"x": _value, "y": _value}, optional={"k": _value}))
def test_compiled_evaluator_matches_the_tree_walking_oracle(node, bindings):
    ctx = SeqContext()
    got, got_bindings = _outcome(evaluate, node, bindings, ctx)
    want, want_bindings = _outcome(eval_oracle, node, bindings, ctx)
    assert got == want
    assert got_bindings == want_bindings == bindings
    if got[0] == "value":
        assert type(got[1]) is Fraction
        # inside, an integral value is an int and only a non-integral one a Fraction
        raw = _compile(node)(dict(bindings), ctx)
        assert raw == got[1] and type(raw) is (int if raw.denominator == 1 else Fraction)
