import random
from fractions import Fraction

import pytest

from mnseries import (
    FieldSpec,
    NonIntegerExponent,
    OutOfPrecision,
    ParseError,
    Series,
    UnboundVariable,
    UsageError,
    expand,
    expand_text,
    identity_spec,
    multiply,
    parse,
    to_text,
)
from mnseries.parser import (
    Add,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    Pow,
    Sub,
    Variable,
    lit,
)

X = identity_spec(("x",))
XREV = FieldSpec(("x",), ((-1,),))


def test_parse_simple_division():
    assert parse("1/(1-x)") == Div(lit(1), Sub(lit(1), Variable("x")))


def test_parse_big_example_expression():
    text = ("x^3*exp(t/(x*y))*(2*t-3*x*y)/((x^3*y*exp(t/(x*y))-t*x-t*y)"
            "*(x-y)*(x^3*exp(t/(x*y))-1))")
    node = parse(text)
    assert isinstance(node, Div)
    assert to_text(node)  # printable
    assert parse(to_text(node)) == node


def test_parse_rejects_symbolic_exponent():
    with pytest.raises(NonIntegerExponent):
        parse("x^y")


def test_parse_exponent_forms():
    assert parse("x^-1") == parse("x^(-1)") == Pow(Variable("x"), -1)


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Neg(Pow(Variable("x"), 2))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("1+ )x")
    assert err.value.position == 3


def test_literals_and_exponents_past_the_str_digit_limit():
    # int(str) and str(int) refuse more than 4300 digits
    digits = "9" * 5000
    node = parse(f"{digits}*x^-{digits}")
    assert node == Mul(lit(10 ** 5000 - 1), Pow(Variable("x"), 1 - 10 ** 5000))
    assert to_text(node) == f"{digits}*x^-{digits}"


def test_only_decimal_digits_make_a_literal():
    # a superscript digit is a digit to str.isdigit, and an Arabic-Indic
    # one to str.isdecimal, but only ASCII 0-9 make a literal
    for text in ("\u00b2", "\u0663", "\u0661\u0662*x", "x^\u0661", "1\u0663"):
        with pytest.raises(ParseError):
            parse(text)


def test_exp_log_parse():
    assert parse("exp(x)") == Exp(Variable("x"))
    assert parse("log(1-x)") == Log(Sub(lit(1), Variable("x")))
    # names starting like the functions are still names
    assert parse("expo") == Variable("expo")


def _random_ast(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return lit(rng.randint(0, 9))
        return Variable(rng.choice("xy"))
    kind = rng.randrange(7)
    child = lambda: _random_ast(rng, depth - 1)
    if kind == 0:
        return Add(child(), child())
    if kind == 1:
        return Sub(child(), child())
    if kind == 2:
        return Mul(child(), child())
    if kind == 3:
        return Div(child(), child())
    if kind == 4:
        return Neg(child())
    if kind == 5:
        return Pow(child(), rng.randint(-3, 3))
    return Exp(child())


def test_print_parse_round_trip():
    rng = random.Random(20240818)
    for _ in range(300):
        node = _random_ast(rng, rng.randint(1, 4))
        assert parse(to_text(node)) == node
        assert parse(to_text(Log(node))) == Log(node)


def test_expand_geometric_identity_field():
    s = expand_text("1/(1-x)", X)
    assert s.coefficient((0,)) == 1
    for k in range(10):
        assert s.coefficient((k,)) == 1


def test_expand_geometric_reversed_field():
    s = expand_text("1/(1-x^-1)", XREV)
    assert s.coefficient((0,)) == 1
    for k in range(10):
        assert s.coefficient((-k,)) == 1


def test_expand_two_fields_table():
    # same text, different twist: the tabulated CT values
    assert expand_text("1/(1-x)", X).coefficient((0,)) == 1
    assert expand_text("1/(1-x)", XREV).coefficient((0,)) == 0
    assert expand_text("1/(1-x^-1)", X).coefficient((0,)) == 0
    assert expand_text("1/(1-x^-1)", XREV).coefficient((0,)) == 1


def test_expand_derived_expansion():
    # 1/(1-x^-1) in the identity field: initial term of 1-x^-1 is -x^-1,
    # so the expansion is -x - x^2 - ...
    s = expand_text("1/(1-x^-1)", X)
    assert s.coefficient((0,)) == 0
    for k in range(1, 10):
        assert s.coefficient((k,)) == -1


def test_expand_homomorphism():
    from mnseries import MNError

    rng = random.Random(11)
    spec = identity_spec(("x", "y"))
    checked = 0
    for _ in range(60):
        a = _random_ast(rng, 2)
        b = _random_ast(rng, 2)
        try:
            sa = expand(a, spec)
            sb = expand(b, spec)
            sab = expand(Mul(a, b), spec)
            s_sum = expand(Add(a, b), spec)
        except MNError:
            continue
        assert sab.equals_on(multiply(sa, sb))
        assert s_sum.equals_on(sa + sb)
        checked += 1
    assert checked >= 20


def test_expand_bindings():
    s = expand_text("p*x+q", X, bindings={"p": Fraction(2), "q": Fraction(1, 3)})
    assert s.coefficient((1,)) == 2
    assert s.coefficient((0,)) == Fraction(1, 3)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        expand_text("x+z", X)


def test_binding_shadowing_is_rejected():
    with pytest.raises(UsageError):
        expand_text("x", X, bindings={"x": Fraction(1)})


def test_expand_substitutions():
    F = expand_text("1-x^-1", X)
    s = expand(parse("x^2"), X, substitutions={"x": F})
    assert s.equals_on(multiply(F, F))


def test_division_by_invisible_initial_term():
    # an inexact divisor with nothing stored inside the box
    empty = Series(X, {}, exact=False)
    with pytest.raises(OutOfPrecision):
        empty.invert()
