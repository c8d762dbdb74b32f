import gc
import json
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
    cube,
    exp_of,
    expand,
    expand_text,
    identity_spec,
    multiply,
    parse,
    to_text,
)
from mnseries.parser import Binary, Pow, RationalLiteral, Unary, Variable, factors

X = identity_spec(("x",))
XREV = FieldSpec(("x",), ((-1,),))


def lit(value):
    return RationalLiteral(Fraction(value))


def test_parse_simple_division():
    assert parse("1/(1-x)") == Binary("/", lit(1), Binary("-", lit(1), Variable("x")))


def test_parse_big_example_expression():
    text = ("x^3*exp(t/(x*y))*(2*t-3*x*y)/((x^3*y*exp(t/(x*y))-t*x-t*y)"
            "*(x-y)*(x^3*exp(t/(x*y))-1))")
    node = parse(text)
    assert isinstance(node, Binary) and node.op == "/"
    assert to_text(node)  # printable
    assert parse(to_text(node)) == node


def test_parse_rejects_symbolic_exponent():
    with pytest.raises(NonIntegerExponent):
        parse("x^y")


def test_parse_exponent_forms():
    assert parse("x^-1") == parse("x^(-1)") == Pow(Variable("x"), -1)


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Unary("-", Pow(Variable("x"), 2))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("1+ )x")
    assert err.value.position == 3


@pytest.mark.parametrize("text, message, position", [
    ("(1+x", "expected ')', found ''", 4),
    ("x)", "trailing input ')'", 1),
    ("x$", "unexpected character '$'", 1),
    # a power is read after an operand, never after a prefix minus
    ("-x^2^3", "trailing input '^'", 4),
    ("x^2^3", "trailing input '^'", 3),
])
def test_parse_errors_name_their_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_a_long_flat_expression_costs_no_depth():
    text = " + ".join(["x"] * 5000)
    node = parse(text)
    assert to_text(node) == text
    assert expand(node, X).terms == {(1,): 5000}


def test_nesting_deeper_than_the_stack_is_refused():
    # the position depends on the interpreter's stack, so it is not pinned
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse("(" * 5000 + "x" + ")" * 5000)
    # a tree built without the parser is refused by the printer and expand
    node = Variable("x")
    for _ in range(5000):
        node = Unary("-", node)
    for render in (to_text, lambda n: expand(n, X)):
        with pytest.raises(UsageError, match="expression nested too deeply"):
            render(node)
    # a divisor's divisors are gathered by the same recursion
    node = Variable("x")
    for _ in range(5000):
        node = Binary("/", lit(1), node)
    with pytest.raises(UsageError, match="expression nested too deeply"):
        expand(node, X)


def test_only_expression_nodes_print_and_expand():
    for node in ("x", 1, Binary("+", Variable("x"), "y")):
        with pytest.raises(UsageError, match="not an expression node"):
            to_text(node)
        with pytest.raises(UsageError, match="not an expression node"):
            expand(node, X)


def test_literals_and_exponents_past_the_str_digit_limit():
    # int(str) and str(int) refuse more than 4300 digits
    digits = "9" * 5000
    node = parse(f"{digits}*x^-{digits}")
    assert node == Binary("*", lit(10 ** 5000 - 1), Pow(Variable("x"), 1 - 10 ** 5000))
    assert to_text(node) == f"{digits}*x^-{digits}"


def test_only_decimal_digits_make_a_literal():
    # a superscript digit is a digit to str.isdigit, and an Arabic-Indic
    # one to str.isdecimal, but only ASCII 0-9 make a literal
    for text in ("\u00b2", "\u0663", "\u0661\u0662*x", "x^\u0661", "1\u0663"):
        with pytest.raises(ParseError):
            parse(text)


def test_exp_log_parse():
    assert parse("exp(x)") == Unary("exp", Variable("x"))
    assert parse("log(1-x)") == Unary("log", Binary("-", lit(1), Variable("x")))
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
        return Binary("+", child(), child())
    if kind == 1:
        return Binary("-", child(), child())
    if kind == 2:
        return Binary("*", child(), child())
    if kind == 3:
        return Binary("/", child(), child())
    if kind == 4:
        return Unary("-", child())
    if kind == 5:
        return Pow(child(), rng.randint(-3, 3))
    return Unary("exp", child())


def test_print_parse_round_trip():
    rng = random.Random(20240818)
    for _ in range(300):
        node = _random_ast(rng, rng.randint(1, 4))
        assert parse(to_text(node)) == node
        assert parse(to_text(Unary("log", node))) == Unary("log", node)


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
            sab = expand(Binary("*", a, b), spec)
            s_sum = expand(Binary("+", a, b), spec)
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


def test_expand_leaves_no_cyclic_garbage():
    # expand's recursion builds no reference cycle: it is freed when it
    # returns, not by the gc
    spec = identity_spec(("x", "y"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        expand_text("exp(x*y)/(1-x-y) - log(1+x)^2 + x^-2*y", spec)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_divisor_is_inverted_factor_by_factor():
    # each truncated factor is inverted on its own, then the exact factors'
    # product once, so (1-x)*(1+y) cancels as it would in one inverse
    spec = identity_spec(("x", "y"))
    x, y = (Series.variable(spec, name) for name in "xy")
    got = factors(parse("x/((1-x)*exp(y)*(1+y)*exp(x))"), spec)
    assert got == [x, exp_of(y).invert(), exp_of(x).invert(),
                   multiply(1 - x, 1 + y).invert()]
    assert expand(parse("x/((1-x)*exp(y)*(1+y)*exp(x))"), spec) == multiply(
        multiply(multiply(x, got[1]), got[2]), got[3])
    # in a quotient an exact operand of more than one term is multiplied
    # after every truncated factor; a one-term one keeps its place
    assert factors(parse("(1+x)*exp(x)/(1-y)*x"), spec) == [
        exp_of(x), (1 - y).invert(), x, 1 + x]


@pytest.mark.parametrize("text, names, radius, pinned", [
    ("1/((1-x)*(1+x))", ("x",), 4,
     '{"vars":["x"],"twist":[[1]],"terms":[{"exp":[0],"coeff":"1"},{"exp":[2],"coeff":"1"},'
     '{"exp":[4],"coeff":"1"}],"box":[[-4,4]],"exact":false}'),
    ("1/((1-x*t)*(1-t/x))", ("x", "t"), 2,
     '{"vars":["x","t"],"twist":[[1,0],[0,1]],"terms":[{"exp":[0,0],"coeff":"1"},'
     '{"exp":[-1,1],"coeff":"1"},{"exp":[1,1],"coeff":"1"},{"exp":[-2,2],"coeff":"1"},'
     '{"exp":[0,2],"coeff":"1"}],"box":[[-2,1],[-2,2]],"exact":false}'),
], ids=["1-x^2", "two-sided"])
def test_an_exact_divisor_is_inverted_as_one_product(text, names, radius, pinned):
    # 1 - x^2 is inverted as one ray: the series the engine printed before
    # truncated divisors were split
    s = expand_text(text, identity_spec(names), box=cube(len(names), radius))
    assert json.dumps(s.to_json(), separators=(",", ":")) == pinned


@pytest.mark.parametrize("a, b, c", [
    ("1+x", "1-x-y", "exp(y)"),
    ("x", "exp(x)", "1-y"),
    ("log(1+x)", "(1-x)*exp(y)", "(1+y)*exp(x)"),
    ("x^-1", "1-x", "1-x"),
])
def test_a_divisors_divisor_joins_the_numerator(a, b, c):
    # a/(b/c) = a*c/b: c is never inverted twice, and nor is it at any depth
    spec = identity_spec(("x", "y"))
    assert expand_text(f"({a})/(({b})/({c}))", spec) == expand_text(f"({a})*({c})/({b})", spec)
    assert (expand_text(f"({a})/(({b})/(({c})/({b})))", spec)
            == expand_text(f"({a})*({c})/(({b})*({b}))", spec))
