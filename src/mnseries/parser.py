"""Expression front end: parse rational/exp/log expressions and expand them.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' int)?
    base   := integer | name | '(' expr ')' | 'exp(' expr ')' | 'log(' expr ')'
    int    := ['-'] digits | '(' ['-'] digits ')'

Precedence is ^ over unary minus over * / over + -, so ``-x^2`` is ``-(x^2)``
and ``x^-1`` / ``x^(-1)`` are both accepted.  Exponents must be integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegerExponent, ParseError, UnboundVariable, UsageError
from .ordering import DIGITS, name_end, rational_text, read_rational
from .series import Series, exp_of, log_of, multiply


@dataclass(frozen=True)
class ExprNode:
    pass


@dataclass(frozen=True)
class RationalLiteral(ExprNode):
    value: Fraction


@dataclass(frozen=True)
class Variable(ExprNode):
    name: str


@dataclass(frozen=True)
class Neg(ExprNode):
    child: ExprNode


@dataclass(frozen=True)
class Add(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Sub(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Mul(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Div(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Pow(ExprNode):
    child: ExprNode
    exponent: int


@dataclass(frozen=True)
class Exp(ExprNode):
    child: ExprNode


@dataclass(frozen=True)
class Log(ExprNode):
    child: ExprNode


def lit(value):
    return RationalLiteral(Fraction(value))


# ----------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
            continue
        digits = DIGITS.match(text, i)
        if digits:
            tokens.append(("int", digits.group(), i))
            i = digits.end()
            continue
        j = name_end(text, i)
        if j > i:
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind):
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1]!r}", token[2])
        return token

    def parse(self):
        node = self.expr()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"trailing input {token[1]!r}", token[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            right = self.unary()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.unary())
        return self.factor()

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            node = Pow(node, self.integer())
        return node

    def integer(self):
        token = self.peek()
        sign = 1
        parenthesized = False
        if token[0] == "(":
            self.next()
            parenthesized = True
            token = self.peek()
        if token[0] == "-":
            self.next()
            sign = -1
            token = self.peek()
        if token[0] != "int":
            raise NonIntegerExponent(
                f"exponent must be an integer, found {token[1]!r}", token[2]
            )
        value = sign * int(read_rational(self.next()[1]))
        if parenthesized:
            self.expect(")")
        return value

    def base(self):
        token = self.next()
        kind, text, pos = token
        if kind == "int":
            return RationalLiteral(read_rational(text))
        if kind == "name":
            if text in ("exp", "log") and self.peek()[0] == "(":
                self.next()
                child = self.expr()
                self.expect(")")
                return Exp(child) if text == "exp" else Log(child)
            return Variable(text)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text):
    """Parse an expression string into an ExprNode tree."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# canonical printer

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _print(node, minimum):
    if isinstance(node, RationalLiteral):
        text = rational_text(node.value)
        level = _PREC_ATOM if node.value >= 0 and node.value.denominator == 1 else _PREC_MUL
    elif isinstance(node, Variable):
        text, level = node.name, _PREC_ATOM
    elif isinstance(node, Neg):
        text, level = "-" + _print(node.child, _PREC_POW), _PREC_NEG
    elif isinstance(node, Add):
        text = f"{_print(node.left, _PREC_ADD)} + {_print(node.right, _PREC_MUL)}"
        level = _PREC_ADD
    elif isinstance(node, Sub):
        text = f"{_print(node.left, _PREC_ADD)} - {_print(node.right, _PREC_MUL)}"
        level = _PREC_ADD
    elif isinstance(node, Mul):
        text = f"{_print(node.left, _PREC_MUL)}*{_print(node.right, _PREC_NEG)}"
        level = _PREC_MUL
    elif isinstance(node, Div):
        text = f"{_print(node.left, _PREC_MUL)}/{_print(node.right, _PREC_NEG)}"
        level = _PREC_MUL
    elif isinstance(node, Pow):
        text = f"{_print(node.child, _PREC_ATOM)}^{rational_text(node.exponent)}"
        level = _PREC_POW
    elif isinstance(node, Exp):
        text, level = f"exp({_print(node.child, 0)})", _PREC_ATOM
    elif isinstance(node, Log):
        text, level = f"log({_print(node.child, 0)})", _PREC_ATOM
    else:
        raise UsageError(f"not an expression node: {node!r}")
    if level < minimum:
        return "(" + text + ")"
    return text


def to_text(node):
    """Render an AST back to parseable text."""
    return _print(node, 0)


# ----------------------------------------------------------------------
# expansion

def expand(node, spec, box=None, bindings=None, substitutions=None):
    """Expand an expression as a Series in the field given by ``spec``.

    ``bindings`` supplies rational values for parameter names that are not
    field variables.  ``substitutions`` (name -> Series) overrides variables
    with already-expanded series; the residue machinery uses it to plug the
    F_i into a slot expression.
    """
    if box is None:
        box = spec.default_box()
    bindings = bindings or {}
    for name in bindings:
        if name in spec.variables:
            raise UsageError(f"binding {name!r} shadows a field variable")
    substitutions = substitutions or {}

    def walk(n):
        if isinstance(n, RationalLiteral):
            return Series.constant(spec, n.value, box=box)
        if isinstance(n, Variable):
            if n.name in substitutions:
                return substitutions[n.name]
            if n.name in spec.variables:
                return Series.variable(spec, n.name, box=box)
            if n.name in bindings:
                return Series.constant(spec, bindings[n.name], box=box)
            raise UnboundVariable(f"variable {n.name!r} is not in the field or bindings")
        if isinstance(n, Neg):
            return -walk(n.child)
        if isinstance(n, Add):
            return walk(n.left) + walk(n.right)
        if isinstance(n, Sub):
            return walk(n.left) - walk(n.right)
        if isinstance(n, Mul):
            return multiply(walk(n.left), walk(n.right))
        if isinstance(n, Div):
            return multiply(walk(n.left), walk(n.right).invert())
        if isinstance(n, Pow):
            return walk(n.child) ** n.exponent
        if isinstance(n, Exp):
            return exp_of(walk(n.child))
        if isinstance(n, Log):
            return log_of(walk(n.child))
        raise UsageError(f"not an expression node: {n!r}")

    return walk(node)


def expand_text(text, spec, box=None, bindings=None, substitutions=None):
    return expand(parse(text), spec, box=box, bindings=bindings,
                  substitutions=substitutions)
