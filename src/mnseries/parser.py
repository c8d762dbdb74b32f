"""Expression front end: parse rational/exp/log expressions and expand them.

Grammar (whitespace insignificant)::

    expr   := unary (('+'|'-'|'*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' int)?
    base   := integer | name | '(' expr ')' | 'exp(' expr ')' | 'log(' expr ')'
    int    := ['-'] digits | '(' ['-'] digits ')'

Precedence is ^ over unary minus over * / over + -, so ``-x^2`` is ``-(x^2)``
and ``x^-1`` / ``x^(-1)`` are both accepted.  Exponents must be integers.
The binary operators are left associative.  One loop, ``_Parser.expr``,
parses the grammar: an operand, its power, then the binary operators by
precedence climbing.  Each operator is one row of the operator table: in
``BINARY`` its precedence, in ``UNARY`` its precedence and its series
operation, which the grammar, the printer and ``expand`` all read.  An
expression may be of any length; one nested deeper than Python's stack is
refused with a UsageError.

A product is expanded as the list of its factors (``factors``), and a
divisor's reciprocal factor by factor: its exact factors are multiplied out
and inverted once, each truncated one is inverted on its own, and the
divisor's own divisors join the numerator, so nothing is inverted twice.
In a quotient, the exact operands of more than one term come last, after
every truncated factor.  ``expand`` multiplies the list; ``mn ct|res``
reads its last product without forming it.
"""

from __future__ import annotations

import operator
from functools import reduce

from .errors import NonIntegerExponent, ParseError, UnboundVariable, UsageError
from .ordering import DIGITS, Value, name_end, rational_text, read_rational
from .series import Series, exp_of, log_of, multiply


class ExprNode(Value):
    __slots__ = ()


class RationalLiteral(ExprNode):
    __slots__ = ("value",)          # a Fraction

    def __init__(self, value):
        self.value = value


class Variable(ExprNode):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Binary(ExprNode):
    __slots__ = ("op", "left", "right")     # op: a key of BINARY

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class Unary(ExprNode):
    __slots__ = ("op", "child")             # op: a key of UNARY

    def __init__(self, op, child):
        self.op, self.child = op, child


class Pow(ExprNode):
    __slots__ = ("child", "exponent")       # exponent: an int

    def __init__(self, child, exponent):
        self.child, self.exponent = child, exponent


# ----------------------------------------------------------------------
# operator table: one row per operator, its precedence (and a prefix
# operator's series operation).  A node prints in parentheses where its
# context needs a tighter level.  A binary operator's right operand binds one
# level tighter (left associative).  A prefix operand binds one level
# tighter; a function, at an atom's level, takes its operand in parentheses.

_SUM, _PRODUCT, _NEGATION, _POWER, _ATOM = 1, 2, 3, 4, 5
BINARY = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT}
UNARY = {"-": (_NEGATION, operator.neg), "exp": (_ATOM, exp_of), "log": (_ATOM, log_of)}


# ----------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c, digits, j = text[i], DIGITS.match(text, i), name_end(text, i)
        if digits:
            j = digits.end()
            tokens.append(("int", digits.group(), i))
        elif j > i:
            tokens.append(("name", text[i:j], i))
        elif c in _SYMBOLS:
            tokens.append((c, c, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = max(j, i + 1)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
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

    def parse(self):
        try:
            node = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", self.peek()[2]) from None
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"trailing input {token[1]!r}", token[2])
        return node

    def expr(self, level=_SUM):
        """One operand, its power, then binary operators of at least
        ``level`` by precedence climbing.  A prefix minus binds its operand
        at negation's level, so ``^`` binds inside it and ``*`` outside."""
        kind, text, pos = self.next()
        if kind == "-":
            node = Unary("-", self.expr(_NEGATION))
        elif kind == "int":
            node = RationalLiteral(read_rational(text))
        elif kind == "name" and text in UNARY and self.peek()[0] == "(":
            self.next()
            node = Unary(text, self.expr())
            self.expect(")")
        elif kind == "name":
            node = Variable(text)
        elif kind == "(":
            node = self.expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        if kind != "-" and self.peek()[0] == "^":
            self.next()
            node = Pow(node, self.integer())
        while self.peek()[0] in BINARY and BINARY[self.peek()[0]] >= level:
            op = self.next()[0]
            node = Binary(op, node, self.expr(BINARY[op] + 1))
        return node

    def integer(self):
        parenthesized = self.peek()[0] == "("
        self.pos += parenthesized
        negative = self.peek()[0] == "-"
        self.pos += negative
        kind, text, pos = self.next()
        if kind != "int":
            raise NonIntegerExponent(f"exponent must be an integer, found {text!r}", pos)
        if parenthesized:
            self.expect(")")
        value = int(read_rational(text))
        return -value if negative else value


def parse(text):
    """Parse an expression string into an ExprNode tree."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# canonical printer

def _spine(node, level):
    """The left spine of ``node``'s operators at one precedence ``level``:
    its first operand and its ``Binary`` steps, innermost first.  The
    precedence loop builds it, so a flat expression of any length costs no
    depth."""
    steps = []
    while isinstance(node, Binary) and BINARY[node.op] == level:
        steps.append(node)
        node = node.left
    return node, steps[::-1]


def _print(node, minimum):
    if isinstance(node, RationalLiteral):
        text = rational_text(node.value)
        level = _ATOM if node.value >= 0 and node.value.denominator == 1 else _PRODUCT
    elif isinstance(node, Variable):
        text, level = node.name, _ATOM
    elif isinstance(node, Binary):
        level = BINARY[node.op]
        first, steps = _spine(node, level)
        text = _print(first, level)
        gap = " " if level == _SUM else ""
        for step in steps:
            text += f"{gap}{step.op}{gap}{_print(step.right, level + 1)}"
    elif isinstance(node, Unary):
        level = UNARY[node.op][0]
        if level == _ATOM:
            text = f"{node.op}({_print(node.child, 0)})"
        else:
            text = node.op + _print(node.child, level + 1)
    elif isinstance(node, Pow):
        text = f"{_print(node.child, _ATOM)}^{rational_text(node.exponent)}"
        level = _POWER
    else:
        raise UsageError(f"not an expression node: {node!r}")
    return f"({text})" if level < minimum else text


def to_text(node):
    """Render an AST back to parseable text."""
    try:
        return _print(node, 0)
    except RecursionError:
        raise UsageError("expression nested too deeply") from None


# ----------------------------------------------------------------------
# expansion

class _Expansion:
    """One expression's leaves: the field, box, bindings and substitutions
    they expand in."""

    def __init__(self, spec, box, bindings, substitutions):
        for name in bindings:
            if name in spec.variables:
                raise UsageError(f"binding {name!r} shadows a field variable")
        self.spec = spec
        self.box = spec.default_box() if box is None else box
        self.bindings = bindings
        self.substitutions = substitutions

    def series(self, n):
        spec, box = self.spec, self.box
        if isinstance(n, RationalLiteral):
            return Series.constant(spec, n.value, box=box)
        if isinstance(n, Variable):
            if n.name in self.substitutions:
                return self.substitutions[n.name]
            if n.name in spec.variables:
                return Series.variable(spec, n.name, box=box)
            if n.name in self.bindings:
                return Series.constant(spec, self.bindings[n.name], box=box)
            raise UnboundVariable(f"variable {n.name!r} is not in the field or bindings")
        if isinstance(n, Binary) and BINARY[n.op] == _PRODUCT:
            return reduce(multiply, self.factors(n))
        if isinstance(n, Binary):
            first, steps = _spine(n, _SUM)
            value = self.series(first)
            for step in steps:
                right = self.series(step.right)
                value = value + right if step.op == "+" else value - right
            return value
        if isinstance(n, Unary):
            return UNARY[n.op][1](self.series(n.child))
        if isinstance(n, Pow):
            return self.series(n.child) ** n.exponent
        raise UsageError(f"not an expression node: {n!r}")

    def factors(self, n):
        """The series whose product, left to right, is ``n``: each operand
        of its product and, in a divisor's place, the divisor's own divisors,
        the inverse of each of its truncated factors and then the inverse of
        its exact factors' product.  1/(a·b) = a^(-1)·b^(-1) in the field,
        and a truncated factor's power sum is far smaller than the product's;
        the exact factors are inverted together, so they still cancel.  In a
        quotient, the exact operands of more than one term come last."""
        first, steps = _spine(n, _PRODUCT)
        out = [self.series(first)]
        for step in steps:
            if step.op == "*":
                out.append(self.series(step.right))
                continue
            divisors = []
            self.split(step.right, divisors, out)
            out += [s.invert() for s in divisors if not s.exact]
            exact = [s for s in divisors if s.exact]
            if exact:
                out.append(reduce(multiply, exact).invert())
        # a product by an exact operand of more than one term claims a box
        # its low terms may lie below, and a later product by a truncated
        # factor would read its initial term there (ROADMAP item 1, face
        # (c)); a divisor may give several truncated inverses, so in a
        # quotient such operands are multiplied after all of them (a stable
        # sort keeps every other order)
        if any(step.op == "/" for step in steps):
            out.sort(key=lambda s: s.exact and len(s.terms) > 1)
        return out

    def split(self, n, mine, other):
        """Append the factors of ``n``'s product to ``mine`` and, through
        every divisor, those of its divisors to ``other``."""
        first, steps = _spine(n, _PRODUCT)
        mine.append(self.series(first))
        for step in steps:
            if step.op == "*":
                self.split(step.right, mine, other)
            else:
                self.split(step.right, other, mine)


def factors(node, spec, box=None, bindings=None, substitutions=None):
    """The series whose product, left to right, is the expression ``node``
    in the field given by ``spec``: one for an expression that is not a
    product, else one per operand and, for a divisor, its reciprocal factor
    by factor (``_Expansion.factors``).

    ``bindings`` supplies rational values for parameter names that are not
    field variables.  ``substitutions`` (name -> Series) overrides variables
    with already-expanded series; the residue machinery uses it to plug the
    F_i into a slot expression.
    """
    expansion = _Expansion(spec, box, bindings or {}, substitutions or {})
    try:
        return expansion.factors(node)
    except RecursionError:
        raise UsageError("expression nested too deeply") from None


def expand(node, spec, box=None, bindings=None, substitutions=None):
    """Expand an expression as a Series: the product of its ``factors``."""
    return reduce(multiply, factors(node, spec, box, bindings, substitutions))


def expand_text(text, spec, box=None, bindings=None, substitutions=None):
    return expand(parse(text), spec, box=box, bindings=bindings,
                  substitutions=substitutions)
