"""Exponent lattices, matrix-induced term orders, and precision boxes.

A field of iterated Laurent expansions is described by a ``FieldSpec``: a
sequence of variable names in significance order (last name is the most
significant) together with a nonsingular integer twist matrix.  Monomials are
compared by mapping their exponent vectors through the twist (``phi``) and
then comparing reverse-lexicographically, most significant coordinate first.
The identity twist gives the plain iterated Laurent field.

Truncation is expressed by a ``Box``: closed per-coordinate intervals in
phi-coordinates.  A series' ``Region`` claims its box, or its whole support
when it is exact; everything outside the claim is unknown.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import inf

from .errors import OutOfPrecision, SingularTwist, SpecMismatch, UnknownVariable, UsageError

DEFAULT_RADIUS = 16


def int_det(matrix):
    """Determinant of a square int matrix (1 if empty), exactly (fraction-free)."""
    m = [list(row) for row in matrix]
    if not {int}.issuperset(map(type, chain.from_iterable(m))):
        raise UsageError("determinant entries must be integers")
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def pivot_columns(rows):
    """The columns of ``rows`` (of full row rank) that the columns right of
    them do not span, found from the last: the order the rows induce on
    their combinations is decided on these columns alone, and the rows
    restricted to them are nonsingular."""
    pivots, basis = [], []          # basis: (pivot, echelon column)
    for j in reversed(range(len(rows[0]))):
        v = [row[j] for row in rows]
        for p, b in basis:
            v = [b[p] * x - v[p] * y for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            pivots.append(j)
            basis.append((p, v))
    return pivots[::-1]


def unit_vector(n, i):
    """The i-th standard basis vector of length n."""
    return tuple(1 if j == i else 0 for j in range(n))


class Value:
    """Equal (by type and fields), hashed and printed by its fields, the
    slots of its class not named with a leading "_"; never changed after
    construction, by convention, as ``Series`` is."""

    __slots__ = ()

    def _fields(self):
        return tuple((name, getattr(self, name)) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other is self:
            return True
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in self._fields())})"


class Box(Value):
    """Closed intervals, one per phi-coordinate: ``bounds``, (lo, hi) int pairs."""

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        for lo, hi in bounds:
            if type(lo) is not int or type(hi) is not int:
                raise UsageError(f"box bounds must be integers, got [{lo}, {hi}]")
            if lo > hi:
                raise UsageError(f"empty box interval [{lo}, {hi}]")
        self.bounds = bounds

    def __len__(self):
        return len(self.bounds)

    def contains(self, phi_vec):
        return all(lo <= c <= hi for c, (lo, hi) in zip(phi_vec, self.bounds))

    def shift(self, vec):
        return Box(tuple((lo + v, hi + v) for (lo, hi), v in zip(self.bounds, vec)))

    def intersect(self, other):
        bounds = []
        for (a, b), (c, d) in zip(self.bounds, other.bounds):
            lo, hi = max(a, c), min(b, d)
            if lo > hi:
                return None
            bounds.append((lo, hi))
        return Box(tuple(bounds))

    def top_corner(self):
        return tuple(hi for _, hi in self.bounds)

    def project(self, keep_indices):
        return Box(tuple(self.bounds[i] for i in keep_indices))

    def to_json(self):
        return [[lo, hi] for lo, hi in self.bounds]


class Region(Value):
    """A series' claim: its coefficients are the untruncated ones on ``box``,
    or everywhere if ``exact`` (then ``box`` bounds only what its own inverse,
    exp and log walk).  Every claim rule is one method here."""

    __slots__ = ("box", "exact")

    def __init__(self, box, exact):
        self.box, self.exact = box, exact

    def contains(self, spec, exponent):
        return self.exact or self.box.contains(spec.phi(exponent))

    def shift(self, vec):
        return Region(self.box.shift(vec), self.exact)

    def meet(self, other, refusal="operand boxes do not overlap"):
        """A sum's claim: an exact claim adds its support, never its box, so
        truncated boxes meet (OutOfPrecision, ``refusal``, if they miss) and
        two exact boxes meet or, if they miss, this one stays."""
        if self.exact != other.exact:
            return other if self.exact else self
        box = self.box.intersect(other.box)
        if box is None and not self.exact:
            raise OutOfPrecision(refusal)
        return Region(self.box if box is None else box, self.exact)

    def reciprocal(self, p, down, one_term):
        """``(walk, claim)`` of s^(-p), s = c·x^m·(1 - tau) of this claim and
        ``down`` = -phi(m): tau is walked where it is known, a truncated box
        less phi(m) or an exact series' own box.  An exact one-term s^(-p) is
        exact on the walk less phi(m), any other claimed on it less p·phi(m)."""
        walk = self.box if self.exact else self.box.shift(down)
        exact = self.exact and one_term
        return walk, Region(walk.shift(tuple(x if exact else p * x for x in down)), exact)

    def product(self, hull, other, other_hull):
        """A product's claim, for operands of this and the ``other`` claim
        whose phi hulls (None: no terms) are ``hull`` and ``other_hull``:
        exact, on the meet, for an exact product or an exact zero operand,
        else each truncated box [lo, hi] shifted to [lo + greatest, hi +
        least] of the other's hull (0 if it has no terms) and met."""
        if (self.exact and (other.exact or hull is None)) or (other.exact and other_hull is None):
            return Region(self.meet(other).box, True)
        bounds = [(-inf, inf)] * len(self.box)
        for mine, partner in ((self, other_hull), (other, hull)):
            if not mine.exact:
                bounds = [(max(lo, low + top), min(hi, high + bottom))
                          for (lo, hi), (low, high), (bottom, top)
                          in zip(bounds, mine.box.bounds, partner or [(0, 0)] * len(bounds))]
        if any(lo > hi for lo, hi in bounds):
            raise OutOfPrecision("product has no guaranteed region")
        return Region(Box(tuple(bounds)), False)

    def slice(self, rows, columns, origin, refusal):
        """The claim of the slice through phi ``origin`` spanned by ``rows``,
        its phi their pivot ``columns``: this box less ``origin`` there.  A
        slice term's other phi-coordinates are affine in its phi (Cramer's
        rule); a truncated claim raises OutOfPrecision, ``refusal``, unless
        their range over the slice's box lies in this box."""
        box = self.box.shift(tuple(-c for c in origin)).project(columns)
        d = int_det([[row[c] for c in columns] for row in rows])
        for j, (lo, hi) in enumerate(self.box.bounds):
            if self.exact or j in columns:
                continue
            # d²·(phi_j - origin_j) is the sum of w_c·u_c over the slice's phi u
            w = [d * int_det([[row[j if k == c else k] for k in columns] for row in rows])
                 for c in columns]
            low = sum(min(x * a, x * b) for x, (a, b) in zip(w, box.bounds))
            high = sum(max(x * a, x * b) for x, (a, b) in zip(w, box.bounds))
            if low < d * d * (lo - origin[j]) or high > d * d * (hi - origin[j]):
                raise OutOfPrecision(refusal)
        return Region(box, self.exact)


def cube(n, radius=DEFAULT_RADIUS):
    """The default evaluation box: [-radius, radius] on every coordinate."""
    return Box(((-radius, radius),) * n)


@lru_cache(maxsize=256)
def _phi_source(shape):
    """A function that binds the entries of a twist of this ``shape`` and
    returns its phi, compiled once per shape.  ``shape`` holds per column,
    per variable, the entry if it is 0, 1 or -1 and None for any other
    entry, which the returned binder takes as an argument, column by column:
    so an entry is a bound constant, never source text."""
    n = len(shape)
    bound, coordinates = [], []
    for column in shape:
        parts = []
        for i, entry in enumerate(column):
            if entry is None:
                bound.append(f"c{len(bound)}")
                parts.append(f"{bound[-1]} * e{i}")
            elif entry:
                parts.append(f"e{i}" if entry == 1 else f"-e{i}")
        coordinates.append(" + ".join(parts) or "0")
    unpacked = "".join(f"e{i}, " for i in range(n))
    source = (f"def bind({', '.join(bound)}):\n"
              f"    def phi(exponent):\n"
              f"        {unpacked}= exponent\n"
              f"        return ({''.join(c + ', ' for c in coordinates)})\n"
              f"    return phi\n")
    namespace = {}
    exec(source, namespace)
    return namespace["bind"]


def _compiled_phi(columns):
    """phi of the twist with these columns, with the exponent unpacked into
    locals and each coordinate its dot product written out: one call makes
    no generator and no ``sum``."""
    shape = tuple(tuple(t if t in (0, 1, -1) else None for t in column)
                  for column in columns)
    return _phi_source(shape)(*(t for column in columns for t in column
                                if t not in (0, 1, -1)))


class FieldSpec(Value):
    """Variable names in significance order plus an integer order twist.

    Row i of ``twist`` is the exponent vector the i-th variable is mapped to
    before comparison; the matrix must be nonsingular so the induced order is
    total and monomial comparison is faithful.  ``phi``, the one map of an
    exponent through the twist, is compiled once, here (``_compiled_phi``,
    whose source is compiled once per shape of twist, as a change of
    variables builds a new field each time): every truncation test runs it.
    """

    __slots__ = ("variables", "twist", "_phi")

    def __init__(self, variables, twist):
        variables = name_tuple(variables)
        n = len(variables)
        if n == 0:
            raise UsageError("a field needs at least one variable")
        for name in variables:
            if not (isinstance(name, str) and name and name_end(name) == len(name)):
                raise UsageError(f"bad variable name {name!r}")
        if len(set(variables)) != n:
            raise UsageError("variable names must be distinct")
        if len(twist) != n or any(len(row) != n for row in twist):
            raise UsageError("twist matrix must be square, one row per variable")
        if any(type(entry) is not int for row in twist for entry in row):
            raise UsageError("twist entries must be integers")
        if int_det(twist) == 0:
            raise SingularTwist("twist matrix is singular")
        self.variables, self.twist, self._phi = variables, twist, _compiled_phi(tuple(zip(*twist)))

    @property
    def n(self):
        return len(self.variables)

    def is_identity_twist(self):
        return all(row == unit_vector(self.n, i) for i, row in enumerate(self.twist))

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def unit(self, name):
        return unit_vector(self.n, self.index(name))

    def phi(self, exponent):
        """Image of an exponent vector under the twist: sum_i k_i * row_i."""
        try:
            return self._phi(exponent)
        except ValueError:
            if len(exponent) == self.n:
                raise
            raise SpecMismatch(
                f"exponent {exponent} has length {len(exponent)}, expected {self.n}"
            ) from None

    def key(self, exponent):
        """Sort key of the term order: phi reversed, most significant
        coordinate first, so keys compare as their exponents do."""
        return self.phi(exponent)[::-1]

    def is_positive(self, exponent):
        return self.key(exponent) > (0,) * self.n

    def default_box(self):
        return cube(self.n)


# The one name rule of fields and expressions: a letter (``str.isalpha``, any
# script) or "_", then letters, digits and "_" (``\w`` is ``str.isalnum``
# and "_"), so every field variable can be spelled in an expression.
_WORD = re.compile(r"\w+")


def name_end(text, start=0):
    """Where the variable name beginning at ``text[start]`` ends; ``start``
    if none begins there."""
    if start < len(text) and (text[start].isalpha() or text[start] == "_"):
        return _WORD.match(text, start).end()
    return start


def read_names(text):
    """The names of a comma separated list, blanks around them and empty
    items dropped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def name_tuple(names):
    """Names as a tuple; UsageError for a bare str, not read letter by letter."""
    if isinstance(names, str):
        raise UsageError(f"expected a sequence of names, got the string {names!r}")
    return tuple(names)


def identity_spec(names):
    names = name_tuple(names)
    n = len(names)
    return FieldSpec(names, tuple(unit_vector(n, i) for i in range(n)))


def transformed_spec(base, substituted_rows):
    """Field spec for expansions after a change of variables.

    ``substituted_rows`` maps a variable name of ``base`` to the exponent
    vector (in base coordinates) of the initial monomial replacing it;
    variables not named keep their unit row.  Each new row is ``base.phi``
    of its substitution row, so the new field orders a monomial as ``base``
    orders its image.  Raises SingularTwist when the substitution rows are
    dependent (the new twist, their matrix times the base twist, is
    singular exactly then), which is exactly the Jacobian number vanishing.
    """
    n = base.n
    rows = []
    for i, name in enumerate(base.variables):
        if name not in substituted_rows:
            rows.append(tuple(base.twist[i]))
            continue
        row = tuple(substituted_rows[name])
        if len(row) != n:
            raise UsageError(f"substituted row for {name!r} has wrong length")
        rows.append(base.phi(row))
    if int_det(rows) == 0:
        raise SingularTwist("initial monomials are multiplicatively dependent")
    return FieldSpec(base.variables, tuple(rows))


def field_spec(names, twist=None):
    """The field over the comma separated ``names``, twisted by the matrix
    the text ``twist`` spells (the identity when None)."""
    rows = None if twist is None else _parse_matrix(twist)
    names = read_names(names)
    if not names:
        raise UsageError("field spec needs vars=...")
    return identity_spec(names) if rows is None else FieldSpec(names, rows)


def parse_field_spec(text):
    """Parse ``vars=x,y,t; twist=[[2,1,0],[1,2,0],[0,0,1]]`` (twist optional)."""
    parts = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad field spec fragment {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("vars", "twist"):
            raise UsageError(f"unknown field spec key {key!r}")
        if key in parts:
            raise UsageError(f"field spec key {key!r} given twice")
        parts[key] = value
    return field_spec(parts.get("vars", ""), parts.get("twist"))


def _parse_matrix(text):
    text = re.sub(r"\s*([][,])\s*", r"\1", text.strip())
    if not (text.startswith("[[") and text.endswith("]]")):
        raise UsageError(f"bad twist matrix {text!r}")
    rows = []
    for chunk in text[2:-2].split("],["):
        try:
            rows.append(tuple(map(read_int, chunk.split(","))))
        except ValueError:
            raise UsageError(f"bad twist row {chunk!r}") from None
    return tuple(rows)


def format_field_spec(spec):
    vars_part = "vars=" + ",".join(spec.variables)
    if spec.is_identity_twist():
        return vars_part
    twist_part = "twist=[" + ",".join(
        "[" + ",".join(map(rational_text, row)) + "]" for row in spec.twist
    ) + "]"
    return vars_part + "; " + twist_part


# The one digit rule of every number reader: ASCII 0-9 (``int``, ``Fraction``,
# ``Decimal`` and ``str.isdecimal`` also take other scripts' digits or ``1_0``).
DIGITS = re.compile("[0-9]+")
_D = DIGITS.pattern
# ``str(int)`` and ``int(str)`` refuse more than 4300 digits; ``Decimal``
# converts exactly at any length.
_RATIO = re.compile(rf"\s*([-+]?{_D})(?:/({_D}))?\s*")
_DECIMAL = re.compile(rf"\s*[-+]?(?:{_D}(?:\.(?:{_D})?)?|\.{_D})(?:[eE]([-+]?{_D}))?\s*")
# ``Fraction`` builds ``10**exponent``, whose size grows with the exponent's
# value, not with the length of the text
MAX_DECIMAL_EXPONENT = 10_000
_INT = re.compile(rf"\s*[-+]?{_D}\s*", re.ASCII)


def rational_text(value):
    """``p`` or ``p/q`` for an int or Fraction, exactly, at any length."""
    text = str(Decimal(value.numerator))
    if value.denominator == 1:
        return text
    return text + "/" + str(Decimal(value.denominator))


def read_int(text):
    """The int ``text`` spells as ``[-+]?`` and ``DIGITS``, spaces around
    allowed, at any length; ValueError otherwise."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(Decimal(text.strip()))


def read_rational(text):
    """The Fraction ``text`` spells, as ``Fraction(text)`` reads it but in
    ``DIGITS`` only, with no length limit on the ``p`` and ``p/q`` that
    ``rational_text`` writes.  A decimal's exponent (``1.5e-3``) may not
    exceed ``MAX_DECIMAL_EXPONENT`` in size.  An int is taken as it is.
    ValueError for any other string, for a bigger exponent and for any other
    type (a float or a bool is not an exact rational)."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    match = _RATIO.fullmatch(text)
    if match is not None:
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    match = _DECIMAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    size = (match.group(1) or "").lstrip("+-").lstrip("0")
    # its length first: int() of a long exponent is itself slow
    if len(size) > len(str(MAX_DECIMAL_EXPONENT)) or int(size or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}: {text!r}")
    return Fraction(text)


def parse_rational(text):
    """Parse ``p`` or ``p/q`` into a Fraction."""
    try:
        value = read_rational(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}") from None
    return value
