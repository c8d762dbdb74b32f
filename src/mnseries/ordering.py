"""Exponent lattices, matrix-induced term orders, and precision boxes.

A field of iterated Laurent expansions is described by a ``FieldSpec``: a
sequence of variable names in significance order (last name is the most
significant) together with a nonsingular integer twist matrix.  Monomials are
compared by mapping their exponent vectors through the twist (``phi``) and
then comparing reverse-lexicographically, most significant coordinate first.
The identity twist gives the plain iterated Laurent field.

Truncation is expressed by a ``Box``: closed per-coordinate intervals in
phi-coordinates.  A series is guaranteed exact on its box; everything outside
is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import SingularTwist, SpecMismatch, UnknownVariable, UsageError

LESS, EQUAL, GREATER = -1, 0, 1

DEFAULT_RADIUS = 16


def int_det(matrix):
    """Determinant of a square integer matrix, exactly (fraction-free)."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
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
    return sign * m[n - 1][n - 1]


def unit_vector(n, i):
    """The i-th standard basis vector of length n."""
    return tuple(1 if j == i else 0 for j in range(n))


def revlex_compare(a, b):
    """Compare integer vectors, most significant (last) coordinate first."""
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return LESS if a[i] < b[i] else GREATER
    return EQUAL


@dataclass(frozen=True)
class Box:
    """Closed intervals, one per phi-coordinate."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise UsageError(f"empty box interval [{lo}, {hi}]")

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


def cube(n, radius=DEFAULT_RADIUS):
    """The default evaluation box: [-radius, radius] on every coordinate."""
    return Box(((-radius, radius),) * n)


@dataclass(frozen=True)
class FieldSpec:
    """Variable names in significance order plus an integer order twist.

    Row i of ``twist`` is the exponent vector the i-th variable is mapped to
    before comparison; the matrix must be nonsingular so the induced order is
    total and monomial comparison is faithful.  The twist's columns and
    whether it is the identity are computed once, here, because every
    truncation test maps an exponent through ``phi``.
    """

    variables: tuple[str, ...]
    twist: tuple[tuple[int, ...], ...]
    _columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.variables)
        if n == 0:
            raise UsageError("a field needs at least one variable")
        if len(set(self.variables)) != n:
            raise UsageError("variable names must be distinct")
        if len(self.twist) != n or any(len(row) != n for row in self.twist):
            raise UsageError("twist matrix must be square, one row per variable")
        if int_det(self.twist) == 0:
            raise SingularTwist("twist matrix is singular")
        columns = tuple(zip(*self.twist))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(
            self, "_identity", columns == tuple(unit_vector(n, i) for i in range(n))
        )

    @property
    def n(self):
        return len(self.variables)

    def is_identity_twist(self):
        return self._identity

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def unit(self, name):
        return unit_vector(self.n, self.index(name))

    def phi(self, exponent):
        """Image of an exponent vector under the twist: sum_i k_i * row_i."""
        columns = self._columns
        if len(exponent) != len(columns):
            raise SpecMismatch(
                f"exponent {exponent} has length {len(exponent)}, expected {self.n}"
            )
        if self._identity:
            return tuple(exponent)
        return tuple(sum(map(mul, exponent, column)) for column in columns)

    def compare(self, k1, k2):
        """Total order on exponent vectors: reverse lex over phi-images."""
        return revlex_compare(self.phi(k1), self.phi(k2))

    def is_positive(self, exponent):
        return self.compare(exponent, (0,) * self.n) == GREATER

    def default_box(self, radius=DEFAULT_RADIUS):
        return cube(self.n, radius)


def identity_spec(names):
    names = tuple(names)
    n = len(names)
    return FieldSpec(names, tuple(unit_vector(n, i) for i in range(n)))


def matmul(a, b):
    """Integer matrix product a @ b for row-tuples."""
    n, m = len(a), len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m))
        for i in range(n)
    )


def transformed_spec(base, substituted_rows):
    """Field spec for expansions after a change of variables.

    ``substituted_rows`` maps a variable name of ``base`` to the exponent
    vector (in base coordinates) of the initial monomial replacing it;
    variables not named keep their unit row.  The new twist is the
    substitution matrix composed with the base twist.  Raises SingularTwist
    when the substitution rows are dependent, which is exactly the Jacobian
    number vanishing.
    """
    n = base.n
    rows = []
    for i, name in enumerate(base.variables):
        if name in substituted_rows:
            row = tuple(substituted_rows[name])
            if len(row) != n:
                raise UsageError(f"substituted row for {name!r} has wrong length")
            rows.append(row)
        else:
            rows.append(unit_vector(n, i))
    subst = tuple(rows)
    if int_det(subst) == 0:
        raise SingularTwist("initial monomials are multiplicatively dependent")
    return FieldSpec(base.variables, matmul(subst, base.twist))


def parse_field_spec(text):
    """Parse ``vars=x,y,t; twist=[[2,1,0],[1,2,0],[0,0,1]]`` (twist optional)."""
    names = None
    twist = None
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad field spec fragment {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "vars":
            names = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "twist":
            twist = _parse_matrix(value)
        else:
            raise UsageError(f"unknown field spec key {key!r}")
    if not names:
        raise UsageError("field spec needs vars=...")
    if twist is None:
        return identity_spec(names)
    return FieldSpec(names, twist)


def _parse_matrix(text):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise UsageError(f"bad twist matrix {text!r}")
    rows = []
    for chunk in text[2:-2].split("],["):
        try:
            rows.append(tuple(int(v) for v in chunk.split(",")))
        except ValueError:
            raise UsageError(f"bad twist row {chunk!r}") from None
    return tuple(rows)


def format_field_spec(spec):
    vars_part = "vars=" + ",".join(spec.variables)
    if spec.is_identity_twist():
        return vars_part
    twist_part = "twist=[" + ",".join(
        "[" + ",".join(str(v) for v in row) + "]" for row in spec.twist
    ) + "]"
    return vars_part + "; " + twist_part


def parse_rational(text):
    """Parse ``p`` or ``p/q`` into a Fraction."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}") from None
    return value
