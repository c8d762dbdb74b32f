"""Truncated Malcev-Neumann series with exact rational coefficients.

A ``Series`` is a sparse map from exponent vectors to nonzero exact rational
coefficients, attached to a ``FieldSpec`` (which fixes the term order) and a
precision ``Box`` on which the stored coefficients are guaranteed to agree
with the untruncated series.  ``exact=True`` marks a Laurent polynomial whose
stored terms are its complete support; such values are exact everywhere and
the box is only carried along for bookkeeping.

Coefficients are ``fractions.Fraction`` values, with plain ``int`` allowed to
flow through as a fast path; both prune to nothing when they equal zero.

``Series(...)`` validates what it is given: exponent lengths, coefficient
types, zeros and, on a truncated series, that every term lies in the box.
The results of ``multiply`` and ``invert`` skip that pass
(``Series._trusted``), because they hold by construction: the operands were
validated, ``_convolve`` keeps only the pairs whose phi lies in the result
box and normalizes each output coefficient once, and the inversion
recurrence pushes only exponents inside the box (the origin it seeds is
dropped when the box misses it).

Box propagation through products follows the shift-and-intersect rule: each
factor's box is shifted by the other factor's initial phi-exponent, or — when
the other factor is exact, hence has fully known finite support — by every
exponent of that support, and everything is intersected.  Inversion writes
the series as c·x^m·(1 - tau) and solves g = 1 + prune(tau·g) one
coefficient at a time, in increasing term order; stream composition (exp,
log) sums box-pruned powers of the positive-order part until they become
empty.  Both terminate because only finitely many sums of elements from a
finite revlex-positive set can stay inside a fixed box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from math import factorial, gcd
from operator import add as _int_add

from .errors import (
    BadInitialTerm,
    NonpositiveOrder,
    OutOfPrecision,
    SpecMismatch,
    UsageError,
    ZeroDivisor,
    ZeroSeries,
)
from .ordering import Box, FieldSpec


def _coeff(value):
    """Normalize a coefficient: integral Fractions become plain ints."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise UsageError(f"coefficient {value!r} is not an exact rational")


def _recip(value):
    return _coeff(1 / Fraction(value))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


class Series:
    """A truncated element of a twisted iterated Laurent field."""

    __slots__ = ("spec", "terms", "box", "exact")

    def __init__(self, spec, terms, box=None, exact=True):
        if box is None:
            box = spec.default_box()
        if len(box) != spec.n:
            raise SpecMismatch("box dimension does not match the field")
        clean = {}
        for exponent, value in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != spec.n:
                raise SpecMismatch(
                    f"exponent {exponent} does not fit a {spec.n}-variable field"
                )
            value = _coeff(value)
            if value == 0:
                continue
            if exact or box.contains(spec.phi(exponent)):
                clean[exponent] = value
        self.spec = spec
        self.terms = clean
        self.box = box
        self.exact = exact

    @classmethod
    def _trusted(cls, spec, terms, box, exact):
        """A series from an engine result, taken as it is.

        ``terms`` must already hold what ``__init__`` would keep: tuple
        exponents of the field's length, nonzero normalized coefficients
        (``_coeff``) and, unless ``exact``, only exponents whose phi lies in
        ``box``.  Nothing is checked, so only operations whose construction
        guarantees this may call it; input from outside goes through
        ``Series(...)``.
        """
        self = object.__new__(cls)
        self.spec = spec
        self.terms = terms
        self.box = box
        self.exact = exact
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, spec, box=None):
        return cls(spec, {}, box=box, exact=True)

    @classmethod
    def constant(cls, spec, value, box=None):
        return cls(spec, {(0,) * spec.n: value}, box=box, exact=True)

    @classmethod
    def monomial(cls, spec, exponent, coeff=1, box=None):
        return cls(spec, {tuple(exponent): coeff}, box=box, exact=True)

    @classmethod
    def variable(cls, spec, name, box=None):
        return cls.monomial(spec, spec.unit(name), box=box)

    # ------------------------------------------------------------------
    # basic queries

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def with_box(self, box):
        """Re-truncate to a (usually smaller) box; the guarantee persists."""
        if self.exact:
            return Series(self.spec, self.terms, box=box, exact=True)
        merged = self.box.intersect(box)
        if merged is None:
            raise OutOfPrecision("no overlap with the guaranteed box")
        return Series(self.spec, self.terms, box=merged, exact=False)

    def initial_term(self):
        """Exponent and coefficient of the least stored term."""
        if not self.terms:
            raise ZeroSeries("zero series has no initial term")
        best = min(self.terms, key=self._order_key)
        return best, self.terms[best]

    def _order_key(self, exponent):
        """Sort key of the field's term order: revlex on phi, most
        significant coordinate first."""
        return self.spec.phi(exponent)[::-1]

    def order(self):
        return self.initial_term()[0]

    def _fit(self, exponent):
        """``exponent`` as a tuple; SpecMismatch unless it fits the field."""
        exponent = tuple(exponent)
        if len(exponent) != self.spec.n:
            raise SpecMismatch(
                f"exponent {exponent} does not fit a {self.spec.n}-variable field"
            )
        return exponent

    def coefficient(self, exponent):
        """Coefficient at an exponent; OutOfPrecision outside the guarantee."""
        exponent = self._fit(exponent)
        if not self.exact and not self.box.contains(self.spec.phi(exponent)):
            raise OutOfPrecision(f"exponent {exponent} is outside the guaranteed box")
        return self.terms.get(exponent, 0)

    def guarantees(self, exponent):
        exponent = self._fit(exponent)
        return self.exact or self.box.contains(self.spec.phi(exponent))

    # ------------------------------------------------------------------
    # ring structure

    def _require_same_spec(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("series live in different fields")

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        self._require_same_spec(other)
        exact = self.exact and other.exact
        box = _meet_boxes(self, other)
        terms = dict(self.terms)
        for exponent, value in other.terms.items():
            terms[exponent] = terms.get(exponent, 0) + value
        return Series(self.spec, terms, box=box, exact=exact)

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.spec,
            {k: -v for k, v in self.terms.items()},
            box=self.box,
            exact=self.exact,
        )

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value):
        value = _coeff(value)
        if value == 0:
            return Series(self.spec, {}, box=self.box, exact=self.exact)
        return Series(
            self.spec,
            {k: v * value for k, v in self.terms.items()},
            box=self.box,
            exact=self.exact,
        )

    def shift(self, exponent):
        """Multiply by the monomial x^exponent (exactness preserved)."""
        exponent = tuple(exponent)
        moved = {_vec_add(k, exponent): v for k, v in self.terms.items()}
        return Series(
            self.spec,
            moved,
            box=self.box.shift(self.spec.phi(exponent)),
            exact=self.exact,
        )

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        return multiply(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise UsageError("series powers must be integers")
        if n < 0:
            return self.invert() ** (-n)
        result = Series.constant(self.spec, 1, box=self.box)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert()
        return self.scale(_recip(other))

    def __rtruediv__(self, other):
        return self.invert().scale(other)

    def invert(self):
        """Multiplicative inverse, truncated to the shifted box.

        Writes the series as c·x^m·(1 - tau) with ord(tau) positive and
        solves g = 1 + prune(tau·g) in term order (``_invert_recurrence``);
        only finitely many box points are reachable, so it terminates.
        """
        if not self.terms:
            if self.exact:
                raise ZeroDivisor("cannot invert the zero series")
            raise OutOfPrecision("no initial term visible inside the box")
        spec = self.spec
        m, c = self.initial_term()
        inv_c = _recip(c)
        result_box = self.box.shift(_vec_neg(spec.phi(m)))
        if len(self.terms) == 1:
            return Series(spec, {_vec_neg(m): inv_c}, box=result_box, exact=self.exact)
        tau = {}
        for exponent, value in self.terms.items():
            if exponent == m:
                continue
            tau[_vec_sub(exponent, m)] = _coeff(-Fraction(value) * inv_c)
        total = _invert_recurrence(spec, tau, self.box)
        zero = (0,) * spec.n
        if not self.box.contains(zero):
            # the recurrence seeds the origin even when the box misses it;
            # every other term it returns lies inside the box
            del total[zero]
        shifted = {_vec_sub(k, m): _coeff(v * Fraction(inv_c)) for k, v in total.items()}
        return Series._trusted(spec, shifted, result_box, False)

    def compose_stream(self, coefficients):
        """Sum coefficients(n)·self^n for n ≥ 0; needs ord(self) > 0."""
        spec = self.spec
        if self.terms:
            m, _ = self.initial_term()
            if not spec.is_positive(m):
                raise NonpositiveOrder(
                    f"composition needs positive order, initial exponent is {m}"
                )
        total = _geometric_sum(spec, self.terms, self.box, coefficients)
        return Series(spec, total, box=self.box, exact=False)

    def derivative(self, name):
        """Termwise d/dx on the named variable's exponent."""
        i = self.spec.index(name)
        unit = self.spec.unit(name)
        out = {}
        for exponent, value in self.terms.items():
            e = exponent[i]
            if e:
                out[_vec_sub(exponent, unit)] = value * e
        box = self.box.shift(_vec_neg(self.spec.phi(unit)))
        return Series(self.spec, out, box=box, exact=self.exact)

    # ------------------------------------------------------------------
    # coefficient extraction

    def _selected_indices(self, names):
        indices = []
        for name in names:
            i = self.spec.index(name)
            if i in indices:
                raise UsageError(f"variable {name!r} selected twice")
            indices.append(i)
        return indices

    def _project(self, names, want):
        """Terms whose named exponents equal ``want`` (one exponent per
        name), as a series over the remaining variables."""
        spec = self.spec
        selected = self._selected_indices(names)
        keep = [i for i in range(spec.n) if i not in selected]
        if not keep:
            raise UsageError(
                "projection must leave at least one variable; "
                "use coefficient() for a full constant term"
            )
        residual = FieldSpec(
            tuple(spec.variables[i] for i in keep),
            tuple(tuple(spec.twist[i][j] for j in keep) for i in keep),
        )
        want = tuple(want)
        out = {}
        for exponent, value in self.terms.items():
            if tuple(exponent[i] for i in selected) == want:
                out[tuple(exponent[i] for i in keep)] = value
        return Series(residual, out, box=self.box.project(keep), exact=self.exact)

    def ct(self, names):
        """Constant term in the named variables, projected out."""
        return self._project(names, (0,) * len(names))

    def res(self, names):
        """Residue (coefficient of exponent -1) in the named variables."""
        return self._project(names, (-1,) * len(names))

    def extract(self, names, want):
        """CT (``want=0``) or Res (``want=-1``) in the named variables.

        A coefficient when every variable is named, else a series over the
        remaining variables.
        """
        if len(self._selected_indices(names)) == self.spec.n:
            return self.coefficient((want,) * self.spec.n)
        return self._project(names, (want,) * len(names))

    def ct_scalar(self):
        """Constant term in all variables, as a coefficient."""
        return self.coefficient((0,) * self.spec.n)

    def res_scalar(self):
        """Residue in all variables, as a coefficient."""
        return self.coefficient((-1,) * self.spec.n)

    def x_initial_term(self, names):
        """The x-term of least order, split into exponent and coefficient.

        Returns ``(leading_exponent, x_exponents, coefficient_series)`` where
        ``leading_exponent`` is the full exponent vector of the least stored
        term, ``x_exponents`` its restriction to the named variables, and the
        coefficient series collects every stored term sharing that x-part,
        projected onto the remaining variables.
        """
        if not self.terms:
            raise ZeroSeries("zero series has no x-initial term")
        selected = self._selected_indices(names)
        leading, _ = self.initial_term()
        xpart = tuple(leading[i] for i in selected)
        if len(selected) == self.spec.n:
            return leading, xpart, None
        return leading, xpart, self._project(names, xpart)

    # ------------------------------------------------------------------
    # comparison and presentation

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.terms == other.terms
            and self.box == other.box
            and self.exact == other.exact
        )

    __hash__ = None

    def equals_on(self, other, box=None):
        """Mathematical equality on the common guaranteed region."""
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        self._require_same_spec(other)
        region = box
        for side in (self, other):
            if not side.exact:
                region = side.box if region is None else region.intersect(side.box)
                if region is None:
                    raise OutOfPrecision("no common guaranteed box to compare on")
        spec = self.spec
        for exponent in set(self.terms) | set(other.terms):
            if region is not None and not region.contains(spec.phi(exponent)):
                continue
            if self.terms.get(exponent, 0) != other.terms.get(exponent, 0):
                return False
        return True

    def is_zero_on(self, box=None):
        return self.equals_on(Series.zero(self.spec, box=self.box), box=box)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self._order_key(item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exponent, value in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.spec.variables, exponent)
                if e != 0
            )
            if not mono:
                text = str(value)
            elif value == 1:
                text = mono
            elif value == -1:
                text = "-" + mono
            else:
                text = f"{value}*{mono}"
            if parts:
                if text.startswith("-"):
                    parts.append(" - " + text[1:])
                else:
                    parts.append(" + " + text)
            else:
                parts.append(text)
        return "".join(parts)

    def __repr__(self):
        flag = "exact" if self.exact else "truncated"
        return f"Series({self!s} | {','.join(self.spec.variables)} | {flag})"

    def to_json(self):
        return {
            "vars": list(self.spec.variables),
            "twist": [list(row) for row in self.spec.twist],
            "terms": [
                {"exp": list(exponent), "coeff": str(Fraction(value))}
                for exponent, value in self.sorted_terms()
            ],
            "box": self.box.to_json(),
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, data):
        spec = FieldSpec(
            tuple(data["vars"]), tuple(tuple(row) for row in data["twist"])
        )
        box = Box(tuple((lo, hi) for lo, hi in data["box"]))
        terms = {
            tuple(item["exp"]): Fraction(item["coeff"]) for item in data["terms"]
        }
        return cls(spec, terms, box=box, exact=data["exact"])


# ----------------------------------------------------------------------
# multiplication

def _meet_boxes(a, b):
    box = a.box.intersect(b.box)
    if box is None:
        if a.exact and b.exact:
            return a.box
        raise OutOfPrecision("operand boxes do not overlap")
    return box


def _lcm(a, b):
    return a * b // gcd(a, b)


def _int_normal(terms):
    """Factor out the common denominator: (den, integer term dict)."""
    den = 1
    for value in terms.values():
        if type(value) is not int and isinstance(value, Fraction):
            den = _lcm(den, value.denominator)
    if den == 1:
        return 1, terms
    out = {}
    for exponent, value in terms.items():
        if type(value) is not int and isinstance(value, Fraction):
            out[exponent] = value.numerator * (den // value.denominator)
        else:
            out[exponent] = value * den
    return den, out


def _convolve(spec, aterms, bterms, keep):
    """Raw convolution of sparse term dicts, pruned to ``keep`` if given.

    The pair loop runs on integers (common denominators pulled out first);
    rational normalization happens once per output term, not once per pair.
    """
    int_add = _int_add
    if not aterms or not bterms:
        return {}
    if len(aterms) > len(bterms):
        aterms, bterms = bterms, aterms
    da, aterms = _int_normal(aterms)
    db, bterms = _int_normal(bterms)
    out = {}
    get = out.get
    if keep is None:
        bitems = list(bterms.items())
        for ka, va in aterms.items():
            for kb, vb in bitems:
                key = tuple(map(int_add, ka, kb))
                out[key] = get(key, 0) + va * vb
    else:
        bounds = keep.bounds
        # sort by the most significant phi-coordinate so each outer term only
        # scans the admissible band
        bphi = sorted(
            ((spec.phi(k), k, v) for k, v in bterms.items()),
            key=lambda item: item[0][-1],
        )
        blast = [item[0][-1] for item in bphi]
        lo_last, hi_last = bounds[-1]
        for ka, va in aterms.items():
            pa = spec.phi(ka)
            shifted = tuple((lo - x, hi - x) for (lo, hi), x in zip(bounds, pa))
            start = bisect_left(blast, lo_last - pa[-1])
            stop = bisect_right(blast, hi_last - pa[-1])
            for pb, kb, vb in bphi[start:stop]:
                ok = True
                for y, (lo, hi) in zip(pb, shifted):
                    if y < lo or y > hi:
                        ok = False
                        break
                if not ok:
                    continue
                key = tuple(map(int_add, ka, kb))
                out[key] = get(key, 0) + va * vb
    scale = da * db
    if scale == 1:
        return {k: v for k, v in out.items() if v != 0}
    return {k: _coeff(Fraction(v, scale)) for k, v in out.items() if v != 0}


def det(matrix):
    """Determinant of a square matrix of series, by cofactor expansion."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = multiply(entry, det(minor))
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return Series.zero(matrix[0][0].spec, box=matrix[0][0].box)
    return total


def multiply(a, b, box=None):
    """Product with shift-and-intersect box propagation.

    ``box`` optionally clips the claimed result box further.
    """
    a._require_same_spec(b)
    spec = a.spec
    if a.exact and b.exact:
        result_box = _meet_boxes(a, b)
        if box is not None:
            clipped = result_box.intersect(box)
            result_box = clipped if clipped is not None else result_box
        return Series._trusted(spec, _convolve(spec, a.terms, b.terms, None),
                               result_box, True)
    if (a.exact and not a.terms) or (b.exact and not b.terms):
        return Series.zero(spec, box=_meet_boxes(a, b))
    candidates = []
    for mine, other in ((a, b), (b, a)):
        if mine.exact:
            continue
        if other.exact:
            for exponent in other.terms:
                candidates.append(mine.box.shift(spec.phi(exponent)))
        elif other.terms:
            initial, _ = other.initial_term()
            candidates.append(mine.box.shift(spec.phi(initial)))
        else:
            candidates.append(mine.box)
    result_box = candidates[0]
    for candidate in candidates[1:]:
        result_box = result_box.intersect(candidate)
        if result_box is None:
            raise OutOfPrecision("product has no guaranteed region")
    if box is not None:
        result_box = result_box.intersect(box)
        if result_box is None:
            raise OutOfPrecision("product has no guaranteed region in the given box")
    # _convolve prunes every pair to result_box and normalizes each term
    terms = _convolve(spec, a.terms, b.terms, result_box)
    return Series._trusted(spec, terms, result_box, False)


# ----------------------------------------------------------------------
# geometric machinery

def _geometric_sum(spec, tau, box, coefficients):
    """Sum of coefficients(n)·tau^n pruned to ``box``.

    Requires every exponent of ``tau`` to be revlex-positive through the
    twist; the pruned powers then provably die out (only finitely many sums
    of elements of a finite positive set fit inside a fixed box).
    """
    zero = (0,) * spec.n
    total = {}
    c0 = _coeff(coefficients(0))
    if c0 != 0:
        total[zero] = c0
    if not tau:
        return total
    power = {zero: 1}
    n = 0
    while power:
        n += 1
        power = _convolve(spec, power, tau, box)
        if not power:
            break
        cn = _coeff(coefficients(n))
        if cn != 0:
            for exponent, value in power.items():
                total[exponent] = total.get(exponent, 0) + value * cn
    return {k: v for k, v in total.items() if v != 0}


def _invert_recurrence(spec, tau, box):
    """Solve g = 1 + prune(tau·g) one coefficient at a time, in term order.

    ``g_e`` sums, over the sequences of ``tau`` exponents that add up to
    ``e`` with every nonempty prefix sum in ``box``, the products of their
    coefficients: the terms of the box-pruned power sum
    ``_geometric_sum(spec, tau, box, lambda n: 1)``, which starts from the
    origin whether or not ``box`` contains it.  Each nonzero ``g_e`` is
    pushed to every ``e + a`` inside ``box``; a heap keyed by reversed phi
    pops pending exponents in increasing term order, so all predecessors of
    an exponent are final when it is popped.  Phi-images are carried along
    (``phi(e + a) = phi(e) + phi(a)``).  Only finitely many box points are
    reachable, so the loop ends.

    As in ``_convolve``, the loop runs on integers: a pending coefficient is
    an integer numerator over ``den ** level``, with ``den`` the common
    denominator of ``tau``, and is normalized once, when it is popped.
    """
    zero = (0,) * spec.n
    bounds = box.bounds[::-1]
    den, tau = _int_normal(tau)
    steps = [(spec.phi(a)[::-1], a, value) for a, value in tau.items()]
    total = {zero: 1}
    pending = {}    # reversed phi -> [exponent, numerator, level]
    heap = []
    key, exponent, value, level = zero, zero, 1, 0
    while True:
        up = level + 1
        for step_key, step, step_value in steps:
            nxt = tuple(map(_int_add, key, step_key))
            for c, (lo, hi) in zip(nxt, bounds):
                if c < lo or c > hi:
                    break
            else:
                entry = pending.get(nxt)
                if entry is None:
                    pending[nxt] = [tuple(map(_int_add, exponent, step)),
                                    step_value * value, up]
                    heappush(heap, nxt)
                elif entry[2] >= up:
                    entry[1] += step_value * value * den ** (entry[2] - up)
                else:
                    entry[1] = entry[1] * den ** (up - entry[2]) + step_value * value
                    entry[2] = up
        while heap:
            key = heappop(heap)
            exponent, value, level = pending.pop(key)
            if value:
                total[exponent] = _coeff(Fraction(value, den ** level))
                break
        else:
            return total


def exp_of(series):
    """exp applied to a positive-order series."""
    return series.compose_stream(lambda n: Fraction(1, factorial(n)))


def log_of(series):
    """log of a series whose initial term is exactly 1."""
    if not series.terms:
        raise BadInitialTerm("log needs initial term 1, series is zero")
    exponent, value = series.initial_term()
    if any(exponent) or value != 1:
        raise BadInitialTerm(f"log needs initial term 1, found {value} at {exponent}")
    tail = series - Series.constant(series.spec, 1, box=series.box)
    return tail.compose_stream(lambda n: Fraction((-1) ** (n + 1), n) if n else 0)
