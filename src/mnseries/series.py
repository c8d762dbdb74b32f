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
recurrence pushes only exponents inside the box (and stores the origin it
starts from only when the box holds it).

A ``Series`` is a value: its fields are never changed after construction.
So ``invert()`` and ``derivative(name)`` are computed once per object and
returned again on later calls on that same object (never on an equal one);
a refusal is not stored and is raised again on every call.

Box propagation through products follows the shift-and-intersect rule: each
factor's box is shifted by the other factor's initial phi-exponent, or — when
the other factor is exact, hence has fully known finite support — by every
exponent of that support, and everything is intersected (``_product_box``).
``multiply_extract`` reads a CT/Res slice of a product on that box without
forming the product.  One body, ``Series._reciprocal_power``, makes every
inverse and every negative power of a series with two or more terms: it
writes the series as c·x^m·(1 - tau) and returns c^(-p)·x^(-p·m)·(1 - tau)^(-p).
Its kernel, ``_invert_recurrence``, takes tau's steps and keys and solves
g = 1 + prune(tau·g) one coefficient at a time, in increasing term order, on
packed integer keys.  p ≥ 2 and stream composition (exp, log) run it on tau
lifted by a path-length coordinate, so each box-pruned power gets its own
coefficient.  The recurrence terminates because only finitely many sums of
elements from a finite revlex-positive set can stay inside a fixed box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, factorial, lcm, prod
from operator import add as _int_add, itemgetter, mul, sub

from .errors import (
    BadInitialTerm,
    NonpositiveOrder,
    OutOfPrecision,
    SpecMismatch,
    UsageError,
    ZeroDivisor,
    ZeroSeries,
)
from .ordering import Box, FieldSpec, rational_text, read_rational


def _coeff(value):
    """Normalize a coefficient: integral Fractions become plain ints; a bool
    or anything else but an int or a Fraction is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise UsageError(f"coefficient {value!r} is not an exact rational")


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class Series:
    """A truncated element of a twisted iterated Laurent field.

    An immutable value: ``spec``, ``terms``, ``box`` and ``exact`` are never
    changed after construction, so ``_memo`` (``None`` until first use)
    holds this object's inverse and derivatives once they are computed.
    """

    __slots__ = ("spec", "terms", "box", "exact", "_memo")

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
        self._memo = None

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
        self._memo = None
        return self

    def _remember(self, key, value):
        """Store ``value`` as this object's result for ``key`` and return it:
        ``None`` for the inverse, a variable's index for its derivative."""
        if self._memo is None:
            self._memo = {}
        self._memo[key] = value
        return value

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

    def initial_term(self):
        """Exponent and coefficient of the least stored term."""
        if not self.terms:
            raise ZeroSeries("zero series has no initial term")
        best = min(self.terms, key=self.spec.key)
        return best, self.terms[best]

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
        """The n-th power: n ≥ 0 by square-and-multiply, a negative one by
        ``_reciprocal_power``.

        A monomial and n = -1 take ``invert() ** -n``, which keeps a
        monomial's bookkeeping box.
        """
        if not isinstance(n, int):
            raise UsageError("series powers must be integers")
        if n < -1 and len(self.terms) > 1:
            return self._reciprocal_power(-n)
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return Series.constant(self.spec, 1, box=self.box)
        # square-and-multiply from the lowest set bit: no product by 1
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert()
        return self.scale(1 / Fraction(_coeff(other)))

    def __rtruediv__(self, other):
        return self.invert().scale(other)

    def invert(self):
        """Multiplicative inverse, truncated to the shifted box
        (``_reciprocal_power(1)``).

        Computed once per object; a refusal is raised again on every call.
        """
        if self._memo is not None and None in self._memo:
            return self._memo[None]
        return self._remember(None, self._reciprocal_power(1))

    def _reciprocal_power(self, p):
        """self^(-p), p ≥ 1: c^(-p)·x^(-p·m)·(1 - tau)^(-p) for self =
        c·x^m·(1 - tau) with ord(tau) positive.

        Each term is keyed once; tau's steps are e - m, keyed key(e) - key(m).
        p = 1 runs the recurrence g = 1 + prune(tau·g) with x^(-m) and c⁻¹
        folded into its normalization; p ≥ 2 is one ``compose_stream`` call
        on tau with the binomial weights C(j+p-1, p-1).  The walk stays in
        this series' box, and the result is claimed on that box shifted by
        -p·phi(m), the one place a reciprocal's claim is made.
        """
        if not self.terms:
            if self.exact:
                raise ZeroDivisor("cannot invert the zero series")
            raise OutOfPrecision("no initial term visible inside the box")
        spec = self.spec
        keys = {exponent: spec.key(exponent) for exponent in self.terms}
        m = min(keys, key=keys.get)
        c = Fraction(self.terms[m])
        shift = tuple(-p * x for x in m)
        box = self.box.shift(tuple(-p * x for x in reversed(keys[m])))
        lead = _coeff(c ** -p)
        if len(keys) == 1:
            return Series(spec, {shift: lead}, box=box, exact=self.exact)
        tau = {_vec_sub(e, m): _coeff(-v / c) for e, v in self.terms.items() if e != m}
        if p == 1:
            steps = {_vec_sub(e, m): _vec_sub(k, keys[m]) for e, k in keys.items() if e != m}
            total = _invert_recurrence(tau, steps, self.box, shift, lead)
            return Series._trusted(spec, total, box, False)
        # the recurrence's steps, not a series known on the box:
        # compose_stream reads only terms and box
        g = Series._trusted(spec, tau, self.box, self.exact).compose_stream(
            lambda j: comb(j + p - 1, p - 1))
        return Series._trusted(
            spec, {_vec_add(e, shift): _coeff(v * lead) for e, v in g.terms.items()},
            box, False)

    def compose_stream(self, coefficients):
        """Sum coefficients(n)·self^n for n ≥ 0, each power pruned to the
        box; needs ord(self) > 0.

        Hands self to the power-sum kernel (``_invert_recurrence``) as tau,
        lifted by a most significant coordinate that each step raises by 1:
        a path of n steps ends at (e, n), so the powers stay apart.
        """
        spec = self.spec
        keys = {e: spec.key(e) for e in self.terms}
        m = min(keys, key=keys.get, default=None)
        if m is not None and keys[m] <= (0,) * spec.n:
            raise NonpositiveOrder(
                f"composition needs positive order, initial exponent is {m}"
            )
        # a positive step rises in term order, so a path visits no box point
        # twice: its length is at most the number of points in the box
        length = prod(hi - lo + 1 for lo, hi in self.box.bounds)
        paths = _invert_recurrence({e + (1,): v for e, v in self.terms.items()},
                                   {e + (1,): (1,) + k for e, k in keys.items()},
                                   Box(self.box.bounds + ((0, length),)),
                                   (0,) * (spec.n + 1), 1)
        weights = [_coeff(coefficients(n))
                   for n in range(max((e[-1] for e in paths), default=0) + 1)]
        total = {}
        for e, value in paths.items():
            total[e[:-1]] = total.get(e[:-1], 0) + weights[e[-1]] * value
        return Series(spec, total, box=self.box, exact=False)

    def derivative(self, name):
        """Termwise d/dx on the named variable's exponent, computed once per
        object and variable."""
        i = self.spec.index(name)
        if self._memo is not None and i in self._memo:
            return self._memo[i]
        unit = self.spec.unit(name)
        out = {}
        for exponent, value in self.terms.items():
            e = exponent[i]
            if e:
                out[_vec_sub(exponent, unit)] = value * e
        box = self.box.shift(tuple(-x for x in self.spec.phi(unit)))
        return self._remember(i, Series(self.spec, out, box=box, exact=self.exact))

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

    def _wanted(self, names, want):
        """The named indices, one wanted exponent per name (``want``: one int
        for all, or one per name) and the exponent holding them, 0 elsewhere."""
        selected = self._selected_indices(names)
        if not selected:
            raise UsageError("name at least one variable to extract over")
        want = (want,) * len(selected) if isinstance(want, int) else tuple(want)
        if len(want) != len(selected):
            raise UsageError(f"need one wanted exponent per name, got {len(want)} "
                             f"for {len(selected)}")
        target = [0] * self.spec.n
        for i, w in zip(selected, want):
            target[i] = w
        return selected, want, tuple(target)

    def _project(self, names, want):
        """Terms whose named exponents equal ``want`` (one exponent per
        name), as a series over the remaining variables; on the identity
        twist, OutOfPrecision if one lies outside its variable's box interval."""
        spec = self.spec
        selected = self._selected_indices(names)
        want = tuple(want)
        if (not self.exact and spec.is_identity_twist()
                and not self.box.project(selected).contains(want)):
            raise OutOfPrecision(f"slice {want} in {', '.join(names)} is outside "
                                 "the guaranteed box")
        keep = [i for i in range(spec.n) if i not in selected]
        residual = FieldSpec(
            tuple(spec.variables[i] for i in keep),
            tuple(tuple(spec.twist[i][j] for j in keep) for i in keep),
        )
        out = {}
        for exponent, value in self.terms.items():
            if tuple(exponent[i] for i in selected) == want:
                out[tuple(exponent[i] for i in keep)] = value
        return Series(residual, out, box=self.box.project(keep), exact=self.exact)

    def extract(self, names, want):
        """CT (``want=0``) or Res (``want=-1``) in the named variables, or
        the coefficient of any exponents given one per name.

        A coefficient when every variable is named, else a series over the
        remaining variables.
        """
        selected, want, target = self._wanted(names, want)
        if len(selected) == self.spec.n:
            return self.coefficient(target)
        return self._project(names, want)

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
        if box is not None and len(box) != self.spec.n:
            raise SpecMismatch("box dimension does not match the field")
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
        return sorted(self.terms.items(), key=lambda item: self.spec.key(item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exponent, value in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{rational_text(e)}"
                for name, e in zip(self.spec.variables, exponent)
                if e != 0
            )
            if not mono:
                text = rational_text(value)
            elif value == 1:
                text = mono
            elif value == -1:
                text = "-" + mono
            else:
                text = f"{rational_text(value)}*{mono}"
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
                {"exp": list(exponent), "coeff": rational_text(value)}
                for exponent, value in self.sorted_terms()
            ],
            "box": self.box.to_json(),
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, data):
        """The series a ``to_json`` document describes; UsageError if the
        document is malformed."""
        def ints(values):
            values = tuple(values)
            if not all(type(v) is int for v in values):
                raise UsageError(f"expected integers, got {list(values)!r}")
            return values

        try:
            spec = FieldSpec(
                tuple(data["vars"]), tuple(ints(row) for row in data["twist"])
            )
            box = Box(tuple(ints(bounds) for bounds in data["box"]))
            terms = {
                ints(item["exp"]): read_rational(item["coeff"]) for item in data["terms"]
            }
            exact = data["exact"]
            if type(exact) is not bool:
                raise UsageError(f"expected true or false for exact, got {exact!r}")
        except KeyError as exc:
            raise UsageError(f"series document lacks the key {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed series document: {exc}") from None
        return cls(spec, terms, box=box, exact=exact)


# ----------------------------------------------------------------------
# multiplication

def _meet_boxes(a, b):
    box = a.box.intersect(b.box)
    if box is None:
        if a.exact and b.exact:
            return a.box
        raise OutOfPrecision("operand boxes do not overlap")
    return box


def _int_normal(terms):
    """Factor out the common denominator: (den, integer term dict)."""
    den = 1
    for value in terms.values():
        if type(value) is not int:
            den = lcm(den, value.denominator)
    if den == 1:
        return 1, terms
    return den, {e: v.numerator * (den // v.denominator) for e, v in terms.items()}


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


def _product_box(a, b):
    """``(box, exact)`` of the product: shift-and-intersect, or the met boxes
    of an exact product or of one with an exact zero operand."""
    a._require_same_spec(b)
    if (a.exact and (b.exact or not a.terms)) or (b.exact and not b.terms):
        return _meet_boxes(a, b), True
    spec = a.spec
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
    return result_box, False


def multiply(a, b):
    """Product with shift-and-intersect box propagation."""
    box, exact = _product_box(a, b)
    # _convolve prunes every pair to a truncated product's box and
    # normalizes each term
    terms = _convolve(a.spec, a.terms, b.terms, None if exact else box)
    return Series._trusted(a.spec, terms, box, exact)


def multiply_extract(a, b, names, want):
    """``multiply(a, b).extract(names, want)``, read without forming the
    product: only the pairs whose named exponents add up to ``want``, kept
    where ``multiply`` keeps them and handed to ``extract``."""
    box, exact = _product_box(a, b)
    selected, want, target = a._wanted(names, want)
    aterms, bterms = a.terms, b.terms
    if len(aterms) > len(bterms):
        aterms, bterms = bterms, aterms
    named = itemgetter(*selected)
    partners = {}               # named part a partner needs -> smaller's terms
    for ka, va in aterms.items():
        partners.setdefault(named(tuple(map(sub, target, ka))), []).append((ka, va))
    out = {}
    for kb, vb in bterms.items():
        for ka, va in partners.get(named(kb), ()):
            e = tuple(map(_int_add, ka, kb))
            out[e] = out.get(e, 0) + va * vb
    # Series(...) keeps, as multiply's pair filter does, only what is in the box
    return Series(a.spec, out, box=box, exact=exact).extract(names, want)


# ----------------------------------------------------------------------
# inversion and composition

def _invert_recurrence(tau, keys, box, start, scale):
    """Terms of scale·x^start·g, g = 1/(1 - tau) = 1 + prune(tau·g).

    ``tau`` maps each step, an exponent positive in term order, to its
    coefficient, and ``keys`` maps it to its ``FieldSpec.key``.  This is the
    engine's one box-pruned power sum (every coefficient 1;
    ``Series.compose_stream`` weights each power): ``g_e`` sums the
    coefficient products of the tau paths to ``e`` whose every nonempty
    prefix sum lies in ``box``.  A heap pops exponents in term order, each
    after its predecessors, from the origin (stored only if ``box`` holds
    it) on, and pushes each nonzero ``g_e`` along every step that stays in
    ``box``.  Carried exponents start at ``start``, and ``scale`` joins the
    one normalization of each popped coefficient, an integer numerator over
    ``den ** level`` (``den``: tau's common denominator).

    Keys are packed into ints sum_j (k_j - lo_j)·W_j, W_j the product of the
    less significant box widths: in the box, int order is term order and a
    step adds its packed key.  A packed sum can wrap into the next field, so
    each popped term ANDs per-coordinate bitsets (filled lazily, per digit)
    of the steps that keep that coordinate inside, and takes the step list
    cached per bitset: a candidate costs one int add and one dict lookup.
    """
    den, tau = _int_normal(tau)
    bounds = box.bounds[::-1]
    widths = [hi - lo + 1 for lo, hi in bounds]
    weights = [prod(widths[j + 1:]) for j in range(len(widths))]
    moves = [keys[e] for e in tau]
    steps = [(sum(map(mul, k, weights)), e, v) for k, (e, v) in zip(moves, tau.items())]
    columns = list(zip(*moves))
    tables = [{} for _ in bounds]   # per coordinate: digit -> bitset of steps
    chosen = {}                     # bitset -> its steps
    pending = {}                    # packed key -> [exponent, numerator, level]
    heap = []
    exponent, value, level = start, 1, 0
    total = {start: scale} if box.contains((0,) * len(box)) else {}
    num, dnm = scale.numerator, scale.denominator
    digits = [-lo for lo, _ in bounds]
    key = sum(map(mul, digits, weights))
    while True:
        mask = -1
        for table, column, width, d in zip(tables, columns, widths, digits):
            bits = table.get(d)
            if bits is None:
                bits = table[d] = sum(1 << i for i, a in enumerate(column)
                                      if 0 <= d + a < width)
            mask &= bits
        admissible = chosen.get(mask)
        if admissible is None:
            admissible = chosen[mask] = [s for i, s in enumerate(steps) if mask >> i & 1]
        up = level + 1
        for step_key, step, step_value in admissible:
            nxt = key + step_key
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
                total[exponent] = _coeff(Fraction(value * num, den ** level * dnm))
                break
        else:
            return total
        digits = [key // w % width for w, width in zip(weights, widths)]


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
