"""Truncated Malcev-Neumann series with exact rational coefficients.

A ``Series`` is a sparse map from exponent vectors to nonzero exact rational
coefficients (``Fraction``, or ``int`` when integral), attached to a
``FieldSpec`` (which fixes the term order) and a claim, an ``ordering.Region``
(a box, or exact everywhere), where the stored coefficients agree with the
untruncated series; every claim rule is a ``Region`` method.  A ``Series``
is a value, never changed after construction, so ``invert()`` and
``initial_term()`` are computed once per object (never for an equal one) and
a refusal is raised again on every call; the residue module stores a
substitution's Jacobian data in its first series.

One term filter, ``_kept``: normalize each coefficient (``_coeff``), drop the
zeros and keep the terms the claim holds.  ``Series(...)`` runs it after
checking its input (exponent lengths and entries, coefficient types), and
sums, ``chain_extract``'s slice and ``_project`` through ``Series._filtered``.
What holds it by construction is built as it is, ``Series._trusted``:
``_convolve`` keeps only the pairs whose phi lies in the box, a product by an
exact one-term factor c·x^m shifts the other's terms by m into its claim
shifted by phi(m), the power-sum kernel pushes only exponents inside the box
(and stores the origin only when the box holds it), a negation, a nonzero
scale, a shift and a derivative move each term with the claim, and a
one-term reciprocal's term, at -p·phi(m), lies in its claim as phi(m) lies
in the series' box.

Every CT, Res or coefficient of a product is read by one pruned chain,
``chain_extract``: ``Region.product`` is folded over the factors before any
pair is tested, each partial product keeps only the terms that can still
reach the wanted slice, the last factor is met without forming the
product, and the slice is read by ``extract``'s tail, ``Series._read``.
Dyson's constant term runs its term-dict core, ``_chain_terms``.

Both pruned kernels, ``_packed_keep`` (``_convolve`` from ``PACKED_PAIRS``
pairs on) and the inversion recurrence, pack phi into one int of guard-bit
fields, ``_packed_layout`` (Monagan and Pearce's packed exponent vectors),
and keep a sum in the box by two mask tests.

One body, ``Series._reciprocal_power``, makes every inverse and every
negative power: it writes the series as c·x^m·(1 - tau) and returns
c^(-p)·x^(-p·m)·(1 - tau)^(-p) from one ``_power_sum`` call.  Its kernel,
``_invert_recurrence``, solves g = 1 + prune(tau·g) one coefficient at a time,
in increasing term order, on reduced integer numerators.  p ≥ 2 and stream
composition (exp, log) run it on tau lifted by a path-length coordinate, so
each box-pruned power gets its own coefficient.  A one-step tau has one
path of each length, so ``_power_sum`` sums it along its ray in closed form
(``_ray``), with the recurrence's items, order and types.  The recurrence
terminates because only finitely many sums of elements from a finite
revlex-positive set can stay inside a fixed box.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import chain
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
from .ordering import (Box, FieldSpec, Region, name_tuple, pivot_columns, rational_text,
                       read_rational)


def _coeff(value):
    """Normalize a coefficient: integral Fractions become plain ints; a bool
    or anything else but an int or a Fraction is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise UsageError(f"coefficient {value!r} is not an exact rational")


def _ratio(n, d):
    """n/d for ints n and d > 0: the quotient if d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _exponents(exponents, n):
    """``exponents`` as a list of tuples of ``n`` ints (a bool is not one)."""
    exponents = [tuple(e) for e in exponents]
    for e in exponents:
        if len(e) != n:
            raise SpecMismatch(f"exponent {e} does not fit a {n}-variable field")
    # one pass over all entries: a check per exponent made Series(...) 1.6x slower
    if not {int}.issuperset(map(type, chain.from_iterable(exponents))):
        raise UsageError("exponent entries must be integers")
    return exponents


def _kept(spec, items, region):
    """The one term filter: the (exponent, value) pairs whose exponent
    ``region`` contains and whose ``_coeff``-normalized value is not 0."""
    terms = {}
    for exponent, value in items:
        value = _coeff(value)
        if value != 0 and region.contains(spec, exponent):
            terms[exponent] = value
    return terms


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class Series:
    """A truncated element of a twisted iterated Laurent field.

    An immutable value: ``spec``, ``terms`` and ``region`` (``box`` and
    ``exact`` read it) are never changed after construction, so ``_memo``
    (``None`` until first use) holds this object's inverse (key ``None``),
    initial term (``"initial"``) and, under tuple keys, the results of
    substitutions it heads.
    """

    __slots__ = ("spec", "terms", "region", "_memo")

    def __init__(self, spec, terms, box=None, exact=True):
        if type(exact) is not bool:
            raise UsageError(f"expected true or false for exact, got {exact!r}")
        box = spec.default_box() if box is None else box
        if len(box) != spec.n:
            raise SpecMismatch("box dimension does not match the field")
        self.spec = spec
        self.region = Region(box, exact)
        self.terms = _kept(spec, zip(_exponents(terms, spec.n), terms.values()), self.region)
        self._memo = None

    @classmethod
    def _trusted(cls, spec, terms, region):
        """A series from an engine result, taken as it is: nothing is
        checked, so ``terms`` must already be what ``_kept`` keeps, with tuple
        exponents of the field's length (see the module docstring)."""
        self = object.__new__(cls)
        self.spec = spec
        self.terms = terms
        self.region = region
        self._memo = None
        return self

    @classmethod
    def _filtered(cls, spec, items, region):
        """A series of an engine result's (exponent, value) pairs, ``_kept``."""
        return cls._trusted(spec, _kept(spec, items, region), region)

    @property
    def box(self):
        return self.region.box

    @property
    def exact(self):
        return self.region.exact

    def _remember(self, key, value):
        """Store ``value`` under ``key`` (see the class docstring) and return it."""
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
        """Exponent and coefficient of the least stored term, found once."""
        if self._memo is not None and "initial" in self._memo:
            return self._memo["initial"]
        if not self.terms:
            raise ZeroSeries("zero series has no initial term")
        best = min(self.terms, key=self.spec.key)
        return self._remember("initial", (best, self.terms[best]))

    def coefficient(self, exponent):
        """Coefficient at an exponent; OutOfPrecision outside the guarantee."""
        if not self.guarantees(exponent):
            raise OutOfPrecision(f"exponent {tuple(exponent)} is outside the guaranteed box")
        return self.terms.get(tuple(exponent), 0)

    def guarantees(self, exponent):
        [exponent] = _exponents([exponent], self.spec.n)
        return self.region.contains(self.spec, exponent)

    # ------------------------------------------------------------------
    # ring structure

    def _require_same_spec(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("series live in different fields")

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        self._require_same_spec(other)
        terms = dict(self.terms)
        for exponent, value in other.terms.items():
            terms[exponent] = terms.get(exponent, 0) + value
        return Series._filtered(self.spec, terms.items(), self.region.meet(other.region))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value):
        value = _coeff(value)
        terms = {k: _coeff(v * value) for k, v in self.terms.items()} if value else {}
        return Series._trusted(self.spec, terms, self.region)

    def shift(self, exponent):
        """Multiply by the monomial x^exponent (exactness preserved)."""
        [exponent] = _exponents([exponent], self.spec.n)
        moved = {_vec_add(k, exponent): v for k, v in self.terms.items()}
        return Series._trusted(self.spec, moved, self.region.shift(self.spec.phi(exponent)))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        return multiply(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n):
        """The n-th power: n ≥ 0 by square-and-multiply, n = -1 the stored
        ``invert()`` and n ≤ -2 ``_reciprocal_power(-n)``."""
        if type(n) is not int:
            raise UsageError("series powers must be integers")
        if n < 0:
            return self.invert() if n == -1 else self._reciprocal_power(-n)
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
        other = _coeff(other)
        if other == 0:
            raise ZeroDivisor("cannot divide by zero")
        return self.scale(1 / Fraction(other))

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

        Each term is keyed once, to find m; tau's steps are e - m.  One
        ``_power_sum`` call on tau, with x^(-p·m) and c^(-p) folded in, makes
        the result: p = 1 the plain recurrence g = 1 + prune(tau·g), p ≥ 2
        the lifted one with the binomial weights C(j+p-1, p-1).  tau's walk
        and the result's claim are ``Region.reciprocal``'s.
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
        down = tuple(-x for x in reversed(keys[m]))         # -phi(m)
        walk, region = self.region.reciprocal(p, down, len(keys) == 1)
        lead = _coeff(c ** -p)
        if len(keys) == 1:
            return Series._trusted(spec, {shift: lead}, region)
        tau = {_vec_sub(e, m): _coeff(-v / c) for e, v in self.terms.items() if e != m}
        weights = None if p == 1 else lambda j: comb(j + p - 1, p - 1)
        total = _power_sum(tau, spec, walk, weights, shift, lead)
        power = Series._trusted(spec, total, region)
        if p == 1 and total:    # stored in term order: the first item is the least
            power._remember("initial", next(iter(total.items())))
        return power

    def compose_stream(self, coefficients):
        """Sum coefficients(n)·self^n for n ≥ 0, each power pruned to the
        box (``_power_sum`` of tau = self from the origin, unscaled, on the
        walk and claim of 1/(1 - tau)); needs ord(self) > 0."""
        spec = self.spec
        key, m = min(((spec.key(e), e) for e in self.terms), default=(None, None))
        if m is not None and key <= (0,) * spec.n:
            raise NonpositiveOrder(
                f"composition needs positive order, initial exponent is {m}")
        walk, region = self.region.reciprocal(1, (0,) * spec.n, False)
        terms = _power_sum(self.terms, spec, walk, coefficients, (0,) * spec.n, 1)
        return Series._trusted(spec, terms, region)

    def derivative(self, name):
        """Termwise d/dx on the named variable's exponent."""
        i = self.spec.index(name)
        unit = self.spec.unit(name)
        out = {}
        for exponent, value in self.terms.items():
            e = exponent[i]
            if e:
                out[_vec_sub(exponent, unit)] = _coeff(value * e)
        region = self.region.shift(tuple(-x for x in self.spec.phi(unit)))
        return Series._trusted(self.spec, out, region)

    # ------------------------------------------------------------------
    # coefficient extraction

    def _selected_indices(self, names):
        indices = []
        for name in name_tuple(names):
            i = self.spec.index(name)
            if i in indices:
                raise UsageError(f"variable {name!r} selected twice")
            indices.append(i)
        return indices

    def _wanted(self, names, want):
        """The named indices, one wanted exponent per name (``want``: one int
        for all, or one per name) and the exponent holding them, 0 elsewhere;
        each wanted exponent passes ``_exponents``' int check."""
        selected = self._selected_indices(names)
        if not selected:
            raise UsageError("name at least one variable to extract over")
        want = tuple(want) if hasattr(want, "__iter__") else (want,) * len(selected)
        if len(want) != len(selected):
            raise UsageError(f"need one wanted exponent per name, got {len(want)} "
                             f"for {len(selected)}")
        target = [0] * self.spec.n
        for i, w in zip(selected, want):
            target[i] = w
        [target] = _exponents([target], self.spec.n)
        return selected, want, target

    def _project(self, selected, want, target):
        """Terms whose exponents at the ``selected`` indices equal ``want``
        (``target`` holds them, 0 elsewhere; ``_wanted`` returns all three),
        as a series over the remaining variables, in the field of the
        remaining rows at their ``pivot_columns`` (so the slice keeps the
        order the field induces on it), on ``Region.slice``'s claim."""
        spec = self.spec
        keep = [i for i in range(spec.n) if i not in selected]
        rows = [spec.twist[i] for i in keep]
        columns = pivot_columns(rows)
        names = ", ".join(spec.variables[i] for i in selected)
        region = self.region.slice(rows, columns, spec.phi(target),
                                   f"slice {want} in {names} is outside the guaranteed box")
        residual = FieldSpec(tuple(spec.variables[i] for i in keep),
                             tuple(tuple(row[j] for j in columns) for row in rows))
        out = ((tuple(exponent[i] for i in keep), value)
               for exponent, value in self.terms.items()
               if tuple(exponent[i] for i in selected) == want)
        return Series._filtered(residual, out, region)

    def extract(self, names, want):
        """CT (``want=0``) or Res (``want=-1``) in the named variables, or
        the coefficient of any exponents given one per name.

        A coefficient when every variable is named, else a series over the
        remaining variables.
        """
        return self._read(*self._wanted(names, want))

    def _read(self, selected, want, target):
        """``extract``'s answer for ``_wanted``'s triple."""
        if len(selected) == self.spec.n:
            return self.coefficient(target)
        return self._project(selected, want, target)

    # ------------------------------------------------------------------
    # comparison and presentation

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.terms == other.terms
            and self.region == other.region
        )

    __hash__ = None

    def equals_on(self, other, box=None):
        """Mathematical equality on the common guaranteed region."""
        if not isinstance(other, Series):
            other = Series.constant(self.spec, other, box=self.box)
        self._require_same_spec(other)
        if box is not None and len(box) != self.spec.n:
            raise SpecMismatch("box dimension does not match the field")
        refusal = "no common guaranteed box to compare on"
        region = self.region.meet(other.region, refusal)
        if box is not None:
            region = region.meet(Region(box, False), refusal)
        return all(self.terms.get(e, 0) == other.terms.get(e, 0)
                   for e in set(self.terms) | set(other.terms)
                   if region.contains(self.spec, e))

    def is_zero_on(self, box=None):
        return self.equals_on(Series.zero(self.spec, box=self.box), box=box)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self.spec.key(item[0]))

    def __str__(self):
        parts = []
        for exponent, value in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{rational_text(e)}"
                for name, e in zip(self.spec.variables, exponent)
                if e != 0
            )
            if not mono:
                parts.append(rational_text(value))
            elif value == 1:
                parts.append(mono)
            elif value == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{rational_text(value)}*{mono}")
        # a term's text has no spaces, so the replace rewrites only the joins
        return " + ".join(parts).replace(" + -", " - ") or "0"

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
        try:
            spec = FieldSpec(tuple(data["vars"]), tuple(map(tuple, data["twist"])))
            box = Box(tuple(map(tuple, data["box"])))
            terms = {tuple(item["exp"]): read_rational(item["coeff"])
                     for item in data["terms"]}
            exact = data["exact"]
        except KeyError as exc:
            raise UsageError(f"series document lacks the key {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed series document: {exc}") from None
        return cls(spec, terms, box=box, exact=exact)


# ----------------------------------------------------------------------
# multiplication

def _int_normal(terms):
    """Factor out the common denominator: (den, integer term dict)."""
    den = 1
    for value in terms.values():
        if type(value) is not int:
            den = lcm(den, value.denominator)
    if den == 1:
        return 1, terms
    return den, {e: v.numerator * (den // v.denominator) for e, v in terms.items()}


# A pruned product of at least this many pairs runs on packed phi keys: at
# the measured crossover, below it packing costs more than the pairs save.
PACKED_PAIRS = 64


def _convolve(spec, aterms, bterms, keep):
    """Raw convolution of sparse term dicts, pruned to ``keep`` if given.

    The pair loop runs on integers (common denominators pulled out first);
    rational normalization happens once per output term, not once per pair.
    A pruned call has two loops.  Below ``PACKED_PAIRS`` pairs it computes
    each term's phi once and tests every pair with the box, coordinate by
    coordinate; from ``PACKED_PAIRS`` on it runs ``_packed_keep``.  Packing
    costs a fixed few tens of microseconds a call, which small calls (most
    of a Dyson pass) do not repay and big ones (the lemma suite's
    determinants) repay threefold.
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
    elif len(aterms) * len(bterms) >= PACKED_PAIRS:
        out = _packed_keep(spec.twist, aterms, bterms, keep.bounds)
    else:
        bounds = keep.bounds
        bphi = [(spec.phi(k), k, v) for k, v in bterms.items()]
        for ka, va in aterms.items():
            shifted = tuple((lo - x, hi - x) for (lo, hi), x in zip(bounds, spec.phi(ka)))
            for pb, kb, vb in bphi:
                for y, (lo, hi) in zip(pb, shifted):
                    if y < lo or y > hi:
                        break
                else:
                    key = tuple(map(int_add, ka, kb))
                    out[key] = get(key, 0) + va * vb
    scale = da * db
    if scale == 1:
        return {k: v for k, v in out.items() if v != 0}
    return {k: _ratio(v, scale) for k, v in out.items() if v != 0}


def _phi_frame(twist, terms):
    """Per phi-coordinate, the least and greatest phi that ``terms``'
    exponent ranges allow through ``twist``."""
    exponents = list(zip(*terms))
    los, his = [0] * len(twist), [0] * len(twist)
    for lo, hi, row in zip(map(min, exponents), map(max, exponents), twist):
        for j, t in enumerate(row):
            if t:
                los[j] += min(t * lo, t * hi)
                his[j] += max(t * lo, t * hi)
    return list(zip(los, his))


def _packed_layout(twist, aframe, bterms, bounds):
    """The packed-key layout of both pruned kernels, for sums of an a-side
    within ``aframe`` (per phi-coordinate) and a term of the integer dict
    ``bterms``, tested against the box ``bounds``: ``(rows, abase, bbase,
    upper, lift, guard, (top, first, stop), bpacked, bkeys)``.

    Less both sides' lower ends, a sum's phi_j is an s_j in [0, span_j], and
    the box asks L_j <= s_j <= H_j (if no s_j can, the b-side is left
    empty).  Field j holds B_j value bits, 2^B_j > span_j, under one guard
    bit, the last phi-coordinate on top; e packs to e·rows.  An a-side key
    (e·rows - abase) plus ``upper`` (2^B_j - 1 - H_j per field) plus a
    b-side key has all guard bits clear iff every s_j <= H_j; plus ``lift``
    (to 2^B_j - L_j), all set iff every s_j >= L_j.  No carry crosses
    fields, so the test is exact for any box, twist and sign.  ``bpacked``
    is (e·rows - bbase, e, value) per b-term, sorted by key: an a-side key
    ``pa`` meets only the ``bkeys`` in [first - base, stop - base), base =
    pa - pa % top, that its top field allows.
    """
    weights = []
    abase = bbase = upper = lower = guard = shift = 0
    bframe = _phi_frame(twist, bterms)
    for (lo, hi), (alo, ahi), (blo, bhi) in zip(bounds, aframe, bframe):
        span = ahi - alo + bhi - blo
        low, high = max(lo - alo - blo, 0), min(hi - alo - blo, span)
        if low > high:
            bterms = {}         # no sum can be kept
        bits = span.bit_length()
        weight = 1 << shift
        weights.append(weight)
        abase += alo * weight
        bbase += blo * weight
        upper += ((1 << bits) - 1 - high) * weight
        lower += ((1 << bits) - low) * weight
        guard |= 1 << (shift + bits)
        shift += bits + 1
    rows = [sum(map(mul, row, weights)) for row in twist]
    bpacked = sorted(((sum(map(mul, kb, rows)) - bbase, kb, vb)
                      for kb, vb in bterms.items()), key=itemgetter(0))
    top = weights[-1]
    return (rows, abase, bbase, upper, lower - upper, guard,
            (top, low * top, (high + 1) * top),   # low, high: the top field's
            bpacked, [item[0] for item in bpacked])


def _packed_keep(twist, aterms, bterms, bounds):
    """The pairs of two integer term dicts whose phi-sum lies in ``bounds``,
    summed by exponent, zeros kept: ``_convolve``'s loop for big calls, on
    ``_packed_layout`` with the a-terms' ``_phi_frame``.  Equal packed sums
    are equal exponents, so each exponent tuple is built once per key."""
    rows, abase, _, upper, lift, guard, (top, first, stop), bpacked, bkeys = _packed_layout(
        twist, _phi_frame(twist, aterms), bterms, bounds)
    out = {}
    get = out.get
    for ka, va in aterms.items():
        pa = sum(map(mul, ka, rows)) - abase
        base = pa - pa % top
        ua = pa + upper
        for pb, kb, vb in bpacked[bisect_left(bkeys, first - base):
                                  bisect_left(bkeys, stop - base)]:
            key = ua + pb
            if key & guard or (key + lift) & guard != guard:
                continue
            entry = get(key)
            if entry is None:
                out[key] = [va * vb, ka, kb]
            else:
                entry[0] += va * vb
    return {tuple(map(_int_add, ka, kb)): v for v, ka, kb in out.values()}


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


def _phi_hull(spec, terms):
    """Per phi-coordinate, the least and greatest phi of ``terms``, or None."""
    return [(min(c), max(c)) for c in zip(*map(spec.phi, terms))] or None


def _hull_sum(a, b):
    return [(alo + blo, ahi + bhi) for (alo, ahi), (blo, bhi) in zip(a, b)]


def _claim(s, hull=True):
    """``(region, hull)``, what ``Region.product`` reads of ``s``: the phi hull
    of its support if it is exact, of its initial term if not; None if it
    has no terms, () if ``hull`` is false (no partner reads it)."""
    if not (s.terms and hull):
        return s.region, () if s.terms else None
    if s.exact:
        return s.region, _phi_hull(s.spec, s.terms)
    initial = s.spec.phi(s.initial_term()[0])
    return s.region, list(zip(initial, initial))


def _shifted(terms, one):
    """``terms`` times the one-term dict ``one``, in closed form."""
    [(m, c)] = one.items()
    return {tuple(map(_int_add, e, m)): _coeff(v * c) for e, v in terms.items()}


def multiply(a, b):
    """Product with shift-and-intersect box propagation.  An exact one-term
    operand shifts the other's terms (``_shifted``) into ``Region.product``'s
    claim, the other's claim shifted by its phi."""
    if not (isinstance(a, Series) and isinstance(b, Series)):
        raise UsageError("multiply takes two series")
    a._require_same_spec(b)
    region = Region.product(*_claim(a, not b.exact), *_claim(b, not a.exact))
    for one, other in ((a, b), (b, a)):
        if one.exact and len(one.terms) == 1:
            return Series._trusted(a.spec, _shifted(other.terms, one.terms), region)
    # _convolve prunes every pair to a truncated product's box and
    # normalizes each term
    terms = _convolve(a.spec, a.terms, b.terms, None if region.exact else region.box)
    return Series._trusted(a.spec, terms, region)


def _chain_claims(factors):
    """``(factors, hulls, boxes, region)`` of the product of the series
    ``factors``, left to right, or the refusal of ``reduce(multiply,
    factors)``, before any pair is tested.  ``Region.product`` is folded over
    the partial products: exact hulls add (extreme terms never cancel) and
    truncated initial terms add, unless an exact factor of more than one
    term drops the initial pair (ROADMAP item 1, face (c)): then the factors
    before the last truncated one are multiplied out first.  ``hulls[k]`` is
    factors[k]'s phi hull from k = 2 on; ``boxes[k - 1]`` is the box that
    ``multiply`` prunes factors[:k + 1]'s product to, None if it drops no pair.
    An empty ``factors``, where ``reduce`` raises TypeError, is refused.
    """
    factors = list(factors)
    if not factors or not all(isinstance(s, Series) for s in factors):
        raise UsageError("a chain multiplies a nonempty list of series")
    last = max((k for k, s in enumerate(factors) if not s.exact), default=0)
    if any(s.exact and len(s.terms) > 1 for s in factors[:last]):
        factors[:last] = [reduce(multiply, factors[:last])]
    truncated = sum(not s.exact for s in factors)
    hulls, boxes, claim, monomial = [], [], None, True
    for k, s in enumerate(factors):
        factors[0]._require_same_spec(s)
        # a hull is read against a truncated partner, now or later, and from
        # k = 2 on it bounds the reach
        own = _claim(s, truncated > (not s.exact) or (s.exact and k > 1))
        hulls.append(None if k < 2 else own[1] if s.exact else _phi_hull(s.spec, s.terms))
        one = s.exact and len(s.terms) == 1
        if k:
            region = Region.product(*claim, *own)
            boxes.append(None if region.exact or one or monomial else region.box)
            own = region, None if None in (claim[1], own[1]) else _hull_sum(claim[1], own[1])
        claim, monomial = own, monomial and one
    return factors, hulls, boxes, claim[0]


def _chain_terms(spec, factors, hulls, boxes, selected, target):
    """The terms of the product of the term dicts ``factors`` in the slice
    at the ``selected`` indices of ``target`` (not normalized), for
    ``_chain_claims``' ``hulls`` and ``boxes``.  A support lies in the
    Minkowski sum of its factors': on a phi-coordinate j that the slice pins
    (twist column j is 0 on every variable not selected), each partial
    product keeps phi_j(target) less the hulls still to come, in its box.
    A step with a one-term side that drops no pair is a shift.  The last
    factor is met by a dot product if every variable is selected, else by
    the terms' selected part, so the whole product is never formed.
    """
    if not all(factors):
        return {}
    n = spec.n
    partial, reach = factors[0], None
    for k, (factor, box) in enumerate(zip(factors[1:-1], boxes), 1):
        if box is None and 1 in (len(partial), len(factor)):
            partial = _shifted(partial, factor) if len(factor) == 1 else _shifted(factor, partial)
            continue
        if reach is None:           # per step and coordinate; None where free
            free = [row for i, row in enumerate(spec.twist) if i not in selected]
            pinned = [not any(row[j] for row in free) for j in range(n)]
            goal, reach, rest = spec.phi(target), [], [(0, 0)] * n
            for hull in reversed(hulls[2:]):
                rest = _hull_sum(rest, hull)
                reach.insert(0, [(g - high, g - low) if pin else None
                                 for g, (low, high), pin in zip(goal, rest, pinned)])
        bounds = reach[k - 1]
        if box is not None:
            bounds = [c if r is None else (max(c[0], r[0]), min(c[1], r[1]))
                      for c, r in zip(box.bounds, bounds)]
            if any(lo > hi for lo, hi in bounds):
                return {}
        partial = _convolve(spec, partial, factor, None if None in bounds else Box(tuple(bounds)))
    last = factors[-1] if len(factors) > 1 else {(0,) * n: 1}
    if len(partial) > len(last):
        partial, last = last, partial
    if len(selected) == n:
        get = last.get
        return {target: sum(v * w for e, v in partial.items()
                            if (w := get(tuple(map(sub, target, e)))))}
    named = itemgetter(*selected)
    partners = {}               # selected part a partner needs -> the smaller's terms
    for ka, va in partial.items():
        partners.setdefault(named(tuple(map(sub, target, ka))), []).append((ka, va))
    out = {}
    for kb, vb in last.items():
        for ka, va in partners.get(named(kb), ()):
            e = tuple(map(_int_add, ka, kb))
            out[e] = out.get(e, 0) + va * vb
    return out


def _chain_read(chain, names, want):
    """``extract(names, want)`` of the product ``_chain_claims`` folded."""
    factors, hulls, boxes, region = chain
    spec = factors[0].spec
    selected, want, target = factors[0]._wanted(names, want)
    terms = _chain_terms(spec, [s.terms for s in factors], hulls, boxes, selected, target)
    return Series._filtered(spec, terms.items(), region)._read(selected, want, target)


def chain_extract(factors, names, want):
    """``reduce(multiply, factors).extract(names, want)`` (the same terms, box
    and ``exact`` flag, or the same refusal; an empty ``factors`` is refused
    with UsageError), never forming the product."""
    return _chain_read(_chain_claims(factors), names, want)


# ----------------------------------------------------------------------
# inversion and composition

def _invert_recurrence(tau, twist, box, start, scale):
    """Terms of scale·x^start·g, g = 1/(1 - tau) = 1 + prune(tau·g).

    ``tau`` maps each step, an exponent positive in term order through
    ``twist``, to its coefficient.  This is the engine's one box-pruned power
    sum (every coefficient 1; ``_power_sum`` weights each power):
    ``g_e`` sums the coefficient products of the tau paths to ``e`` whose
    every nonempty prefix sum lies in ``box``.  A heap pops exponents in term
    order, each after its predecessors, from the origin (stored only if
    ``box`` holds it) on, and pushes each nonzero ``g_e`` along every step
    that stays in ``box``.  ``g_e`` is an integer over ``den ** level``
    (``den``: tau's common denominator), brought to its lowest level before
    it is stored or pushed.  Carried exponents start at ``start``, and
    ``scale`` joins each stored coefficient's one ``_ratio``.

    Keys are ``_packed_layout``'s, with tau's steps as the b-side and the
    a-side framed by the box joined with the origin, where every walked
    exponent lies, so int order is term order.  Each popped term keeps a
    step of its band by ``_packed_keep``'s two mask tests.
    """
    den, tau = _int_normal(tau)
    total = {start: scale} if box.contains((0,) * len(box)) else {}
    _, abase, bbase, upper, lift, guard, (top, first, stop), steps, keys = _packed_layout(
        twist, [(min(lo, 0), max(hi, 0)) for lo, hi in box.bounds], tau, box.bounds)
    # a term is keyed by the tested sum that reached it, which is its a-side
    # key less ``back`` (the origin's a-side key is -abase)
    back = bbase - upper
    pending = {}                    # packed key -> [exponent, numerator, level]
    heap = []
    key, exponent, value, level = -abase - back, start, 1, 0
    num, dnm = scale.numerator, scale.denominator
    while True:
        pa = key + back
        base = pa - pa % top
        ua = key + bbase
        up = level + 1
        for step_key, step, step_value in steps[bisect_left(keys, first - base):
                                                bisect_left(keys, stop - base)]:
            nxt = ua + step_key
            if nxt & guard or (nxt + lift) & guard != guard:
                continue
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
                while den != 1 and level and not value % den:   # lowest level
                    value //= den
                    level -= 1
                total[exponent] = _ratio(value * num, den ** level * dnm)
                break
        else:
            return total


def _ray(step, value, spec, box, weights, start, scale):
    """``_power_sum`` of the one-step tau {step: value}: its one path of j
    steps ends at start + j·step, so the sum is its nonzero terms along that
    ray in term order, each weights(j)·value^j·scale (weight 1 for the plain
    recurrence).  The origin is stored only if ``box`` holds it, and the ray
    stops at the first j·phi(step) outside ``box``, as the recurrence's
    pruning does: ``spec.phi`` is linear, so its last j is the least bound
    over phi's coordinates if phi(step) lies in ``box``, else 0."""
    rise = spec.phi(step)
    last = 0
    if box.contains(rise):
        # a positive step has a nonzero phi, so some coordinate bounds j
        last = min(hi // x if x > 0 else lo // x
                   for x, (lo, hi) in zip(rise, box.bounds) if x)
    total = {}
    exponent, power = start, 1                      # start + j·step, value^j
    for j in range(last + 1):
        if j:
            exponent = tuple(map(_int_add, exponent, step))
            power *= value
        elif not box.contains((0,) * len(rise)):
            continue
        weight = 1 if weights is None else _coeff(weights(j))
        term = _coeff(_coeff(weight * scale) * power)
        if term:
            total[exponent] = term
    return total


def _power_sum(tau, spec, box, weights, start, scale):
    """Terms of scale·x^start·sum_n weights(n)·tau^n in the field ``spec``,
    each power's walk pruned to ``box``; ``weights=None`` is the plain
    recurrence 1/(1 - tau).  A one-step tau is summed along its ray
    (``_ray``).  Else tau is lifted by a most significant coordinate that
    each step raises by 1, so a path of n steps ends at (e, n), apart from
    other powers, and gets weights(n)·scale."""
    if len(tau) == 1:
        [(step, value)] = tau.items()
        return _ray(step, value, spec, box, weights, start, scale)
    if weights is None:
        return _invert_recurrence(tau, spec.twist, box, start, scale)
    # a positive step rises in term order, so a path visits no box point
    # twice: its length is at most the number of points in the box
    length = prod(hi - lo + 1 for lo, hi in box.bounds)
    lifted = [(*row, 0) for row in spec.twist] + [(0,) * spec.n + (1,)]
    paths = _invert_recurrence({e + (1,): v for e, v in tau.items()}, lifted,
                               Box(box.bounds + ((0, length),)), start + (0,), 1)
    scaled = [_coeff(_coeff(weights(j)) * scale)
              for j in range(max((e[-1] for e in paths), default=0) + 1)]
    total = {}
    for e, value in paths.items():
        total[e[:-1]] = total.get(e[:-1], 0) + scaled[e[-1]] * value
    return {e: _coeff(v) for e, v in total.items() if v}


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
    tail = series - 1
    return tail.compose_stream(lambda n: Fraction((-1) ** (n + 1), n) if n else 0)
