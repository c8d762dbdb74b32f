"""Constant-term identities: Dyson's product, Dixon's sum, and the
Vandermonde change-of-variables families behind them.

The Dyson constant term is evaluated on exact Laurent polynomials, so no
truncation enters.  The two factors (1 - z_i/z_j)^(a_j) and
(1 - z_j/z_i)^(a_i) of each pair i < j are taken as one binomial in z_i/z_j
(the pairing of Good's proof), which halves the factors.  The constant term
is read from them as plain term dicts, no ``Series``, by the engine's pruned
chain (``series._chain_terms``), which never forms the product.
The only truncated computations here are the expansions of the
v_j = prod_{i != j} (1 - z_j/z_i)^(-1) used in the second change of variables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod
from operator import sub

from .errors import UsageError
from .ordering import Value, identity_spec, int_det, unit_vector
from .series import Series, _chain_terms, det, multiply


def _integers(*values):
    """UsageError unless every value is an int (a bool is not one)."""
    if not all(type(v) is int for v in values):
        raise UsageError("arguments must be integers")


@lru_cache(maxsize=None, typed=True)    # typed: True is not taken for 1
def zspec(n):
    """The plain iterated Laurent field on z_1..z_n, built once per n."""
    _integers(n)
    return identity_spec(tuple(f"z{i}" for i in range(1, n + 1)))


def _vandermonde(spec, indices):
    """prod_{a<b} (z_a - z_b) over the given variable indices, exactly."""
    result = Series.constant(spec, 1)
    for a, b in itertools.combinations(indices, 2):
        factor = Series(spec, {unit_vector(spec.n, a): 1, unit_vector(spec.n, b): -1})
        result = multiply(result, factor)
    return result


def vandermonde(n):
    """prod_{i<j} (z_i - z_j), expanded exactly; empty product for n=1."""
    _integers(n)
    if n < 1:
        raise UsageError("need at least one variable")
    return _vandermonde(zspec(n), range(n))


def vandermonde_determinant(n):
    """det(z_i^(n-j)) over exact series; equals the product form."""
    spec = zspec(n)
    return det([[Series.monomial(spec, tuple((n - 1 - j) if c == i else 0 for c in range(n)))
                 for j in range(n)] for i in range(n)])


def h_complete(n, k):
    """Complete homogeneous symmetric function of degree k in n variables."""
    _integers(n, k)
    spec = zspec(n)
    if k < 0:
        return Series.zero(spec)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        exponent = [0] * n
        for i in combo:
            exponent[i] += 1
        terms[tuple(exponent)] = 1
    return Series(spec, terms)


# ----------------------------------------------------------------------
# the u^(r) family

class URFamily(Value):
    """u_j = (-1)^(j-1) z_j^r Delta_j(z), with the sum rule checked."""

    __slots__ = ("n", "r", "u")

    def __init__(self, n, r, u):
        self.n, self.r, self.u = n, r, u

    def sum(self):
        return sum(self.u, Series.zero(self.u[0].spec))


def u_r_build(n, r):
    _integers(n, r)
    if n < 2:
        raise UsageError("the family needs n >= 2")
    spec = zspec(n)
    u = []
    for j in range(n):
        z_j_to_r = tuple(r if i == j else 0 for i in range(n))
        s = _vandermonde(spec, [i for i in range(n) if i != j]).shift(z_j_to_r)
        if j % 2:
            s = -s
        u.append(s)
    family = URFamily(n, r, tuple(u))
    _check_u_sum(family)
    return family


def _check_u_sum(family):
    n, r = family.n, family.r
    if 0 <= r <= n - 2:
        expected = Series.zero(zspec(n))
    elif r >= n - 1:
        expected = multiply(h_complete(n, r - n + 1), vandermonde(n))
    else:
        return
    if not family.sum().equals_on(expected):
        raise AssertionError(f"u-family sum rule failed for n={n}, r={r}")


def u_r_initial_matrix(n, r):
    """The displayed initial-exponent matrix: diagonal r, each row's other
    entries n-2, n-3, ..., 0 from left to right."""
    _integers(n, r)
    if n < 2:
        raise UsageError("the family needs n >= 2")
    return tuple(tuple(r if j == i else n - 2 - j + (j > i) for j in range(n))
                 for i in range(n))


def j_r_determinant(n, r):
    return int_det(u_r_initial_matrix(n, r))


def j_r_closed_form(n, r):
    """r(r-1)···(r-n+2) · (r + C(n-1,2))."""
    _integers(n, r)
    if n < 2:
        raise UsageError("closed form needs n >= 2")
    return prod(r - i for i in range(n - 1)) * (r + comb(n - 1, 2))


# ----------------------------------------------------------------------
# Dyson / Dixon

class DysonInstance(Value):
    __slots__ = ("n", "a", "generalized")

    def __init__(self, n, a, generalized=False):
        self.n, self.a, self.generalized = n, a, generalized
        if type(n) is not int or n != len(a) or n < 1:
            raise UsageError("need one exponent per variable")
        if not all(type(ai) is int for ai in a):
            raise UsageError("exponents must be integers")
        if any(ai < 0 for ai in a):
            raise UsageError("exponents must be nonnegative")


def _multinomial(parts):
    """(sum parts)! / prod parts_i!."""
    value = factorial(sum(parts))
    for k in parts:
        value //= factorial(k)
    return value


def _dyson_factors(instance):
    """The factors of the Dyson product as term dicts, in multiplication
    order, and the exponent whose coefficient in their product is the
    constant term.

    The two factors of a pair i < j multiply to one binomial in x = z_i/z_j,

        (1 - x)^(a_j) (1 - 1/x)^(a_i) = (-1)^(a_i) x^(-a_i) (1 - x)^(a_i + a_j),

    so there is one factor per pair with a_i + a_j > 0, in
    ``itertools.combinations`` order: the coefficient
    (-1)^(a_i + m) C(a_i + a_j, m) at x^(m - a_i), for m = 0..a_i + a_j.  The
    generalized form appends (z_1+...+z_n)^(sum a), expanded by the
    multinomial theorem, and then wants the coefficient of z^a instead of the
    constant term.
    """
    n = instance.n
    a = instance.a
    factors = []
    for i, j in itertools.combinations(range(n), 2):
        total = a[i] + a[j]
        if total == 0:
            continue
        terms = {}
        for m in range(total + 1):
            exponent = [0] * n
            exponent[i], exponent[j] = m - a[i], a[i] - m
            terms[tuple(exponent)] = (-1) ** (a[i] + m) * comb(total, m)
        factors.append(terms)
    if not instance.generalized:
        return factors, (0,) * n
    factors.append({e: _multinomial(e) for e in h_complete(n, sum(a)).terms})
    return factors, tuple(a)


def dyson_product(instance):
    """prod_{i != j} (1 - z_i/z_j)^(a_j), exactly; generalized form adds
    (z_1+...+z_n)^(sum a) / (z_1^(a_1)...z_n^(a_n))."""
    factors, target = _dyson_factors(instance)
    spec = zspec(instance.n)
    result = Series.constant(spec, 1)
    for factor in factors:
        result = multiply(result, Series(spec, factor))
    return result.shift(tuple(-t for t in target))


def dyson_ct(instance):
    """The constant term of the Dyson product, an exact coefficient, read by
    the pruned chain ``series._chain_terms`` from the pair binomials of
    ``_dyson_factors``.  It does not depend on the term order, so the chain
    runs in ``zspec``, where the wanted exponent pins every coordinate."""
    factors, target = _dyson_factors(instance)
    spec = zspec(instance.n)
    factors = factors or [{(0,) * spec.n: 1}]
    # phi is the identity in zspec, so a factor's phi hull is its exponents'
    # range; only the factors after the second bound a reach
    hulls = [None, None] + [[(min(c), max(c)) for c in zip(*f)] for f in factors[2:]]
    terms = _chain_terms(spec, factors, hulls, [None] * (len(factors) - 1), range(spec.n),
                         target)
    return terms.get(target, 0)


def dyson_rhs(instance):
    """The multinomial (sum a)! / prod a_i!."""
    return _multinomial(instance.a)


def dixon_sum(a, b, c):
    """sum_j (-1)^j C(a+b, a+j) C(b+c, b+j) C(c+a, c+j)."""
    _integers(a, b, c)
    if min(a, b, c) < 0:
        raise UsageError("arguments must be nonnegative")
    return sum((-1 if j % 2 else 1) * comb(a + b, a + j) * comb(b + c, b + j) * comb(c + a, c + j)
               for j in range(-min(a, b, c), min(a, b, c) + 1))


# ----------------------------------------------------------------------
# Wilson's change of variables

def wilson_v(n, j, spec=None, box=None):
    """v_j = prod_{i != j} (1 - z_j/z_i)^(-1), expanded in the plain field."""
    _integers(n, j)
    if not 1 <= j <= n:
        raise UsageError(f"j must be between 1 and {n}")
    spec = spec or zspec(n)
    box = box or spec.default_box()
    result = Series.constant(spec, 1, box=box)
    for i in range(1, n + 1):
        if i == j:
            continue
        ratio = tuple(map(sub, unit_vector(spec.n, j - 1), unit_vector(spec.n, i - 1)))
        factor = Series(spec, {(0,) * spec.n: 1, ratio: -1}, box=box)
        result = multiply(result, factor.invert())
    return result
