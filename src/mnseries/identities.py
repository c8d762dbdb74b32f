"""Constant-term identities: Dyson's product, Dixon's sum, and the
Vandermonde change-of-variables families behind them.

The Dyson constant term is evaluated on exact Laurent polynomials, so no
truncation enters.  The two factors (1 - z_i/z_j)^(a_j) and
(1 - z_j/z_i)^(a_i) of each pair i < j are taken as one binomial in z_i/z_j
(the pairing of Good's proof), which halves the factors.  The constant term
is read from a pruned product: the factors are multiplied in order, each
partial product keeps only the terms that the remaining factors can still
carry to the wanted exponent, and the last factor is met by a dot product,
so the full product is never formed.  The only truncated computations here
are the expansions of the v_j = prod_{i != j} (1 - z_j/z_i)^(-1) used in the
second change of variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from operator import sub

from .errors import UsageError
from .ordering import Box, identity_spec, int_det, unit_vector
from .series import Series, _coeff, _convolve, det, multiply


def zspec(n):
    """The plain iterated Laurent field on z_1..z_n."""
    return identity_spec(tuple(f"z{i}" for i in range(1, n + 1)))


def _vandermonde(spec, indices):
    """prod_{a<b} (z_a - z_b) over the given variable indices, exactly."""
    result = Series.constant(spec, 1)
    for a, b in itertools.combinations(indices, 2):
        factor = Series(spec, {unit_vector(spec.n, a): 1, unit_vector(spec.n, b): -1})
        result = multiply(result, factor)
    return result


def vandermonde(n, spec=None):
    """prod_{i<j} (z_i - z_j), expanded exactly; empty product for n=1."""
    if n < 1:
        raise UsageError("need at least one variable")
    return _vandermonde(spec or zspec(n), range(n))


def vandermonde_determinant(n, spec=None):
    """det(z_i^(n-j)) over exact series; equals the product form."""
    spec = spec or zspec(n)
    rows = [
        [Series.monomial(spec, tuple((n - 1 - j) if c == i else 0 for c in range(spec.n)))
         for j in range(n)]
        for i in range(n)
    ]
    return det(rows)


def h_complete(n, k, spec=None):
    """Complete homogeneous symmetric function of degree k in n variables."""
    spec = spec or zspec(n)
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

@dataclass(frozen=True)
class URFamily:
    """u_j = (-1)^(j-1) z_j^r Delta_j(z), with the sum rule checked."""

    n: int
    r: int
    u: tuple

    def sum(self):
        total = Series.zero(self.u[0].spec)
        for s in self.u:
            total = total + s
        return total


def u_r_build(n, r):
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
    _check_u_sum(family, spec)
    return family


def _check_u_sum(family, spec):
    n, r = family.n, family.r
    total = family.sum()
    if 0 <= r <= n - 2:
        expected = Series.zero(spec)
    elif r >= n - 1:
        expected = multiply(h_complete(n, r - n + 1, spec), vandermonde(n, spec))
    else:
        return
    if not total.equals_on(expected):
        raise AssertionError(f"u-family sum rule failed for n={n}, r={r}")


def u_r_initial_matrix(n, r):
    """The displayed initial-exponent matrix: diagonal r, each row's other
    entries n-2, n-3, ..., 0 from left to right."""
    rows = []
    for i in range(n):
        row = []
        fill = n - 2
        for j in range(n):
            if j == i:
                row.append(r)
            else:
                row.append(fill)
                fill -= 1
        rows.append(tuple(row))
    return tuple(rows)


def j_r_determinant(n, r):
    return int_det(u_r_initial_matrix(n, r))


def j_r_closed_form(n, r):
    """r(r-1)···(r-n+2) · (r + C(n-1,2))."""
    if n < 2:
        raise UsageError("closed form needs n >= 2")
    value = 1
    for i in range(n - 1):
        value *= r - i
    return value * (r + comb(n - 1, 2))


# ----------------------------------------------------------------------
# Dyson / Dixon

@dataclass(frozen=True)
class DysonInstance:
    n: int
    a: tuple
    generalized: bool = False

    def __post_init__(self):
        if self.n != len(self.a) or self.n < 1:
            raise UsageError("need one exponent per variable")
        if not all(isinstance(ai, int) for ai in self.a):
            raise UsageError("exponents must be integers")
        if any(ai < 0 for ai in self.a):
            raise UsageError("exponents must be nonnegative")


def _multinomial(parts):
    """(sum parts)! / prod parts_i!."""
    value = factorial(sum(parts))
    for k in parts:
        value //= factorial(k)
    return value


def _dyson_factors(instance):
    """The factors of the Dyson product, in multiplication order, and the
    exponent whose coefficient in their product is the constant term.

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
    spec = zspec(n)
    box = spec.default_box()
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
        # distinct exponents, nonzero int coefficients: nothing to validate
        factors.append(Series._trusted(spec, terms, box, True))
    if not instance.generalized:
        return spec, factors, (0,) * n
    z_power = {e: _multinomial(e) for e in h_complete(n, sum(a), spec).terms}
    factors.append(Series(spec, z_power))
    return spec, factors, tuple(a)


def dyson_product(instance):
    """prod_{i != j} (1 - z_i/z_j)^(a_j), exactly; generalized form adds
    (z_1+...+z_n)^(sum a) / (z_1^(a_1)...z_n^(a_n))."""
    spec, factors, target = _dyson_factors(instance)
    result = Series.constant(spec, 1)
    for factor in factors:
        result = multiply(result, factor)
    return result.shift(tuple(-t for t in target))


def _product_coefficient(spec, factors, exponent):
    """The coefficient at ``exponent`` of the product of exact ``factors``.

    Multiplies the factors in order, but keeps of each partial product only
    the terms that can still reach ``exponent``.  The support of a product
    lies in the Minkowski sum of its factors' supports and phi is linear, so
    the rest of the product has its phi-images inside the sum of the
    remaining factors' phi-bounding boxes; a partial term p survives only
    when phi(exponent) - phi(p) lies in that sum.  The last factor is met by
    a dot product against ``exponent``, so the full product is never formed.
    """
    exponent = tuple(exponent)
    if not all(factor.terms for factor in factors):
        return 0
    if not factors:
        return int(not any(exponent))
    target = spec.phi(exponent)
    # reach[-k] bounds phi on the support of the product of factors[k:]
    reach = [((0, 0),) * spec.n]
    for factor in reversed(factors[1:]):
        columns = zip(*map(spec.phi, factor.terms))
        reach.append(tuple((lo + min(c), hi + max(c))
                           for (lo, hi), c in zip(reach[-1], columns)))
    partial = {(0,) * spec.n: 1}
    for factor, bounds in zip(factors[:-1], reversed(reach)):
        keep = Box(tuple((t - hi, t - lo) for t, (lo, hi) in zip(target, bounds)))
        partial = _convolve(spec, partial, factor.terms, keep)
    get = factors[-1].terms.get
    return _coeff(sum(value * get(tuple(map(sub, exponent, e)), 0)
                      for e, value in partial.items()))


def dyson_ct(instance):
    """The constant term of the Dyson product, as an exact coefficient, read
    from the product of the pair binomials of ``_dyson_factors`` pruned to
    the terms that can reach it."""
    return _product_coefficient(*_dyson_factors(instance))


def dyson_rhs(instance):
    """The multinomial (sum a)! / prod a_i!."""
    return _multinomial(instance.a)


def dixon_sum(a, b, c):
    """sum_j (-1)^j C(a+b, a+j) C(b+c, b+j) C(c+a, c+j)."""
    if not all(isinstance(v, int) for v in (a, b, c)):
        raise UsageError("arguments must be integers")
    if min(a, b, c) < 0:
        raise UsageError("arguments must be nonnegative")
    total = 0
    for j in range(-min(a, b, c), min(a, b, c) + 1):
        term = comb(a + b, a + j) * comb(b + c, b + j) * comb(c + a, c + j)
        total += -term if j % 2 else term
    return total


# ----------------------------------------------------------------------
# Wilson's change of variables

def wilson_v(n, j, spec=None, box=None):
    """v_j = prod_{i != j} (1 - z_j/z_i)^(-1), expanded in the plain field."""
    if not 1 <= j <= n:
        raise UsageError(f"j must be between 1 and {n}")
    spec = spec or zspec(n)
    box = box or spec.default_box()
    result = Series.constant(spec, 1, box=box)
    for i in range(1, n + 1):
        if i == j:
            continue
        ratio = tuple(
            (1 if c == j - 1 else 0) - (1 if c == i - 1 else 0)
            for c in range(spec.n)
        )
        factor = Series(spec, {(0,) * spec.n: 1, ratio: -1}, box=box)
        result = multiply(result, factor.invert())
    return result
