"""Constant-term identities: Dyson's product, Dixon's sum, and the
Vandermonde change-of-variables families behind them.

The Dyson constant term is evaluated on exact Laurent polynomials, so no
truncation enters; the only truncated computations here are the expansions of
the v_j = prod_{i != j} (1 - z_j/z_i)^(-1) used in the second change of
variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

from .errors import UsageError
from .ordering import identity_spec, int_det, unit_vector
from .series import Series, det, multiply


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
        if any(ai < 0 for ai in self.a):
            raise UsageError("exponents must be nonnegative")


def dyson_product(instance, spec=None):
    """prod_{i != j} (1 - z_i/z_j)^(a_j), exactly; generalized form adds
    (z_1+...+z_n)^(sum a) / (z_1^(a_1)...z_n^(a_n))."""
    n = instance.n
    spec = spec or zspec(n)
    result = Series.constant(spec, 1)
    for j in range(n):
        if instance.a[j] == 0:
            continue
        for i in range(n):
            if i == j:
                continue
            ratio = tuple(
                (1 if c == i else 0) - (1 if c == j else 0) for c in range(n)
            )
            factor = Series(spec, {(0,) * n: 1, ratio: -1}) ** instance.a[j]
            result = multiply(result, factor)
    if instance.generalized:
        total = sum(instance.a)
        z_sum = Series(spec, {unit_vector(n, i): 1 for i in range(n)})
        result = multiply(result, z_sum ** total)
        result = result.shift(tuple(-ai for ai in instance.a))
    return result


def dyson_ct(instance):
    """The constant term of the Dyson product, as an exact coefficient."""
    return dyson_product(instance).ct_scalar()


def dyson_rhs(instance):
    """The multinomial (sum a)! / prod a_i!."""
    value = factorial(sum(instance.a))
    for ai in instance.a:
        value //= factorial(ai)
    return value


def dixon_sum(a, b, c):
    """sum_j (-1)^j C(a+b, a+j) C(b+c, b+j) C(c+a, c+j)."""
    if min(a, b, c) < 0:
        raise UsageError("arguments must be nonnegative")
    total = 0
    for j in range(-max(a, b, c), max(a, b, c) + 1):
        if not (-a <= j <= b and -b <= j <= c and -c <= j <= a):
            continue
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
