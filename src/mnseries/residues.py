"""Jacobians, the change-of-variables residue identity, Lagrange inversion.

The central operation takes a slot expression Phi and series F_1..F_n (one
per selected x-variable), and compares

    Res_x Phi(F)·J(F)      computed in the base field

against

    j(F) · Res_x Phi       computed in the field twisted by the x-initial
                           monomials of the F_i,

which the residue identity asserts are equal whenever the Jacobian number
j(F) — the determinant of the initial x-exponent rows — is nonzero.  The
constant-term variant multiplies by the log Jacobian LJ instead of J.  Phi is
expanded in the twisted field *first*: failure there is exactly the
composition gate, and aborts before any base-field work.  J, LJ and the
initial-term data (hence j) depend on the substitution alone: each is
computed once per substitution and kept in ``F[0]._memo`` beside ``F[1:]``.

Lagrange inversion lives in the degree-graded field (an auxiliary most
significant variable with twist row x_i -> x_i·aux), where the power-series
normalization makes every x_i the initial term of F_i and total-degree
truncation is a plain box constraint.  The residue formula forms each
F_i^{-1-k_i} only up to |k| - deg(Phi) degrees above its initial degree, the
most a term can rise and still reach the wanted coefficient; only the
expansion of Phi keeps a box padded by four degrees.  The compositional
inverse is found by fixed-point iteration on raw coefficient dicts, pass t
capped at degree t, independent of the residue path it serves as an oracle
for.
"""

from __future__ import annotations

from functools import cache, wraps
from operator import add, is_

from .errors import (
    BadNormalization,
    ExpansionFailure,
    MNError,
    RefusedSingular,
    SpecMismatch,
    UsageError,
    ZeroSeries,
)
from .ordering import (
    Box,
    FieldSpec,
    Region,
    Value,
    int_det,
    name_tuple,
    rational_text,
    transformed_spec,
    unit_vector,
)
from .parser import expand, factors
from .series import Series, _chain_claims, _chain_read, chain_extract, det, multiply, product


# ----------------------------------------------------------------------
# Jacobian machinery

def _per_substitution(compute):
    """Run ``compute(F, xnames)`` on a checked substitution (one series per
    distinct x-name, all in one field), once per substitution.

    The result is stored in ``F[0]._memo`` under ``(name, xnames)`` beside
    ``F[1:]``, and returned again only when the very same series come back in
    the same order (``is``): equal but distinct series, or a permuted F,
    recompute.  A refusal is not stored, so a hit skips the checks.
    """
    name = compute.__name__

    @wraps(compute)
    def once(F, xnames):
        F, xnames = tuple(F), name_tuple(xnames)
        if not F:
            raise SpecMismatch("need at least one series to substitute")
        hit = F[0]._memo and F[0]._memo.get((name, xnames))
        if hit and len(hit[0]) == len(F) - 1 and all(map(is_, hit[0], F[1:])):
            return hit[1]
        if len(F) != len(xnames):
            raise SpecMismatch("need exactly one series per x-variable")
        for s in F[1:]:
            F[0]._require_same_spec(s)
        F[0]._selected_indices(xnames)
        return F[0]._remember((name, xnames), (F[1:], compute(F, xnames)))[1]

    return once


@_per_substitution
def jacobian(F, xnames):
    """det(dF_i/dx_j) over series arithmetic."""
    return det([[s.derivative(name) for name in xnames] for s in F])


def jacobian_number(F, xnames):
    """Determinant of the x-initial exponent rows."""
    return change_of_variables(F, xnames).jnum


@_per_substitution
def log_jacobian(F, xnames):
    """(x_1···x_n / F_1···F_n) · J(F)."""
    shift = tuple(int(name in xnames) for name in F[0].spec.variables)
    return multiply(jacobian(F, xnames).shift(shift), product(F).invert())


# ----------------------------------------------------------------------
# change of variables

class ChangeOfVariables(Value):
    """Initial-term data of a substitution x_i -> F_i: each f_i's full
    exponent, the Jacobian number and the twisted field, None iff jnum == 0."""

    __slots__ = ("leading_exponents", "jnum", "target")

    def __init__(self, leading_exponents, jnum, target):
        self.leading_exponents, self.jnum, self.target = leading_exponents, jnum, target


@_per_substitution
def change_of_variables(F, xnames):
    base = F[0].spec
    selected = [base.index(name) for name in xnames]
    leading = []
    for s in F:
        if not s.terms:
            raise ZeroSeries("zero series has no x-initial term")
        leading.append(s.initial_term()[0])
    jnum = int_det([[full[i] for i in selected] for full in leading])
    target = None
    if jnum != 0:
        target = transformed_spec(
            base, {name: row for name, row in zip(xnames, leading)}
        )
    return ChangeOfVariables(tuple(leading), jnum, target)


class ResidueVerdict(Value):
    """Both sides (Series over the residual field, or coefficients) of the
    identity in ``form`` "res" (J) or "ct" (LJ), on the box they were computed under."""

    __slots__ = ("lhs", "rhs", "jacobian_number", "equal", "form", "box")

    def __init__(self, lhs, rhs, jacobian_number, equal, form, box):
        self.lhs, self.rhs, self.jacobian_number = lhs, rhs, jacobian_number
        self.equal, self.form, self.box = equal, form, box

    @staticmethod
    def _side_json(value):
        if isinstance(value, Series):
            return value.to_json()
        return rational_text(value)

    def to_json(self):
        return {
            "lhs": self._side_json(self.lhs),
            "rhs": self._side_json(self.rhs),
            "jacobian_number": self.jacobian_number,
            "equal": self.equal,
            "box": self.box.to_json(),
        }


def residue_verify(phi, F, xnames, bindings=None, box=None, form="res"):
    """Evaluate both sides of the residue identity and compare.

    ``form="res"`` uses Res and the Jacobian; ``form="ct"`` uses CT and the
    log Jacobian.  With a zero Jacobian number the identity is only attempted
    for exact Laurent-polynomial phi (right side 0); anything else is refused.
    Neither side's product is formed (``chain_extract``).
    """
    if form not in ("res", "ct"):
        raise UsageError(f"unknown form {form!r}")
    F, xnames = tuple(F), name_tuple(xnames)
    cov = change_of_variables(F, xnames)
    base = F[0].spec
    box = base.default_box() if box is None else box
    want = -1 if form == "res" else 0

    try:
        # the composition gate: phi's product is claimed in the twisted field
        # first; with a zero Jacobian number, in the base field as a Laurent polynomial
        chain = _chain_claims(factors(phi, cov.target or base, box=box, bindings=bindings))
    except UsageError:
        raise
    except MNError as exc:
        if cov.jnum:
            raise ExpansionFailure(
                f"phi does not expand in the twisted field: {exc}"
            ) from exc
        chain = None
    if cov.jnum == 0 and (chain is None or not chain[3].exact):
        raise RefusedSingular(
            "Jacobian number is 0 and phi is not a Laurent polynomial"
        )

    phi_at_F = factors(phi, base, box=box, bindings=bindings,
                       substitutions=dict(zip(xnames, F)))
    jac = jacobian(F, xnames) if form == "res" else log_jacobian(F, xnames)
    lhs = chain_extract(phi_at_F + [jac], xnames, want)
    if cov.jnum:
        rhs = _chain_read(chain, xnames, want) * cov.jnum
    else:
        rhs = Series.zero(lhs.spec, box=lhs.box) if isinstance(lhs, Series) else 0
    # both sides are series exactly when xnames leaves a variable unnamed
    equal = lhs.equals_on(rhs) if isinstance(lhs, Series) else lhs == rhs
    return ResidueVerdict(lhs, rhs, cov.jnum, equal, form, box)


# ----------------------------------------------------------------------
# Lagrange inversion

def graded_spec(names):
    """Field over names + auxiliary top variable; twist row x_i -> x_i·aux.

    The auxiliary phi-coordinate of a pure-x monomial is its total degree, so
    ordering is degree-first and a box interval on it is a degree truncation.
    Built once per tuple of names.
    """
    return _graded_spec(name_tuple(names))


@cache
def _graded_spec(names):
    aux = "_deg"
    while aux in names:
        aux += "_"
    n = len(names)
    rows = [unit_vector(n, i) + (1,) for i in range(n)]
    rows.append((0,) * n + (1,))
    return FieldSpec(names + (aux,), tuple(rows))


def embed_graded(series, gspec, box):
    """Re-home an exact plain-field series into the graded field (aux
    exponent 0); it keeps every term it holds."""
    return Series._trusted(gspec, {k + (0,): v for k, v in series.terms.items()},
                           Region(box, True))


def _check_power_series_normalized(F):
    """Each F_i must be x_i plus exact terms of total degree >= 2, checked
    once per substitution of one field; F of mixed fields is refused where
    the check, run in full, meets the first bad F_i or the first mismatch."""
    spec = F[0].spec
    if len(F) != spec.n:
        raise SpecMismatch("need one series per variable for inversion")
    if all(s.spec == spec for s in F):
        _normalized(F, spec.variables)
    else:
        _normalized.__wrapped__(F, spec.variables)


@_per_substitution
def _normalized(F, xnames):
    n = len(F)
    for i, s in enumerate(F):
        F[0]._require_same_spec(s)
        if not s.exact:
            raise BadNormalization("inversion input must be an exact polynomial")
        unit = unit_vector(n, i)
        saw_unit = False
        for exponent, value in s.terms.items():
            if any(e < 0 for e in exponent):
                raise BadNormalization("negative exponents in inversion input")
            degree = sum(exponent)
            if exponent == unit:
                if value != 1:
                    raise BadNormalization(f"linear part of F_{i+1} is not x_{i+1}")
                saw_unit = True
            elif degree < 2:
                raise BadNormalization(
                    f"F_{i+1} has a term of total degree {degree} besides x_{i+1}"
                )
        if not saw_unit:
            raise BadNormalization(f"F_{i+1} is missing its linear term x_{i+1}")


def _pmul(a, b, cap):
    """Dict product truncated to total degree <= cap."""
    right = [(kb, vb, sum(kb)) for kb, vb in b.items()]
    out = {}
    for ka, va in a.items():
        room = cap - sum(ka)
        for kb, vb, db in right:
            if db > room:
                continue
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def compose_polynomial(poly_terms, G, cap):
    """poly(G_1, ..., G_n) on raw dicts, degree-capped; oracle helper."""
    n = len(G)
    total = {}
    for exponent, coeff in poly_terms.items():
        term = {(0,) * n: coeff}
        for j, e in enumerate(exponent):
            for _ in range(e):
                term = _pmul(term, G[j], cap)
        for key, value in term.items():
            total[key] = total.get(key, 0) + value
    return {k: v for k, v in total.items() if v != 0}


def lagrange_inverse(F, degree):
    """Compositional inverse of F (F_i = x_i + higher), by fixed point.

    Returns one series per variable over the degree-graded field, exact
    through total degree ``degree``.  Independent of the residue formula: the
    iteration G <- x - (F(G) - G) converges one degree per step.  F(G) - G
    has order 2 in G, so a G right through degree t - 1 gives a G right
    through degree t: pass t runs at cap t, from x (right through degree 1)
    over the caps 2..``degree``.
    """
    F = list(F)
    _check_power_series_normalized(F)
    if type(degree) is not int or degree < 0:
        raise UsageError("degree must be a nonnegative integer")
    spec = F[0].spec
    n = spec.n
    units = [unit_vector(n, i) for i in range(n)]
    tails = []
    for i, s in enumerate(F):
        tails.append({k: v for k, v in s.terms.items() if k != units[i]})
    G = [{units[i]: 1} for i in range(n)]
    for cap in range(2, degree + 1):
        # F_i(G) - G_i = tail_i(G) has total degree >= 2, so it never meets x_i
        G = [
            {unit: 1, **{k: -v for k, v in compose_polynomial(tail, G, cap).items()}}
            for unit, tail in zip(units, tails)
        ]
    gspec = graded_spec(spec.variables)
    box = Box(((0, degree),) * n + ((0, degree),))
    return [
        Series(gspec, {k + (0,): v for k, v in g.items()}, box=box, exact=False)
        for g in G
    ]


def lagrange_coefficient(phi, F, k):
    """[y^k] Phi(G(y)) as the residue Res_x F^{-1-k} Phi(x) J(F).

    Everything but J(F) is computed in the degree-graded field, whose last
    phi-coordinate is the total degree.  J(F) is the exact polynomial
    det(dF_i/dx_j) of the caller's F in its own field (so it is computed
    once per F over all the coefficients read from it),
    embedded with aux exponent 0.  Phi and J(F) carry a box sized from
    the degrees of F and k with a padding of four degrees.  The wanted
    coefficient sits at degree -n, and every factor lies at or above its
    initial degree, so a term of F_i^{-1-k_i} more than
    ``budget = |k| - deg(initial term of Phi)`` degrees above that factor's
    initial degree cannot reach it: each F_i is embedded with its degree
    bound lowered to ``budget + 1`` before it is inverted and powered.  A
    negative budget puts every integrand term above the target, so the
    coefficient is 0.  The coefficient is read by ``chain_extract``, which
    never forms the product and refuses a target outside its claim.
    """
    F = list(F)
    _check_power_series_normalized(F)
    spec = F[0].spec
    n = spec.n
    k = tuple(k)
    if any(type(e) is not int for e in k):
        raise UsageError(f"coefficient index {k} must hold integers")
    if len(k) != n or any(e < 0 for e in k):
        raise UsageError(f"bad coefficient index {k}")
    gspec = graded_spec(spec.variables)
    maxdeg = max(sum(e) for s in F for e in s.terms)
    spread = sum(k) + n * (maxdeg - 1) + 4
    lo = -(n + sum(k) + spread)
    hi = spread
    width = max(abs(lo), hi) + max(k) + 2
    box = Box(((-width, width),) * n + ((lo, hi),))
    phi_series = expand(phi, gspec, box=box)
    power_box = box
    if phi_series.terms:
        budget = sum(k) - sum(phi_series.initial_term()[0])
        if budget < 0:
            return 0
        power_box = Box(box.bounds[:-1] + ((lo, min(hi, budget + 1)),))
    powers = [embed_graded(s, gspec, power_box) ** (-1 - ki) for s, ki in zip(F, k)]
    J = embed_graded(jacobian(F, spec.variables), gspec, box)
    return chain_extract(powers + [phi_series, J], gspec.variables, (-1,) * n + (0,))
