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
composition gate, and aborts before any base-field work.

Lagrange inversion lives in the degree-graded field (an auxiliary most
significant variable with twist row x_i -> x_i·aux), where the power-series
normalization makes every x_i the initial term of F_i and total-degree
truncation is a plain box constraint.  The compositional inverse is found by
fixed-point iteration on raw coefficient dicts, independent of the residue
path it serves as an oracle for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadNormalization,
    ExpansionFailure,
    MNError,
    RefusedSingular,
    SpecMismatch,
    UsageError,
)
from .ordering import Box, FieldSpec, int_det, transformed_spec, unit_vector
from .parser import expand
from .series import Series, det, multiply


# ----------------------------------------------------------------------
# Jacobian machinery

def jacobian(F, xnames):
    """det(dF_i/dx_j) over series arithmetic."""
    F = list(F)
    if len(F) != len(xnames):
        raise SpecMismatch("need exactly one series per x-variable")
    for s in F[1:]:
        F[0]._require_same_spec(s)
    return det([[s.derivative(name) for name in xnames] for s in F])


def jacobian_number(F, xnames):
    """Determinant of the x-initial exponent rows."""
    return change_of_variables(F, xnames).jnum


def log_jacobian(F, xnames):
    """(x_1···x_n / F_1···F_n) · J(F)."""
    F = list(F)
    spec = F[0].spec
    shift = [0] * spec.n
    for name in xnames:
        shift[spec.index(name)] += 1
    product = F[0]
    for s in F[1:]:
        product = multiply(product, s)
    return multiply(jacobian(F, xnames).shift(tuple(shift)), product.invert())


# ----------------------------------------------------------------------
# change of variables

@dataclass(frozen=True)
class ChangeOfVariables:
    """Initial-term data of a substitution x_i -> F_i."""

    base: FieldSpec
    F: tuple
    xnames: tuple
    leading_exponents: tuple      # full exponent vector of each f_i
    x_rows: tuple                 # their restriction to the x-variables
    initial_coefficients: tuple   # coefficient series over the group
                                  # variables (None in pure-x fields)
    jnum: int
    target: FieldSpec | None      # twisted field; None exactly when jnum == 0


def change_of_variables(F, xnames):
    F = tuple(F)
    xnames = tuple(xnames)
    if len(F) != len(xnames):
        raise SpecMismatch("need exactly one series per x-variable")
    base = F[0].spec
    for s in F[1:]:
        F[0]._require_same_spec(s)
    leading = []
    x_rows = []
    coefficients = []
    for s in F:
        full, xpart, coeff = s.x_initial_term(xnames)
        leading.append(full)
        x_rows.append(xpart)
        coefficients.append(coeff)
    jnum = int_det(x_rows)
    target = None
    if jnum != 0:
        target = transformed_spec(
            base, {name: row for name, row in zip(xnames, leading)}
        )
    return ChangeOfVariables(
        base, F, xnames, tuple(leading), tuple(x_rows), tuple(coefficients),
        jnum, target,
    )


@dataclass(frozen=True)
class ResidueVerdict:
    """Both sides of the change-of-variables identity on their common box."""

    lhs: object            # Series over the residual field, or a coefficient
    rhs: object
    jacobian_number: int
    equal: bool
    form: str              # "res" (J) or "ct" (LJ)
    box: Box               # the evaluation box the sides were computed under

    @staticmethod
    def _side_json(value):
        if isinstance(value, Series):
            return value.to_json()
        return str(Fraction(value))

    def to_json(self):
        return {
            "lhs": self._side_json(self.lhs),
            "rhs": self._side_json(self.rhs),
            "jacobian_number": self.jacobian_number,
            "equal": self.equal,
            "box": self.box.to_json(),
        }


def _exact_expansion(phi, spec, box, bindings):
    """The expansion of phi if it is an exact Laurent polynomial, else None."""
    try:
        value = expand(phi, spec, box=box, bindings=bindings)
    except UsageError:
        raise
    except MNError:
        return None
    return value if value.exact else None


def _sides_equal(lhs, rhs):
    if isinstance(lhs, Series) and isinstance(rhs, Series):
        return lhs.equals_on(rhs)
    if isinstance(lhs, Series) or isinstance(rhs, Series):
        return False
    return lhs == rhs


def residue_verify(phi, F, xnames, bindings=None, box=None, form="res"):
    """Evaluate both sides of the residue identity and compare.

    ``form="res"`` uses Res and the Jacobian; ``form="ct"`` uses CT and the
    log Jacobian.  With a zero Jacobian number the identity is only attempted
    for exact Laurent-polynomial phi (right side 0); anything else is refused.
    """
    if form not in ("res", "ct"):
        raise UsageError(f"unknown form {form!r}")
    cov = change_of_variables(F, xnames)
    base = cov.base
    if box is None:
        box = base.default_box()
    want = -1 if form == "res" else 0

    if cov.jnum == 0:
        if _exact_expansion(phi, base, box, bindings) is None:
            raise RefusedSingular(
                "Jacobian number is 0 and phi is not a Laurent polynomial"
            )
        phi_at_F = expand(phi, base, box=box, bindings=bindings,
                          substitutions=dict(zip(xnames, F)))
        lhs = _times_jacobian(phi_at_F, cov, xnames, form).extract(xnames, want)
        rhs = Series.zero(lhs.spec, box=lhs.box) if isinstance(lhs, Series) else 0
        return ResidueVerdict(lhs, rhs, 0, _sides_equal(lhs, rhs), form, box)

    # Composition gate: phi must expand in the twisted field first.
    try:
        target_expansion = expand(phi, cov.target, box=box, bindings=bindings)
    except UsageError:
        raise
    except MNError as exc:
        raise ExpansionFailure(
            f"phi does not expand in the twisted field: {exc}"
        ) from exc

    phi_at_F = expand(phi, base, box=box, bindings=bindings,
                      substitutions=dict(zip(xnames, F)))
    lhs = _times_jacobian(phi_at_F, cov, xnames, form).extract(xnames, want)
    rhs = target_expansion.extract(xnames, want) * cov.jnum
    return ResidueVerdict(lhs, rhs, cov.jnum, _sides_equal(lhs, rhs), form, box)


def _times_jacobian(phi_at_F, cov, xnames, form):
    if form == "res":
        return multiply(phi_at_F, jacobian(cov.F, xnames))
    return multiply(phi_at_F, log_jacobian(cov.F, xnames))


# ----------------------------------------------------------------------
# Lagrange inversion

def graded_spec(names, aux="_deg"):
    """Field over names + auxiliary top variable; twist row x_i -> x_i·aux.

    The auxiliary phi-coordinate of a pure-x monomial is its total degree, so
    ordering is degree-first and a box interval on it is a degree truncation.
    """
    names = tuple(names)
    while aux in names:
        aux += "_"
    n = len(names)
    rows = [unit_vector(n, i) + (1,) for i in range(n)]
    rows.append((0,) * n + (1,))
    return FieldSpec(names + (aux,), tuple(rows)), aux


def embed_graded(series, gspec, box):
    """Re-home a plain-field series into the graded field (aux exponent 0)."""
    terms = {k + (0,): v for k, v in series.terms.items()}
    return Series(gspec, terms, box=box, exact=series.exact)


def _check_power_series_normalized(F):
    """Each F_i must be x_i plus exact terms of total degree >= 2."""
    spec = F[0].spec
    n = spec.n
    if len(F) != n:
        raise SpecMismatch("need one series per variable for inversion")
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
    out = {}
    for ka, va in a.items():
        da = sum(ka)
        for kb, vb in b.items():
            if da + sum(kb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
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
    iteration G <- x - (F(G) - G) converges one degree per step.
    """
    F = list(F)
    _check_power_series_normalized(F)
    spec = F[0].spec
    n = spec.n
    units = [unit_vector(n, i) for i in range(n)]
    tails = []
    for i, s in enumerate(F):
        tails.append({k: v for k, v in s.terms.items() if k != units[i]})
    G = [{units[i]: 1} for i in range(n)]
    for _ in range(degree):
        # F_i(G) - G_i = tail_i(G) has total degree >= 2, so it never meets x_i
        G = [
            {unit: 1, **{k: -v for k, v in compose_polynomial(tail, G, degree).items()}}
            for unit, tail in zip(units, tails)
        ]
    gspec, _ = graded_spec(spec.variables)
    box = Box(((0, degree),) * n + ((0, degree),))
    return [
        Series(gspec, {k + (0,): v for k, v in g.items()}, box=box, exact=False)
        for g in G
    ]


def lagrange_coefficient(phi, F, k, extra_degree=4, box=None):
    """[y^k] Phi(G(y)) as the residue Res_x F^{-1-k} Phi(x) J(F).

    Everything is computed in the degree-graded field; ``extra_degree`` pads
    the automatic box sizing, ``box`` overrides it entirely.
    """
    F = list(F)
    _check_power_series_normalized(F)
    spec = F[0].spec
    n = spec.n
    k = tuple(k)
    if len(k) != n or any(e < 0 for e in k):
        raise UsageError(f"bad coefficient index {k}")
    gspec, _ = graded_spec(spec.variables)
    if box is None:
        maxdeg = max(sum(e) for s in F for e in s.terms)
        spread = sum(k) + n * (maxdeg - 1) + extra_degree
        lo = -(n + sum(k) + spread)
        hi = spread
        width = max(abs(lo), hi) + max(k) + 2
        box = Box(((-width, width),) * n + ((lo, hi),))
    integrand = Series.constant(gspec, 1, box=box)
    embedded = [embed_graded(s, gspec, box) for s in F]
    for s, ki in zip(embedded, k):
        integrand = multiply(integrand, s ** (-1 - ki))
    integrand = multiply(
        integrand, expand(phi, gspec, box=box)
    )
    integrand = multiply(integrand, jacobian(embedded, spec.variables))
    return integrand.coefficient((-1,) * n + (0,))
