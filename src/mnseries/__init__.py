"""Exact truncated iterated-Laurent (Malcev-Neumann) series engine.

Field arithmetic over matrix-twisted term orders, constant-term and residue
extraction, the change-of-variables residue identity, Lagrange inversion, and
the Dyson/Dixon constant-term identities, all in exact rational arithmetic.
"""

from .errors import (
    BadInitialTerm,
    BadNormalization,
    ExpansionFailure,
    MNError,
    NonIntegerExponent,
    NonpositiveOrder,
    OutOfPrecision,
    ParseError,
    RefusedSingular,
    SingularTwist,
    SpecMismatch,
    UnboundVariable,
    UnknownVariable,
    UsageError,
    ZeroDivisor,
    ZeroSeries,
)
from .ordering import (
    Box,
    FieldSpec,
    cube,
    format_field_spec,
    identity_spec,
    int_det,
    parse_field_spec,
    parse_rational,
    transformed_spec,
)
from .parser import expand, expand_text, parse, to_text
from .residues import (
    ChangeOfVariables,
    ResidueVerdict,
    change_of_variables,
    graded_spec,
    jacobian,
    jacobian_number,
    lagrange_coefficient,
    lagrange_inverse,
    log_jacobian,
    residue_verify,
)
from .series import Series, exp_of, log_of, multiply
from .identities import (
    DysonInstance,
    URFamily,
    dixon_sum,
    dyson_ct,
    dyson_product,
    dyson_rhs,
    h_complete,
    j_r_closed_form,
    j_r_determinant,
    u_r_build,
    vandermonde,
    wilson_v,
    zspec,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
