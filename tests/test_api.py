import mnseries

PUBLIC_NAMES = [
    "BadInitialTerm", "BadNormalization", "Box", "ChangeOfVariables",
    "DysonInstance", "ExpansionFailure", "FieldSpec", "MNError",
    "NonIntegerExponent", "NonpositiveOrder", "OutOfPrecision", "ParseError",
    "RefusedSingular", "ResidueVerdict", "Series", "SingularTwist",
    "SpecMismatch", "URFamily", "UnboundVariable", "UnknownVariable",
    "UsageError", "ZeroDivisor", "ZeroSeries", "change_of_variables", "cube",
    "dixon_sum", "dyson_ct", "dyson_product", "dyson_rhs", "errors", "exp_of",
    "expand", "expand_text", "format_field_spec", "graded_spec", "h_complete",
    "identities", "identity_spec", "int_det", "j_r_closed_form",
    "j_r_determinant", "jacobian", "jacobian_number", "lagrange_coefficient",
    "lagrange_inverse", "log_jacobian", "log_of", "multiply", "ordering",
    "parse", "parse_field_spec", "parse_rational", "parser", "residue_verify",
    "residues", "series", "to_text", "transformed_spec", "u_r_build",
    "vandermonde", "wilson_v", "zspec",
]


def test_public_names_are_pinned():
    # removing or adding a public name is an API change; make it on purpose
    assert mnseries.__all__ == PUBLIC_NAMES
