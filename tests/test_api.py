import os
import subprocess
import sys

import mnseries
from mnseries import Box, DysonInstance, FieldSpec, dyson_ct, dyson_rhs, parse
from mnseries.ordering import Region

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

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


def test_import_loads_neither_dataclasses_nor_inspect():
    # every `mn` call imports the engine first: dataclasses, with the
    # inspect, ast and dis it loads, cost more than a small answer
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, mnseries, mnseries.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


def test_value_classes_compare_hash_and_print_by_their_fields():
    spec = FieldSpec(("x", "y"), ((1, 0), (1, 1)))
    from_list = FieldSpec(["x", "y"], ((1, 0), (1, 1)))
    assert from_list == spec and hash(from_list) == hash(spec)
    assert not from_list != spec
    assert spec != FieldSpec(("x", "y"), ((1, 0), (0, 1)))
    assert parse("x^2 - 3/y") == parse("x^2-3/y") != parse("x^2 - 3/x")
    assert parse("x") != Box(((0, 1),)) and hash(parse("x")) == hash(parse("x"))
    assert repr(Box(((0, 1),))) == "Box(bounds=((0, 1),))"
    assert (repr(Region(Box(((0, 1), (-2, 3))), True))
            == "Region(box=Box(bounds=((0, 1), (-2, 3))), exact=True)")
    assert repr(spec) == "FieldSpec(variables=('x', 'y'), twist=((1, 0), (1, 1)))"
    assert repr(parse("x^2 - 3/y")) == (
        "Binary(op='-', left=Pow(child=Variable(name='x'), exponent=2), "
        "right=Binary(op='/', left=RationalLiteral(value=Fraction(3, 1)), "
        "right=Variable(name='y')))")
    instance = DysonInstance(3, (1, 1, 1), generalized=True)
    assert repr(instance) == "DysonInstance(n=3, a=(1, 1, 1), generalized=True)"
    assert dyson_ct(instance) == dyson_rhs(instance)
    assert DysonInstance(3, (1, 1, 1)).generalized is False
