import gc
import importlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from mnseries import MNError, cli, cube, expand, identity_spec, parse, series
from mnseries.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

from workloads import CT3_EXPR  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ct_paper_example_with_cov(capsys):
    code, out, err = run_cli(
        capsys, "ct", "--vars", "x",
        "--expr", "(1-x^-1)^4/((x-1)*(p*(1-x^-1)+(1-x^-1)^2))",
        "--bind", "p=2", "--cov", "1-x^-1",
    )
    assert code == 0
    assert out.strip() == "-4"
    report = json.loads(err.strip())
    assert report["jacobian_number"] == -1
    assert report["target_field"] == "vars=x; twist=[[-1]]"
    assert report["ct_log_jacobian_equals_jnum"] is True


def test_ct_without_cov(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--vars", "x",
        "--expr", "(1-x^-1)^4/((x-1)*(p*(1-x^-1)+(1-x^-1)^2))",
        "--bind", "p=7",
    )
    assert code == 0
    assert out.strip() == "-49"


def test_dyson_golden(capsys):
    code, out, _ = run_cli(capsys, "dyson", "--a", "1,1,1")
    assert code == 0
    assert out.strip() == '{"lhs":"6","rhs":"6","equal":true}'


def test_dixon_golden(capsys):
    code, out, _ = run_cli(capsys, "dixon", "--abc", "2,1,1")
    assert code == 0
    assert out.strip() == '{"lhs":"12","rhs":"12","equal":true}'


@pytest.mark.parametrize("argv, expected", [
    (("dyson", "--a", "2,2,2,2,2"), '{"lhs":"113400","rhs":"113400","equal":true}\n'),
    (("dyson", "--a", "4,4,0", "--generalized"), '{"lhs":"70","rhs":"70","equal":true}\n'),
    (("dyson", "--a", "0,0"), '{"lhs":"1","rhs":"1","equal":true}\n'),
    (("dixon", "--abc", "5,5,5"), '{"lhs":"756756","rhs":"756756","equal":true}\n'),
])
def test_dyson_and_dixon_golden(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_generalized_dyson(capsys):
    code, out, _ = run_cli(capsys, "dyson", "--a", "2,1,1", "--generalized")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_expand_text_output(capsys):
    code, out, _ = run_cli(capsys, "expand", "--vars", "x",
                           "--expr", "1/(1-x)", "--box", "5")
    assert code == 0
    assert out.strip() == "1 + x + x^2 + x^3 + x^4 + x^5"


def test_expand_twisted_json(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--field", "vars=x,y; twist=[[2,1],[1,2]]",
        "--expr", "1/(x-y)", "--box", "6", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["x", "y"]
    assert data["twist"] == [[2, 1], [1, 2]]
    assert data["terms"][0] == {"exp": [-1, 0], "coeff": "1"}
    assert data["exact"] is False


def test_jnum_and_lj(capsys):
    code, out, _ = run_cli(capsys, "jnum", "--vars", "x,t",
                           "--F", "x^2+x*t+x^3*t", "--xvars", "x")
    assert code == 0
    assert out.strip() == "2"
    # a scalar follows --format as every other result does
    assert run_cli(capsys, "jnum", "--vars", "x,t", "--F", "x^2+x*t+x^3*t",
                   "--xvars", "x", "--format", "json") == (0, '{"value":"2"}\n', "")

    code, out, _ = run_cli(capsys, "lj", "--vars", "x", "--F", "1-x^-1",
                           "--xvars", "x", "--box", "4")
    assert code == 0
    # box guarantee shrinks by the initial-exponent shift, so x^4 is outside
    assert out.strip() == "-1 - x - x^2 - x^3"


def test_jacobian_command(capsys):
    code, out, _ = run_cli(capsys, "jacobian", "--vars", "x1,x2",
                           "--F", "x1;x2", "--xvars", "x1,x2")
    assert code == 0
    assert out.strip() == "1"


def test_cov_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "cov", "--vars", "x", "--phi", "x^4/(p*x+x^2)",
        "--cov", "1-x^-1", "--bind", "p=2",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"lhs": "-4", "rhs": "-4", "jacobian_number": -1,
                    "equal": True, "box": [[-16, 16]]}


def test_cov_verdict_with_series_sides(capsys):
    # a partial change of variables leaves y free, so both sides are series
    code, out, _ = run_cli(
        capsys, "cov", "--vars", "x,y", "--phi", "1/(1-x*y)", "--cov", "x+x^2",
        "--xvars", "x", "--form", "ct", "--box", "4",
    )
    side = {"vars": ["y"], "twist": [[1]], "terms": [{"exp": [0], "coeff": "1"}],
            "box": [[-4, 4]], "exact": False}
    assert code == 0
    assert json.loads(out) == {"lhs": side, "rhs": side, "jacobian_number": 1,
                               "equal": True, "box": [[-4, 4], [-4, 4]]}


def test_cov_refusal_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "cov", "--vars", "x1,x2", "--phi", "1/(1-x2/x1)",
        "--cov", "x1^2;x1*(1+x1)",
    )
    assert code == 1
    assert "refused-singular" in err


def test_lagrange_coefficient_command(capsys):
    for extra, expected in [
        (("--k", "4"), "5\n"),
        (("--k", "3", "--format", "json"), '{"value":"2"}\n'),
    ]:
        code, out, _ = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2", *extra)
        assert (code, out) == (0, expected)


def test_lagrange_inverse_command(capsys):
    code, out, _ = run_cli(capsys, "lagrange", "--vars", "x",
                           "--F", "x-x^2", "--inverse", "--degree", "5")
    assert code == 0
    data = json.loads(out)
    assert [t["coeff"] for t in data[0]["terms"]] == ["1", "1", "2", "5", "14"]


def test_lagrange_inverse_refuses_k(capsys):
    code, out, err = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                             "--k", "4", "--inverse")
    assert (code, out) == (2, "")
    assert err == "error[usage]: lagrange takes --k or --inverse, not both\n"


def test_lagrange_inverse_refuses_a_negative_degree(capsys):
    code, out, err = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                             "--inverse", "--degree", "-1")
    assert (code, out) == (2, "")
    assert err == "error[usage]: degree must be a nonnegative integer\n"


def test_lagrange_inverse_refuses_phi(capsys):
    code, out, err = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                             "--inverse", "--degree", "3", "--phi", "exp(x)")
    assert (code, out) == (2, "")
    assert err == "error[usage]: lagrange --inverse takes no --phi\n"


def test_lagrange_refuses_degree_without_inverse(capsys):
    code, out, err = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                             "--k", "4", "--degree", "3")
    assert (code, out) == (2, "")
    assert err == "error[usage]: lagrange takes --degree only with --inverse\n"


def test_lagrange_inverse_degree_defaults_to_10(capsys):
    argv = ("lagrange", "--vars", "x", "--F", "x-x^2", "--inverse")
    default = run_cli(capsys, *argv)
    assert default == run_cli(capsys, *argv, "--degree", "10")
    assert default[0] == 0


def test_wilson_command(capsys):
    for argv, n in [
        (("--n", "3"), 3),
        (("--n", "2"), 2),               # odd n - 1: the LJ sign is negative
        (("--n", "3", "--box", "2"), 3),
        (("--n", "3", "--box", "4"), 3),
        (("--n", "3", "--box", "5"), 3),
        (("--n", "3", "--box", "6"), 3),
        (("--n", "4", "--box", "3"), 4),
        (("--n", "4", "--box", "5"), 4),
        (("--n", "4", "--box", "6"), 4),
    ]:
        code, out, _ = run_cli(capsys, "wilson", *argv)
        assert code == 0
        assert json.loads(out) == {"n": n, "sum_is_one": True, "lj_identity": True}
    # --j prints the one series v_j
    assert run_cli(capsys, "wilson", "--n", "3", "--j", "1", "--box", "2") == (
        0, "z1^-2*z2*z3 + z1^-3*z2^2*z3 + z1^-4*z2^3*z3 + z1^-3*z2*z3^2"
           " + z1^-4*z2^2*z3^2 + z1^-4*z2*z3^3\n", "")


@pytest.mark.xfail(strict=True, reason="unsound precision box (ROADMAP item 1, "
                   "face (a)): a generator with a negative phi-coordinate "
                   "reaches even the interior half-radius box")
@pytest.mark.parametrize("box", ["4", "2"])
def test_wilson_lj_identity_at_box_4(capsys, box):
    # LJ(v1, v2, v3) = -6·v4 is a theorem; while the defect stands this
    # prints {"n":4,"sum_is_one":true,"lj_identity":false} with exit 1
    code, out, _ = run_cli(capsys, "wilson", "--n", "4", "--box", box)
    assert (code, out) in (
        (0, '{"n":4,"sum_is_one":true,"lj_identity":true}\n'), (1, ""))


@pytest.mark.parametrize("j", ["0", "-1", "4"])
def test_wilson_j_out_of_range_refused(capsys, j):
    code, out, err = run_cli(capsys, "wilson", "--n", "3", "--j", j)
    assert (code, out, err) == (2, "", "error[usage]: j must be between 1 and 3\n")


def test_jr_command(capsys):
    code, out, _ = run_cli(capsys, "jr", "--n", "4", "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == 36 and data["determinant"] == 36


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "ct", "--vars", "x", "--expr", "1/(1-")
    assert code == 2
    assert "syntax" in err


def test_unknown_variable_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--vars", "x", "--expr", "x+zz")
    assert code == 2
    assert "unbound-variable" in err


def test_res_command(capsys):
    code, out, _ = run_cli(capsys, "res", "--vars", "x", "--expr", "x^-1")
    assert code == 0
    assert out.strip() == "1"


def test_over_subset(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--vars", "x,t", "--expr", "(x+x^-1+2)*t", "--over", "x",
    )
    assert code == 0
    assert out.strip() == "2*t"


def test_over_names_distinct_field_variables(capsys):
    code, out, err = run_cli(
        capsys, "ct", "--vars", "x,y", "--expr", "1+x+y", "--over", "x,q",
    )
    assert (code, out) == (2, "")
    assert "error[unknown-variable]" in err
    code, out, err = run_cli(
        capsys, "ct", "--vars", "x,y", "--expr", "1+x+y", "--over", "x,x",
    )
    assert (code, out) == (2, "")
    assert "error[usage]" in err and "selected twice" in err


def test_slice_outside_the_box_refused(capsys):
    # x lives in [1,5], so its x^0 part is not known; the true CT_x on this
    # box is 1 + y + y^2 + y^3, which the box [-5,5] shows.  Twisted by
    # phi(a, b) = (a + b, b), the slice's y^k needs k in [1,5] too
    twisted = ("--twist", "[[1,0],[1,1]]")
    for expr, twist in (("1/(1-x-y)", ()), ("1/(1-x-y)+x", ()), ("1/(1-x-y)", twisted)):
        for fmt in ("text", "json"):
            assert run_cli(capsys, "ct", "--vars", "x,y", *twist, "--box=1:5,-3:3",
                           "--over", "x", "--expr", expr, "--format", fmt) == (
                1, "", "error[out-of-precision]: slice (0,) in x is outside the "
                       "guaranteed box\n")
    assert run_cli(capsys, "ct", "--vars", "x,y", "--box=-5:5,-3:3", "--over", "x",
                   "--expr", "1/(1-x-y)") == (0, "1 + y + y^2 + y^3\n", "")


def test_empty_over_list_refused(capsys):
    # an empty string names no variable, as an empty list does
    for over, command, expr in itertools.product((",", ""), ("ct", "res"), ("x*y", "x+y")):
        assert run_cli(capsys, command, "--vars", "x,y", "--over", over,
                       "--expr", expr) == (
            2, "", "error[usage]: name at least one variable to extract over\n")


def test_ct_on_a_twist_with_a_singular_residual_block(capsys):
    # CT_x (1 + y) = 1 + y: the kept row (1, 0) of y is nonsingular on its
    # pivot column 0, though the kept block (its column 1) is 0
    assert run_cli(capsys, "ct", "--vars", "x,y", "--twist", "[[1,1],[1,0]]",
                   "--over", "x", "--expr", "1+y") == (0, "1 + y\n", "")


def test_slice_keeps_the_order_of_a_twisted_field(capsys):
    # phi(x) = (1, -1): x has negative order, so the slice's twist is [[-1]]
    # and its terms run from x^-1 down; its box is the field's column 1
    argv = ("ct", "--vars", "x,y", "--twist", "[[1,-1],[0,1]]", "--box", "4",
            "--over", "y", "--expr", "1/(1-x)")
    assert run_cli(capsys, *argv) == (
        0, "-x^-1 - x^-2 - x^-3 - x^-4 - x^-5\n", "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert (json.loads(out)["twist"], json.loads(out)["box"]) == ([[-1]], [[-3, 5]])


@pytest.mark.parametrize("argv, message", [
    # one flag's text is never read as another's
    (("--vars", "x", "--twist", "[[1]]; vars=y", "--expr", "y^2"),
     "bad twist matrix '[[1]]; vars=y'"),
    (("--vars", "x;twist=[[2]]", "--expr", "1/(1-x)"),
     "bad variable name 'x;twist=[[2]]'"),
    # a field holds only names an expression can spell
    (("--vars", "x,y=1", "--expr", "x"), "bad variable name 'y=1'"),
    (("--vars", "x,2y", "--expr", "x"), "bad variable name '2y'"),
    (("--field", "vars=x,y z", "--expr", "x"), "bad variable name 'y z'"),
    # each field spec key at most once
    (("--field", "vars=x; vars=y", "--expr", "y"), "field spec key 'vars' given twice"),
    (("--field", "vars=x; twist=[[1]]; twist=[[2]]", "--expr", "x"),
     "field spec key 'twist' given twice"),
    # no field, or no expression
    (("--expr", "x"), "specify the field with --vars (and --twist) or --field"),
    (("--twist", "[[1]]", "--expr", "x"),
     "specify the field with --vars (and --twist) or --field"),
    (("--vars", "x"), "an expression is required (--expr or --expr-file)"),
    # --field is the whole field, and an empty --twist is no matrix
    (("--field", "vars=x", "--twist", "[[2]]", "--expr", "1/(1-x)", "--box", "3"),
     "--field takes no --vars or --twist"),
    (("--vars", "x", "--twist", "", "--expr", "x"), "bad twist matrix ''"),
], ids=["twist-holds-vars", "vars-holds-twist", "name-with-equals", "name-leading-digit",
        "name-with-space", "repeated-vars", "repeated-twist", "no-field", "twist-alone",
        "no-expr", "field-with-twist", "empty-twist"])
def test_bad_field_or_expression_refused(capsys, argv, message):
    assert run_cli(capsys, "expand", *argv) == (2, "", f"error[usage]: {message}\n")


def test_twist_with_spaces(capsys):
    expected = run_cli(capsys, "expand", "--vars", "x,y", "--twist", "[[2,1],[1,2]]",
                       "--expr", "1/(x-y)", "--box", "4")
    assert expected[0] == 0
    assert run_cli(capsys, "expand", "--vars", "x,y", "--twist", "[[2, 1], [1, 2]]",
                   "--expr", "1/(x-y)", "--box", "4") == expected
    assert run_cli(capsys, "expand", "--field", "vars=x,y; twist=[ [2, 1], [1, 2] ]",
                   "--expr", "1/(x-y)", "--box", "4") == expected
    code, out, err = run_cli(capsys, "expand", "--vars", "x,y", "--twist",
                             "[[2 1],[1,2]]", "--expr", "1/(x-y)")
    assert (code, out) == (2, "")
    assert err.startswith("error[usage]: bad twist row")


COV_REPORT = ('{"jacobian_number":1,"initial_exponents":[[1,0]],'
              '"target_field":"vars=x,y","ct_log_jacobian_equals_jnum":true}\n')


def test_cov_report_comes_before_an_over_name_error(capsys):
    # the expression is expanded and the report printed before --over is read
    for expr in ("1+x+y", "(1+x)*(1+y)", "(1+x)/(1-y)"):
        code, out, err = run_cli(capsys, "ct", "--vars", "x,y", "--expr", expr,
                                 "--cov", "x", "--over", "x,q")
        assert (code, out) == (2, "")
        assert err == COV_REPORT + "error[unknown-variable]: unknown variable 'q'\n"


def test_expansion_refusal_comes_before_the_cov_report(capsys):
    for expr in ("1/0", "x*(1/0)", "x/0"):
        code, out, err = run_cli(capsys, "ct", "--vars", "x,y", "--expr", expr,
                                 "--cov", "x", "--over", "x")
        assert (code, out) == (1, "")
        assert err == "error[zero-divisor]: cannot invert the zero series\n"


def test_product_box_refusal_comes_before_the_cov_report(capsys):
    # a truncated factor shifted by each term of an exact one: [-2,2] and [8,12]
    for expr in ("(1+x^10)/(1-x)", "(1+x^10)*(1/(1-x))"):
        code, out, err = run_cli(capsys, "ct", "--vars", "x", "--box", "2",
                                 "--expr", expr, "--cov", "x")
        assert (code, out) == (1, "")
        assert err == "error[out-of-precision]: product has no guaranteed region\n"


def test_repeated_xvars_refused(capsys):
    for command in ("jacobian", "jnum", "lj"):
        code, out, err = run_cli(capsys, command, "--vars", "x,y",
                                 "--F", "x^2;y^2", "--xvars", "x,x")
        assert (code, out) == (2, "")
        assert err == "error[usage]: variable 'x' selected twice\n"
        code, out, err = run_cli(capsys, command, "--vars", "x,y",
                                 "--F", "x^2;y^2", "--xvars", "x")
        assert (code, out, err) == (2, "", "error[usage]: need 2 x-variables, got 1\n")


def test_empty_series_list_refused(capsys):
    runs = [(command, "--vars", "x,y", "--F", ";")
            for command in ("jacobian", "jnum", "lj")]
    runs.append(("ct", "--vars", "x,y", "--cov", ";", "--expr", "x"))
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error[usage]: no expression in ';'")


def test_vars_twist_flags(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--vars", "x,y", "--twist", "[[2,1],[1,2]]",
        "--expr", "1/(x^2-y)", "--box", "8",
    )
    assert code == 0
    assert out.strip().startswith("-y^-1 - x^2*y^-2 - x^4*y^-3")


def test_asymmetric_box(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--vars", "x,t", "--box", "0:4,-1:2",
        "--expr", "1/(1-x*t)",
    )
    assert code == 0
    assert out.strip() == "1 + x*t + x^2*t^2"


def test_big_example_golden(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--vars", "x,y,t", "--box=-36:36,-36:36,-1:8",
        "--over", "x,y", "--expr", CT3_EXPR,
    )
    assert code == 0
    assert out.strip() == ("3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5"
                           " + 192*t^6 + 384*t^7 + 768*t^8")


def test_ct_reads_the_last_product_without_forming_it(capsys, monkeypatch):
    # the divisor's three factors are inverted one at a time: their power
    # sums make 140 terms, where the inverse of their product made 3 799;
    # the factors' product is read by the pruned chain, each partial product
    # kept to the terms that can still reach the x^0*y^0 slice, and its last
    # factor, the numerator's 2*t - 3*x*y, is met by the slice's named part:
    # the chain's products make 378 terms, where the head product made 3 990;
    # the exact monomial x^3 leaves the chain as a shift of the wanted
    # exponent, and the chain multiplies its factors in product order
    convolved, chained, inverses, lists = [], [], [], []
    originals = series._convolve, series._chain_terms, series.Series.invert, cli.factors

    def convolve(spec, a, b, keep):
        convolved.append((a, b, originals[0](spec, a, b, keep)))
        return convolved[-1][2]

    def chain_terms(spec, factors, *args):
        chained.append(factors)
        return originals[1](spec, factors, *args)

    def invert(s):
        inverses.append(originals[2](s))
        return inverses[-1]

    def factors(*args, **kwargs):
        lists.append(originals[3](*args, **kwargs))
        return lists[-1]

    monkeypatch.setattr(series, "_convolve", convolve)
    monkeypatch.setattr(series, "_chain_terms", chain_terms)
    monkeypatch.setattr(series.Series, "invert", invert)
    monkeypatch.setattr(cli, "factors", factors)
    code, out, _ = run_cli(capsys, "ct", "--vars", "x,y,t", "--box=-24:24,-24:24,-1:5",
                           "--over", "x,y", "--expr", CT3_EXPR)
    assert (code, out) == (0, "3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5\n")
    [chain], [got] = chained, lists
    assert [s.terms for s in got if s.terms == {(3, 0, 0): 1}] == [{(3, 0, 0): 1}]
    assert chain == [s.terms for s in sorted(got, key=series._exact_last)
                     if s.terms != {(3, 0, 0): 1}] and len(chain[-1]) == 2
    assert all(chain[-1] is not a and chain[-1] is not b for a, b, _ in convolved)
    assert 0 < sum(len(out) for _, _, out in convolved) <= 500
    assert sum(len(s.terms) for s in inverses) <= 200


@pytest.mark.parametrize("command", ["ct", "res"])
@pytest.mark.parametrize("expr", ["0*(1+x^-1)", "(x-x)/(x-x^2)", "(exp(x)-exp(x))*(1+x^-1)"])
def test_ct_of_a_product_with_a_zero_factor_is_zero(capsys, command, expr):
    # the factors before the last multiply to a series with no terms; the
    # slice is of the whole product, not of the last factor (whose constant
    # term and residue are 1)
    code, out, _ = run_cli(capsys, command, "--vars", "x", "--expr", expr)
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("over", ["x", "x,y"])
@pytest.mark.parametrize("command, want", [("ct", 0), ("res", -1)])
@pytest.mark.parametrize("expr", ["(1-x*y)*exp(x)*exp(y)", "(1+x)*exp(x*y)*exp(y)",
                                  "(1+x)*exp(x)*(1/(1-y))"])
def test_ct_and_res_read_what_the_expanded_product_reads(capsys, expr, command, want,
                                                         over, fmt):
    # an exact factor of two terms comes before the truncated ones, so the
    # chain multiplies the factors up to the last truncated one first
    spec = identity_spec(("x", "y"))
    try:
        value = expand(parse(expr), spec, box=cube(2, 3)).extract(over.split(","), want)
    except MNError as exc:
        expected = (exc.exit_status, "", f"error[{exc.code}]: {exc}\n")
    else:
        data = value.to_json() if isinstance(value, series.Series) else {"value": str(value)}
        text = json.dumps(data, separators=(",", ":")) if fmt == "json" else str(value)
        expected = (0, text + "\n", "")
    assert run_cli(capsys, command, "--vars", "x,y", "--box", "3", "--over", over,
                   "--format", fmt, "--expr", expr) == expected


def test_big_example_at_a_small_box(capsys):
    # CT_{x,y} = 3/(1-2t).  A truncated inverse used to claim box - phi(m),
    # where tau is not known: this printed 3 + 6*t + 1/2*t^3, and at
    # box 16 (t up to 4) it claimed a false 0*t^4.
    for box, want in (("-12:12,-12:12,-1:3", "3 + 6*t + 12*t^2 + 24*t^3\n"),
                      ("-16:16,-16:16,-1:4", "3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4\n")):
        code, out, _ = run_cli(capsys, "ct", "--vars", "x,y,t", f"--box={box}",
                               "--over", "x,y", "--expr", CT3_EXPR)
        assert (code, out) == (0, want)


def test_big_example_at_box_16_to_t5(capsys):
    # while the divisor was inverted as one product, an open face dropped
    # paths of the box-16 walk to t^5: it printed ... + 48*t^4 - 96*t^5
    code, out, _ = run_cli(capsys, "ct", "--vars", "x,y,t", "--box=-16:16,-16:16,-1:5",
                           "--over", "x,y", "--expr", CT3_EXPR)
    assert (code, out) == (0, "3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5\n")


def _ct3_boxes():
    """ct3's box sweep (ROADMAP item 13), as ``mn ct`` field and box flags.
    In the identity field, t-depth K and x, y radius R, 8 small boxes are
    wrong while face (a) stands.  In power-series coordinates T = (x+3y+6t,
    y+2t, t), four corners about the hand rule (6K+6, 2K+2) each answer or
    refuse."""
    face_a = pytest.mark.xfail(strict=True, reason="unsound precision box (ROADMAP "
                               "item 1, face (a)): a generator with a negative "
                               "phi-coordinate leaves the box and comes back")
    for k, wrong_to in ((2, 4), (3, 8), (4, 10)):
        for r in range(4, 15, 2):
            yield pytest.param((f"--box=-{r}:{r},-{r}:{r},-1:{k}",), id=f"identity-K{k}-R{r}",
                               marks=face_a if r <= wrong_to else ())
    for k in (2, 3, 4, 5):
        low = 40 if k == 5 else 30
        for x, y in ((6 * k + 6, 2 * k + 2), (6 * k + 4, 2 * k + 1),
                     (6 * k + 3, 2 * k + 1), (6 * k + 4, 2 * k)):
            yield pytest.param(("--twist=[[1,0,0],[3,1,0],[6,2,1]]",
                                f"--box=-{low}:{x},-{low}:{y},-1:{k}"), id=f"T-K{k}-{x},{y}")


@pytest.mark.parametrize("flags", _ct3_boxes())
def test_ct3_box_sweep_is_right_or_refused(capsys, flags):
    # CT_{x,y} = 3/(1-2t): each run prints 3·2^k over its printed t box or refuses
    code, out, err = run_cli(capsys, "ct", "--vars", "x,y,t", *flags, "--over", "x,y",
                             "--format", "json", "--expr", CT3_EXPR)
    if code == 1:
        assert (out, err[:24]) == ("", "error[out-of-precision]:")
        return
    assert code == 0
    result = json.loads(out)
    [(lo, hi)] = result["box"]
    got = {item["exp"][0]: Fraction(item["coeff"]) for item in result["terms"]}
    assert got == {k: 3 * 2 ** k for k in range(max(lo, 0), hi + 1)}


@pytest.mark.xfail(strict=True, reason="a sum drops an exact term below a "
                   "truncated term's box and keeps its box claim")
def test_lagrange_phi_with_a_far_negative_term(capsys):
    # [y^4] (1/(1-G) + G^-30) = 14 - 58275 for G the inverse of x - x^2;
    # while the defect stands this prints 14 with exit 0
    code, out, _ = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                           "--phi", "1/(1-x)+x^-30", "--k", "4")
    assert (code, out) == (0, "-58261\n")


# For s = c*x^m*(1 - tau) truncated, tau is known only on box - phi(m), so
# s^-n is claimed on box - (n+1)*phi(m).  Claimed on box - n*phi(m), these
# printed a false tail, shown after each case.  A divisor's own divisor
# joins the numerator, so 1/(x/(1-x)) is now (1-x)/x; its power -1 still
# inverts the truncated x/(1-x).
@pytest.mark.parametrize("expr, truth", [
    ("1/(x/(1-x))", "x^-1 - 1\n"),          # + x^5
    ("1/(x^3/(1-x))", "x^-3 - x^-2\n"),     # + x^3 - x^4
    ("(x/(1-x))^-1", "x^-1 - 1\n"),
    ("(x^3/(1-x))^-1", "x^-3 - x^-2\n"),
    ("(x/(1-x))^-2", "x^-2 - 2*x^-1 + 1\n"),  # + 2*x^4
    ("(x^2/(1-x))^-2", "x^-4 - 2*x^-3 + x^-2\n"),  # + 2*x^2 - 4*x^3
], ids=["m=1", "m=3", "m=1,n=-1", "m=3,n=-1", "m=1,n=-2", "m=2,n=-2"])
def test_inverse_of_a_truncated_series_claims_too_much(capsys, expr, truth):
    code, out, _ = run_cli(capsys, "expand", "--vars", "x", "--box=-5:5", "--expr", expr)
    assert (code, out) == (0, truth)


# Face (c) of the unsound-box defect: the box's x-interval starts above the
# origin, so the recurrence's pruning drops the paths that start below it.
# While it stands, the runs with lo <= a print a wrong series with exit 0
# (a=1, lo=1: 1 + y + y^2 + y^3; a=2, lo=2: 0); those with lo > a refuse.
_FACE_C = pytest.mark.xfail(strict=True, reason="face (c): a lower box bound "
                            "prunes the paths of the recurrence that start "
                            "below the box")


@pytest.mark.parametrize("a, lo", [
    pytest.param(a, lo, marks=[_FACE_C] if lo <= a else [], id=f"a={a},lo={lo}")
    for a in (1, 2, 3) for lo in (1, 2, 3, 4)])
def test_ct_with_a_box_above_the_origin(capsys, a, lo):
    # CT_x x^-a/(1-x-y) = [x^a] 1/(1-x-y) = sum C(a+k, a)·y^k
    truth = f"1 + {a + 1}*y + {comb(a + 2, a)}*y^2 + {comb(a + 3, a)}*y^3\n"
    code, out, err = run_cli(capsys, "ct", "--vars", "x,y", f"--box={lo}:{lo + 4},-3:3",
                             "--over", "x", "--expr", f"x^-{a}/(1-x-y)")
    if code == 1:
        assert (out, err.startswith("error[out-of-precision]")) == ("", True)
    else:
        assert (code, out) == (0, truth)


@pytest.mark.parametrize("argv", [
    ["ct", "--vars", "x,t", "--box", "4", "--over", "x",
     "--expr", "1/((1-x*t)*(1-t/x))"],
    ["jacobian", "--vars", "x,y", "--F", "x+x*y;y-x^2"],
    ["expand", "--vars", "x,y", "--box", "3", "--expr", "1/(1-x-y)"],
], ids=["ct", "jacobian", "expand"])
def test_main_leaves_no_cyclic_garbage(capsys, argv):
    # the parser is built once per process, by the warm-up call
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("command, name", [
    ("jacobian", "jacobian"), ("jnum", "jacobian_number"), ("lj", "log_jacobian")])
def test_jacobian_commands_look_up_their_function_per_call(capsys, monkeypatch,
                                                          command, name):
    # a patch made after the parser is built is still run
    argv = [command, "--vars", "x,y", "--F", "x+x*y;y-x^2"]
    assert main(argv) == 0
    monkeypatch.setattr(cli, name, lambda F, xnames: 7)
    capsys.readouterr()
    assert run_cli(capsys, *argv) == (0, "7\n", "")


def test_golden_stability(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "expand", "--field", "vars=x,y; twist=[[2,1],[1,2]]",
            "--expr", "1/(x^2-y)", "--box", "8", "--format", "json",
        )
        outs.add(out)
    assert len(outs) == 1


def _digits(n):
    """Decimal text of an int n >= 0, in chunks short enough for ``str``."""
    chunks = []
    while n:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(low)
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


def test_integers_past_the_str_digit_limit(capsys):
    # str(int) and int(str) refuse more than 4300 digits
    big = 123456789012345678901234567890 ** 200          # 5 820 digits
    literal = "9" * 5000
    assert run_cli(capsys, "expand", "--vars", "x", "--expr", literal) == (
        0, literal + "\n", "")
    assert run_cli(capsys, "expand", "--vars", "x", "--expr",
                   "123456789012345678901234567890^200*x^2") == (
        0, _digits(big) + "*x^2\n", "")
    code, out, err = run_cli(capsys, "expand", "--vars", "x", "--format", "json",
                             "--expr", "x/123456789012345678901234567890^200")
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"] == [{"exp": [1], "coeff": "1/" + _digits(big)}]
    assert run_cli(capsys, "ct", "--vars", "x", "--bind", f"p={literal}/7",
                   "--expr", "p*(1+x)") == (0, literal + "/7\n", "")
    r = 10 ** 2000 + 3
    code, out, _ = run_cli(capsys, "jr", "--n", "3", "--r", _digits(r))
    value = _digits(r * (r - 1) * (r + 1))
    assert (code, out) == (0, f'{{"n":3,"r":{_digits(r)},"closed_form":{value},'
                              f'"determinant":{value},"equal":true}}\n')


def test_json_numbers_past_the_str_digit_limit(capsys):
    # json.dumps writes ints through int.__repr__, which refuses them
    big = "9" * 4400
    assert run_cli(capsys, "expand", "--vars", "x", "--format", "json",
                   "--expr", f"x^{big}") == (
        0, f'{{"vars":["x"],"twist":[[1]],"terms":[{{"exp":[{big}],"coeff":"1"}}],'
           f'"box":[[-16,16]],"exact":true}}\n', "")
    assert run_cli(capsys, "ct", "--vars", "x,y", "--expr", f"x^{big}",
                   "--cov", f"x^{big}", "--over", "y") == (
        0, f"x^{big}\n",
        f'{{"jacobian_number":{big},"initial_exponents":[[{big},0]],'
        f'"target_field":"vars=x,y; twist=[[{big},0],[0,1]]",'
        f'"ct_log_jacobian_equals_jnum":true}}\n')


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# README comments that give the command's output, by subcommand
OUTPUT_COMMENTED = ("cov", "dyson", "jnum", "lagrange")


def _readme_commands():
    """``(argv, comment)`` for each ``mn`` command of README's CLI block, its
    backslash continuations joined; the comment is the text after ``#`` on
    the command's line or alone on the line after it."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    last = None                 # the command on the line before, if any
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("mn "):
            last = [shlex.split(line, comments=True)[1:],
                    line.partition("  #")[2].strip() or None]
            commands.append(last)
            continue
        if line.startswith("#") and last is not None and last[1] is None:
            last[1] = line[1:].strip()
        last = None
    return commands


def test_readme_cli_examples(capsys):
    commands = _readme_commands()
    assert len(commands) == 14
    checked = 0
    for argv, comment in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if argv[0] in OUTPUT_COMMENTED and comment is not None:
            # a note in parentheses may follow the output
            assert out.strip() == re.sub(r"\s*\(.*\)$", "", comment), argv
            checked += 1
    assert checked == 4


def test_readme_library_quickstart():
    # each line of README's Python block that is an expression is followed
    # by a comment that gives its value
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            expression = compile(code.strip(), "README", "eval")
        except SyntaxError:
            continue
        value = eval(expression, namespace)
        shown.append((str(value) if isinstance(value, series.Series) else value, comment))
    assert [value for value, _ in shown] == [1, "1 + t^2 + t^4 + t^6", 1, "1", (-4, -4, True)]
    for value, comment in shown:
        assert str(value) in comment


def test_config_file(tmp_path, capsys):
    config = tmp_path / "flags.conf"
    config.write_text("--vars x\n--box 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "expand", "--config", str(config),
                           "--expr", "1/(1-x)")
    assert code == 0
    assert out.strip() == "1 + x + x^2 + x^3 + x^4"


def test_expr_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("1/(1-x)\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "ct", "--vars", "x", "--expr-file", str(path))
    assert code == 0
    assert out.strip() == "1"


def test_installed_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")             # Python 3.11+
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"mn": "mnseries.cli:main"}
    module, _, attribute = scripts["mn"].partition(":")
    assert getattr(importlib.import_module(module), attribute) is main


def test_subprocess_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "dyson", "--a", "1,2,3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["equal"] is True

    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "cov", "--vars", "x1,x2",
         "--phi", "exp(x1)/(1-x2/x1)", "--cov", "x1^2;x1*(1+x1)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1

    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "nonsense"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("expr, code, out, err", [
    pytest.param("+".join(["x"] * 5000), 0, "5000*x\n", "", id="long-sum"),
    pytest.param("(" * 5000 + "x" + ")" * 5000, 2, "",
                 "error[syntax]: expression nested too deeply", id="deep-parentheses"),
    pytest.param("1/(" * 5000 + "x" + ")" * 5000, 2, "",
                 "error[syntax]: expression nested too deeply", id="deep-divisors"),
])
def test_long_and_deep_expressions_end_without_a_traceback(expr, code, out, err):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "expand", "--vars", "x", "--box", "2",
         "--expr", expr],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == code
    assert proc.stdout == out
    assert proc.stderr.startswith(err) and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    pytest.param(("expand", "--vars", "x", "--box", "abc", "--expr", "x"), "--box",
                 id="box-word"),
    pytest.param(("expand", "--vars", "x", "--box", "1,2", "--expr", "x"), "--box",
                 id="box-two-radii"),
    pytest.param(("dyson", "--a", "1,x"), "--a", id="a-word"),
    pytest.param(("dyson", "--a", ""), "--a", id="a-empty"),
    pytest.param(("dixon", "--abc", "1,2"), "--abc", id="abc-too-few"),
    pytest.param(("dixon", "--abc", "1,2,x"), "--abc", id="abc-word"),
    pytest.param(("lagrange", "--vars", "x,y", "--F", "x+y^2;y+x^2", "--k", "1,x"),
                 "--k", id="k-word"),
    # int() takes digit separators and non-ASCII digits; the flags do not
    pytest.param(("dyson", "--a", "1_0,1"), "--a", id="a-digit-separator"),
    pytest.param(("dyson", "--a", "\u0661,1"), "--a", id="a-arabic-digit"),
    pytest.param(("expand", "--vars", "x", "--box", "1_0", "--expr", "x"), "--box",
                 id="box-digit-separator"),
    pytest.param(("jr", "--n", "3", "--r", "1_0"), "--r", id="r-digit-separator"),
    pytest.param(("jr", "--n", "\uff13", "--r", "2"), "--n", id="n-fullwidth-digit"),
    pytest.param(("wilson", "--n", "3", "--j", "0_1"), "--j", id="j-digit-separator"),
    pytest.param(("wilson", "--n", "3", "--box", "1_0"), "--box",
                 id="wilson-box-digit-separator"),
    pytest.param(("lagrange", "--vars", "x", "--F", "x-x^2", "--inverse", "--degree", "1_0"),
                 "--degree", id="degree-digit-separator"),
    # a list of the wrong length, or none where one is needed
    pytest.param(("expand", "--vars", "x,y", "--box=1:2", "--expr", "x"), "box",
                 id="box-too-few-intervals"),
    pytest.param(("lagrange", "--vars", "x", "--F", "x-x^2"), "lagrange", id="k-missing"),
    pytest.param(("expand", "--vars", "x", "--expr", "x", "--config"), "--config",
                 id="config-without-a-path"),
])
def test_bad_integer_list_refused(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error[usage]: {flag} needs ")


@pytest.mark.parametrize("argv", [
    ("expand", "--vars", "x", "--expr", "1/(1-x)", "--box", "0:1_0"),
    ("expand", "--vars", "x,y", "--twist", "[[2_1,0],[0,1]]", "--expr", "x"),
])
def test_digit_separators_in_box_intervals_and_twists_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error[usage]: bad ")


@pytest.mark.parametrize("argv, kind", [
    # Fraction() and str.isdecimal take digit separators or non-ASCII digits
    (("ct", "--vars", "x", "--bind", "p=1_0", "--expr", "p*(1+x)"), "usage"),
    (("ct", "--vars", "x", "--bind", "p=\u0661\u0662", "--expr", "p*(1+x)"), "usage"),
    (("ct", "--vars", "x", "--bind", "p=1.5_0", "--expr", "p*(1+x)"), "usage"),
    (("expand", "--vars", "x", "--expr", "\u0661\u0662*x"), "syntax"),
    (("expand", "--vars", "x", "--expr", "x^\u0661"), "syntax"),
    (("ct", "--vars", "x", "--bind", "p", "--expr", "p*(1+x)"), "usage"),   # no =
])
def test_non_ascii_digits_and_separators_in_numbers_refused(capsys, argv, kind):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error[{kind}]: ")


def test_huge_decimal_exponent_refused(capsys):
    # 10**1000000 would be built and printed in full
    code, out, err = run_cli(capsys, "ct", "--vars", "x", "--bind", "p=1e1000000",
                             "--expr", "p*(1+x)")
    assert (code, out) == (2, "")
    assert err.startswith("error[usage]: bad rational")


def test_empty_binding_items_are_skipped(capsys):
    assert run_cli(capsys, "ct", "--vars", "x", "--bind", "p=2,,q=3, ",
                   "--expr", "p*q*(1+x)") == (0, "6\n", "")


def test_bound_decimals_still_read(capsys):
    for value, printed in (("1.5", "3/2"), ("-.25", "-1/4"), ("2e1", "20"),
                           ("3/4", "3/4")):
        code, out, _ = run_cli(capsys, "ct", "--vars", "x", "--bind", f"p={value}",
                               "--expr", "p*(1+x)")
        assert (code, out) == (0, printed + "\n")


def test_missing_files_refused(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv, flag in (
        (("expand", "--vars", "x", "--expr-file", missing), "--expr-file"),
        (("--config", missing, "expand", "--vars", "x", "--expr", "x"), "--config"),
        (("expand", "--config", missing, "--expr", "x"), "--config"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error[usage]: cannot read {flag} {missing!r}")


def test_unreadable_file_contents_refused(tmp_path, capsys):
    binary = tmp_path / "expr.bin"
    binary.write_bytes(b"\xff\xfe1/(1-x)")
    code, out, err = run_cli(capsys, "expand", "--vars", "x", "--expr-file", str(binary))
    assert (code, out) == (2, "")
    assert err == f"error[usage]: cannot read --expr-file {str(binary)!r}: not UTF-8 text\n"
    config = tmp_path / "flags.conf"
    config.write_text('--vars "x\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "expand", "--config", str(config), "--expr", "x")
    assert (code, out) == (2, "")
    assert err.startswith("error[usage]: bad --config line '--vars \"x'")
