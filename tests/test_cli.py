import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from mnseries import series
from mnseries.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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
        (("--n", "4", "--box", "3"), 4),
        (("--n", "4", "--box", "6"), 4),
    ]:
        code, out, _ = run_cli(capsys, "wilson", *argv)
        assert code == 0
        assert json.loads(out) == {"n": n, "sum_is_one": True, "lj_identity": True}


@pytest.mark.xfail(strict=True, reason="unsound precision box (ROADMAP item 1, "
                   "face (a)): a generator with a negative phi-coordinate "
                   "reaches even the interior half-radius box cube(4, 2)")
def test_wilson_lj_identity_at_box_4(capsys):
    # LJ(v1, v2, v3) = -6·v4 is a theorem; while the defect stands this
    # prints {"n":4,"sum_is_one":true,"lj_identity":false} with exit 1
    code, out, _ = run_cli(capsys, "wilson", "--n", "4", "--box", "4")
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
    # box is 1 + y + y^2 + y^3, which the box [-5,5] shows
    for expr in ("1/(1-x-y)", "1/(1-x-y)+x"):
        for fmt in ("text", "json"):
            assert run_cli(capsys, "ct", "--vars", "x,y", "--box=1:5,-3:3", "--over",
                           "x", "--expr", expr, "--format", fmt) == (
                1, "", "error[out-of-precision]: slice (0,) in x is outside the "
                       "guaranteed box\n")
    assert run_cli(capsys, "ct", "--vars", "x,y", "--box=-5:5,-3:3", "--over", "x",
                   "--expr", "1/(1-x-y)") == (0, "1 + y + y^2 + y^3\n", "")


def test_empty_over_list_refused(capsys):
    for expr in ("x*y", "x+y"):
        assert run_cli(capsys, "ct", "--vars", "x,y", "--over", ",", "--expr", expr) == (
            2, "", "error[usage]: name at least one variable to extract over\n")


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


CT3_EXPR = ("x^3*exp(t/(x*y))*(2*t-3*x*y)/((x^3*y*exp(t/(x*y))-t*x-t*y)"
            "*(x-y)*(x^3*exp(t/(x*y))-1))")


def test_big_example_golden(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--vars", "x,y,t", "--box=-36:36,-36:36,-1:8",
        "--over", "x,y", "--expr", CT3_EXPR,
    )
    assert code == 0
    assert out.strip() == ("3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5"
                           " + 192*t^6 + 384*t^7 + 768*t^8")


def test_ct_reads_the_last_product_without_forming_it(capsys, monkeypatch):
    # forming the final product, numerator times the inverted denominator,
    # took 23 148 of the 23 331 pairs _convolve made for this command
    pairs = []
    original = series._convolve

    def counted(spec, a, b, keep):
        pairs.append(len(a) * len(b))
        return original(spec, a, b, keep)

    monkeypatch.setattr(series, "_convolve", counted)
    code, out, _ = run_cli(capsys, "ct", "--vars", "x,y,t", "--box=-24:24,-24:24,-1:5",
                           "--over", "x,y", "--expr", CT3_EXPR)
    assert (code, out) == (0, "3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5\n")
    assert 0 < sum(pairs) < 1000


@pytest.mark.xfail(strict=True, reason="unsound precision box (ROADMAP item 2): "
                   "the box-pruned inversion drops paths that leave the box "
                   "and come back")
def test_big_example_at_a_small_box(capsys):
    # CT_{x,y} = 3/(1-2t); while the defect stands this prints
    # 3 + 6*t + 1/2*t^3 with exit 0
    code, out, _ = run_cli(capsys, "ct", "--vars", "x,y,t",
                           "--box=-12:12,-12:12,-1:3", "--over", "x,y",
                           "--expr", CT3_EXPR)
    assert (code, out) == (0, "3 + 6*t + 12*t^2 + 24*t^3\n")


@pytest.mark.xfail(strict=True, reason="a sum drops an exact term below a "
                   "truncated term's box and keeps its box claim")
def test_lagrange_phi_with_a_far_negative_term(capsys):
    # [y^4] (1/(1-G) + G^-30) = 14 - 58275 for G the inverse of x - x^2;
    # while the defect stands this prints 14 with exit 0
    code, out, _ = run_cli(capsys, "lagrange", "--vars", "x", "--F", "x-x^2",
                           "--phi", "1/(1-x)+x^-30", "--k", "4")
    assert (code, out) == (0, "-58261\n")


@pytest.mark.xfail(strict=True, reason="the inverse of a truncated series "
                   "claims box - phi(m); tau is only known on that box, so the "
                   "inverse is known on box - 2*phi(m); likewise a negative "
                   "power s^-n claims box - n*phi(m) but is known only on "
                   "box - (n+1)*phi(m)")
@pytest.mark.parametrize("expr, truth", [
    ("1/(x/(1-x))", "x^-1 - 1\n"),          # prints x^-1 - 1 + x^5
    ("1/(x^3/(1-x))", "x^-3 - x^-2\n"),     # prints x^-3 - x^-2 + x^3 - x^4
    # prints x^-2 - 2*x^-1 + 1 + 2*x^4
    ("(x/(1-x))^-2", "x^-2 - 2*x^-1 + 1\n"),
    # prints x^-4 - 2*x^-3 + x^-2 + 2*x^2 - 4*x^3
    ("(x^2/(1-x))^-2", "x^-4 - 2*x^-3 + x^-2\n"),
], ids=["m=1", "m=3", "m=1,n=-2", "m=2,n=-2"])
def test_inverse_of_a_truncated_series_claims_too_much(capsys, expr, truth):
    code, out, _ = run_cli(capsys, "expand", "--vars", "x", "--box=-5:5", "--expr", expr)
    assert (code, out) in ((0, truth), (1, ""))


@pytest.mark.xfail(strict=True, reason="a lower box bound prunes the paths of "
                   "the recurrence that start below the box")
def test_ct_with_a_box_above_the_origin(capsys):
    # CT_x x^-1/(1-x-y) = [x^1] 1/(1-x-y) = sum (k+1)·y^k; while the defect
    # stands this prints 1 + y + y^2 + y^3 with exit 0
    code, out, _ = run_cli(capsys, "ct", "--vars", "x,y", "--box=1:5,-3:3",
                           "--over", "x", "--expr", "x^-1/(1-x-y)")
    assert (code, out) in ((0, "1 + 2*y + 3*y^2 + 4*y^3\n"), (1, ""))


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
