import json
import os
import subprocess
import sys

import pytest

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


def test_cov_refusal_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "cov", "--vars", "x1,x2", "--phi", "1/(1-x2/x1)",
        "--cov", "x1^2;x1*(1+x1)",
    )
    assert code == 1
    assert "refused-singular" in err


def test_lagrange_coefficient_command(capsys):
    code, out, _ = run_cli(capsys, "lagrange", "--vars", "x",
                           "--F", "x-x^2", "--k", "4")
    assert code == 0
    assert out.strip() == "5"


def test_lagrange_inverse_command(capsys):
    code, out, _ = run_cli(capsys, "lagrange", "--vars", "x",
                           "--F", "x-x^2", "--inverse", "--degree", "5")
    assert code == 0
    data = json.loads(out)
    assert [t["coeff"] for t in data[0]["terms"]] == ["1", "1", "2", "5", "14"]


def test_wilson_command(capsys):
    code, out, _ = run_cli(capsys, "wilson", "--n", "3")
    assert code == 0
    assert json.loads(out) == {"n": 3, "sum_is_one": True, "lj_identity": True}


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


def test_big_example_golden(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--vars", "x,y,t", "--box=-36:36,-36:36,-1:8",
        "--over", "x,y",
        "--expr",
        "x^3*exp(t/(x*y))*(2*t-3*x*y)/((x^3*y*exp(t/(x*y))-t*x-t*y)"
        "*(x-y)*(x^3*exp(t/(x*y))-1))",
    )
    assert code == 0
    assert out.strip() == ("3 + 6*t + 12*t^2 + 24*t^3 + 48*t^4 + 96*t^5"
                           " + 192*t^6 + 384*t^7 + 768*t^8")


def test_golden_stability(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "expand", "--field", "vars=x,y; twist=[[2,1],[1,2]]",
            "--expr", "1/(x^2-y)", "--box", "8", "--format", "json",
        )
        outs.add(out)
    assert len(outs) == 1


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
])
def test_bad_integer_list_refused(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error[usage]: {flag} needs ")


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
