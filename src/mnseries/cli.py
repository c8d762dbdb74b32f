"""Command line surface: ``mn <subcommand>``.

Deterministic output (series terms in field order, compact JSON with fixed
key order) so runs are byte-stable for golden tests.  Exit codes: 0 success,
1 mathematical refusal (singular change of variables, division by zero, out
of precision), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from functools import cache
from math import factorial

from .errors import MNError, UsageError
from .identities import (
    DysonInstance,
    dixon_sum,
    dyson_ct,
    dyson_rhs,
    j_r_closed_form,
    j_r_determinant,
    wilson_v,
    zspec,
)
from .ordering import (
    DEFAULT_RADIUS,
    Box,
    cube,
    field_spec,
    format_field_spec,
    parse_field_spec,
    parse_rational,
    rational_text,
    read_int,
    read_names,
)
from .parser import expand, factors, parse
from .residues import (
    change_of_variables,
    jacobian,
    jacobian_number,
    lagrange_coefficient,
    lagrange_inverse,
    log_jacobian,
    residue_verify,
)
from .series import Series, _chain_claims, _chain_read


def _compact(data):
    """``json.dumps(data, separators=(",", ":"))`` with ints written at any
    length: ``json`` refuses an int of more than 4300 digits."""
    if isinstance(data, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_compact(v)}"
                              for k, v in data.items()) + "}"
    if isinstance(data, (list, tuple)):
        return "[" + ",".join(map(_compact, data)) + "]"
    if type(data) is int:
        return rational_text(data)
    return json.dumps(data)


def _int_list(text, flag, count=None):
    """The comma separated integers given to ``flag``, ``count`` of them if set."""
    try:
        values = tuple(map(read_int, text.split(",")))
    except ValueError:
        what = "an integer" if count == 1 else "comma separated integers"
        raise UsageError(f"{flag} needs {what}, got {text!r}") from None
    if count is not None and len(values) != count:
        noun = "integer" if count == 1 else "integers"
        raise UsageError(f"{flag} needs {count} {noun}, got {len(values)}")
    return values


def _int_arg(flag):
    """An argparse ``type`` for one integer; a bad one is a usage error."""
    return lambda text: _int_list(text, flag, 1)[0]


def _read_text(path, flag):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {flag} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {flag} {path!r}: not UTF-8 text") from None


def _inputs_from_args(args):
    """The field, box and parameter bindings every series command starts from."""
    spec = _field_from_args(args)
    return spec, _box_from_args(args, spec), _bindings_from_args(args)


def _field_from_args(args):
    if args.field:
        if args.vars is not None or args.twist is not None:
            raise UsageError("--field takes no --vars or --twist")
        return parse_field_spec(args.field)
    if args.vars:
        return field_spec(args.vars, args.twist)
    raise UsageError("specify the field with --vars (and --twist) or --field")


def _box_from_args(args, spec):
    text = str(args.box).strip()
    if ":" not in text:
        return cube(spec.n, _int_list(text, "--box", 1)[0])
    bounds = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition(":")
        try:
            bounds.append((read_int(lo), read_int(hi)))
        except ValueError:
            raise UsageError(f"bad box interval {chunk!r}") from None
    if len(bounds) != spec.n:
        raise UsageError(f"box needs {spec.n} intervals, got {len(bounds)}")
    return Box(tuple(bounds))


def _bindings_from_args(args):
    bindings = {}
    if args.bind:
        for item in args.bind.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise UsageError(f"bad binding {item!r}, expected name=p/q")
            name, _, value = item.partition("=")
            bindings[name.strip()] = parse_rational(value)
    return bindings


def _expr_from_args(args):
    if args.expr is not None:
        return args.expr
    if args.expr_file:
        return _read_text(args.expr_file, "--expr-file").strip()
    raise UsageError("an expression is required (--expr or --expr-file)")


def _series_list(text, spec, box, bindings):
    """Expand each expression of ``F1;F2;...``; at least one is required."""
    series = [expand(parse(t), spec, box=box, bindings=bindings)
              for t in text.split(";") if t.strip()]
    if not series:
        raise UsageError(f"no expression in {text!r}, expected F1;F2;...")
    return series


def _substitution(args, text, spec, box, bindings):
    """The series of ``F1;F2;...`` and the x-variables they replace:
    ``--xvars``, or the field's first variables."""
    F = _series_list(text, spec, box, bindings)
    xnames = read_names(args.xvars) if args.xvars else spec.variables[:len(F)]
    if len(xnames) != len(F):
        raise UsageError(f"need {len(F)} x-variables, got {len(xnames)}")
    return F, xnames


def _print(value, args):
    """A series, or a scalar as ``p/q``, as text or as JSON."""
    if isinstance(value, Series):
        print(_compact(value.to_json()) if args.format == "json" else value)
    else:
        text = rational_text(value)
        print(_compact({"value": text}) if args.format == "json" else text)


# ----------------------------------------------------------------------
# subcommands

def _cmd_expand(args):
    spec, box, bindings = _inputs_from_args(args)
    _print(expand(parse(_expr_from_args(args)), spec, box=box, bindings=bindings), args)
    return 0


def _extract_command(args):
    spec, box, bindings = _inputs_from_args(args)
    # the product is never formed: its claim is checked where the whole
    # expression would have been expanded, before the --cov report
    chain = _chain_claims(factors(parse(_expr_from_args(args)), spec, box=box,
                                  bindings=bindings))
    over = spec.variables if args.over is None else read_names(args.over)
    if args.cov:
        F, xnames = _substitution(args, args.cov, spec, box, bindings)
        cov = change_of_variables(F, xnames)
        report = {
            "jacobian_number": cov.jnum,
            "initial_exponents": [list(row) for row in cov.leading_exponents],
            "target_field": format_field_spec(cov.target) if cov.target else None,
        }
        if cov.jnum != 0:
            # CT_x LJ(F) = j(F): the residue identity in CT form with phi = 1
            report["ct_log_jacobian_equals_jnum"] = residue_verify(
                parse("1"), F, xnames, box=box, form="ct").equal
        print(_compact(report), file=sys.stderr)
    _print(_chain_read(chain, over, args.want), args)
    return 0


def _jacobian_command(args):
    """``jacobian``, ``jnum`` or ``lj`` of F, printed (looked up per call)."""
    compute = {"jacobian": jacobian, "jnum": jacobian_number, "lj": log_jacobian}
    F, xnames = _substitution(args, args.F, *_inputs_from_args(args))
    _print(compute[args.command](F, xnames), args)
    return 0


def _cmd_cov(args):
    spec, box, bindings = _inputs_from_args(args)
    F, xnames = _substitution(args, args.cov, spec, box, bindings)
    verdict = residue_verify(parse(args.phi), F, xnames,
                             bindings=bindings, box=box, form=args.form)
    print(_compact(verdict.to_json()))
    return 0 if verdict.equal else 1


def _cmd_lagrange(args):
    spec, box, bindings = _inputs_from_args(args)
    F = _series_list(args.F, spec, box, bindings)
    if args.inverse:
        if args.k is not None:
            raise UsageError("lagrange takes --k or --inverse, not both")
        if args.phi is not None:
            raise UsageError("lagrange --inverse takes no --phi")
        degree = 10 if args.degree is None else args.degree
        inverse = lagrange_inverse(F, degree)
        print(_compact([series.to_json() for series in inverse]))
        return 0
    if args.degree is not None:
        raise UsageError("lagrange takes --degree only with --inverse")
    if not args.k:
        raise UsageError("lagrange needs --k k1,k2,... or --inverse")
    k = _int_list(args.k, "--k")
    phi = parse(args.phi) if args.phi else parse(spec.variables[0])
    _print(lagrange_coefficient(phi, F, k), args)
    return 0


def _print_sides(lhs, rhs):
    """Both sides of an identity as JSON; exit 0 if they agree, else 1."""
    print(_compact({"lhs": rational_text(lhs), "rhs": rational_text(rhs),
                    "equal": lhs == rhs}))
    return 0 if lhs == rhs else 1


def _cmd_dyson(args):
    a = _int_list(args.a, "--a")
    instance = DysonInstance(len(a), a, generalized=args.generalized)
    return _print_sides(dyson_ct(instance), dyson_rhs(instance))


def _cmd_dixon(args):
    a, b, c = _int_list(args.abc, "--abc", 3)
    return _print_sides(dixon_sum(a, b, c), dyson_ct(DysonInstance(3, (a, b, c))))


def _cmd_wilson(args):
    n = args.n
    spec = zspec(n)
    box = cube(n, args.box)
    if args.j is not None:
        _print(wilson_v(n, args.j, spec, box), args)
        return 0
    vs = [wilson_v(n, j, spec, box) for j in range(1, n + 1)]
    total = sum(vs[1:], vs[0])
    # opposing geometric tails pollute the outer shell of the box, so the
    # identities are checked on the interior half-radius region
    inner = cube(n, max(1, args.box // 2))
    report = {"n": n, "sum_is_one": total.equals_on(1, box=inner)}
    if n >= 2:
        names = [spec.variables[j] for j in range(n - 1)]
        lj = log_jacobian(vs[: n - 1], names)
        factor = (-1) ** (n - 1) * factorial(n - 1)
        # LJ(v_1..v_{n-1}) = (-1)^(n-1) (n-1)! v_n: the sign is the parity of
        # the triangular initial-exponent matrix with diagonal -(n-j)
        report["lj_identity"] = lj.equals_on(vs[n - 1].scale(factor), box=inner)
    print(_compact(report))
    return 0 if all(v for k, v in report.items() if k != "n") else 1


def _cmd_jr(args):
    closed = j_r_closed_form(args.n, args.r)
    det = j_r_determinant(args.n, args.r)
    print(_compact({"n": args.n, "r": args.r, "closed_form": closed,
                    "determinant": det, "equal": closed == det}))
    return 0 if closed == det else 1


# ----------------------------------------------------------------------
# argument plumbing

@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mn",
        description="Exact constant-term and residue computations in twisted "
                    "iterated Laurent fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--vars", help="comma separated variable names, least "
                                      "significant first")
    field.add_argument("--twist", help="integer matrix [[...],[...]] of twist rows")
    field.add_argument("--field", help="field spec text: vars=x,y; twist=[[...]]")
    field.add_argument("--box", default=str(DEFAULT_RADIUS),
                       help="box radius k for [-k,k] on every coordinate, or "
                            "explicit intervals lo:hi,lo:hi,... per coordinate")
    field.add_argument("--bind", help="parameter bindings, e.g. p=2,q=3/2")
    field.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", parents=[field], help="expand an expression")
    p.add_argument("--expr")
    p.add_argument("--expr-file")
    p.set_defaults(func=_cmd_expand)

    for name, want, blurb in (("ct", 0, "constant term"), ("res", -1, "residue")):
        p = sub.add_parser(name, parents=[field], help=f"{blurb} of an expression")
        p.add_argument("--expr")
        p.add_argument("--expr-file")
        p.add_argument("--over", help="variables to project (default: all)")
        p.add_argument("--cov", help="change-of-variables expressions F1;F2;... "
                                     "(reported on stderr)")
        p.add_argument("--xvars", help="the variables the cov series replace")
        p.set_defaults(func=_extract_command, want=want)

    for name in ("jacobian", "jnum", "lj"):
        p = sub.add_parser(name, parents=[field])
        p.add_argument("--F", required=True, help="series expressions F1;F2;...")
        p.add_argument("--xvars")
        p.set_defaults(func=_jacobian_command)

    p = sub.add_parser("cov", parents=[field],
                       help="verify both sides of the residue identity")
    p.add_argument("--phi", required=True, help="slot expression in the x-variables")
    p.add_argument("--cov", required=True, help="F1;F2;...")
    p.add_argument("--xvars")
    p.add_argument("--form", choices=("res", "ct"), default="ct")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("lagrange", parents=[field], help="Lagrange inversion")
    p.add_argument("--F", required=True)
    p.add_argument("--phi")
    p.add_argument("--k", help="coefficient multi-index k1,k2,...")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--degree", type=_int_arg("--degree"))
    p.set_defaults(func=_cmd_lagrange)

    p = sub.add_parser("dyson", help="Dyson constant-term identity")
    p.add_argument("--a", required=True, help="exponents a1,a2,...")
    p.add_argument("--generalized", action="store_true")
    p.set_defaults(func=_cmd_dyson)

    p = sub.add_parser("dixon", help="Dixon alternating sum vs Dyson CT")
    p.add_argument("--abc", required=True, help="a,b,c")
    p.set_defaults(func=_cmd_dixon)

    p = sub.add_parser("wilson", help="Wilson v_j change-of-variables checks")
    p.add_argument("--n", type=_int_arg("--n"), required=True)
    p.add_argument("--j", type=_int_arg("--j"))
    p.add_argument("--box", type=_int_arg("--box"), default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_wilson)

    p = sub.add_parser("jr", help="Jacobian number of the u^(r) family")
    p.add_argument("--n", type=_int_arg("--n"), required=True)
    p.add_argument("--r", type=_int_arg("--r"), required=True)
    p.set_defaults(func=_cmd_jr)

    return parser


def _apply_config(argv):
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    extra = []
    for line in _read_text(path, "--config").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                extra.extend(shlex.split(line))
            except ValueError as exc:
                raise UsageError(f"bad --config line {line!r}: {exc}") from None
    # config flags first so explicit flags win
    return rest[:1] + extra + rest[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except MNError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
