"""Acceptance suite: one test per shipped criterion, exact arithmetic.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion at its stated tolerance — exact equality on the stated box —
including the stated runtime budgets.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from mnseries import (
    Box,
    DysonInstance,
    FieldSpec,
    MNError,
    RefusedSingular,
    Series,
    cube,
    dixon_sum,
    dyson_ct,
    dyson_rhs,
    expand_text,
    identity_spec,
    int_det,
    j_r_closed_form,
    j_r_determinant,
    jacobian,
    jacobian_number,
    lagrange_coefficient,
    lagrange_inverse,
    log_jacobian,
    multiply,
    parse,
    residue_verify,
    wilson_v,
    zspec,
)
from mnseries.residues import compose_polynomial


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


# ----------------------------------------------------------------------

def test_criterion_01_dyson_identity():
    start = time.monotonic()
    count = 0
    for n in (2, 3, 4):
        for a in itertools.product(range(4), repeat=n):
            if sum(a) > 6:
                continue
            inst = DysonInstance(n, a)
            assert dyson_ct(inst) == dyson_rhs(inst), (n, a)
            count += 1
    elapsed = time.monotonic() - start
    report(1, elapsed < 10, f"({count} instances, {elapsed:.1f}s < 10s)")


def test_criterion_02_generalized_dyson():
    start = time.monotonic()
    count = 0
    for a in itertools.product(range(6), repeat=3):
        if sum(a) > 5:
            continue
        inst = DysonInstance(3, a, generalized=True)
        assert dyson_ct(inst) == dyson_rhs(inst), a
        count += 1
    elapsed = time.monotonic() - start
    report(2, elapsed < 10, f"({count} instances, {elapsed:.1f}s < 10s)")


def test_criterion_03_dixon_equivalence():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert dixon_sum(a, b, c) == dyson_ct(DysonInstance(3, (a, b, c)))
    report(3, True, "(125 instances)")


def test_criterion_04_j_r_formula():
    for n in (3, 4, 5):
        for r in range(-6, 7):
            assert j_r_closed_form(n, r) == j_r_determinant(n, r), (n, r)
        assert j_r_closed_form(n, n - 1) == (n - 1) * factorial(n) // 2
    assert j_r_closed_form(4, 3) == 36
    assert j_r_closed_form(4, 3) != 30  # the corrected constant
    report(4, True, "(n in 3..5, r in -6..6; j(3) = 36, not 30)")


def test_criterion_05_log_jacobian_worked_example():
    spec = identity_spec(("x", "t"))
    F = Series(spec, {(2, 0): 1, (1, 1): 1, (3, 1): 1}, box=cube(2, 16))
    ct = log_jacobian([F], ["x"]).extract(["x"], 0)
    assert ct.coefficient((0,)) == 2
    for k in range(1, 7):
        assert ct.coefficient((2 * k,)) == 0, k
    report(5, True, "(CT_x LJ = 2, t^2k coefficients vanish, k <= 6)")


def test_criterion_06_univariate_change_of_variables():
    spec = identity_spec(("x",))
    phi = parse("x^4/(p*x+x^2)")
    text = "(1-x^-1)^4/((x-1)*(p*(1-x^-1)+(1-x^-1)^2))"
    for q in (Fraction(2), Fraction(3, 2), Fraction(7)):
        F = expand_text("1-x^-1", spec)
        verdict = residue_verify(phi, [F], ["x"], bindings={"p": q}, form="ct")
        assert verdict.equal and verdict.lhs == -(q ** 2), q
        direct = expand_text(text, spec, bindings={"p": q})
        assert direct.coefficient((0,)) == -(q ** 2), q
    report(6, True, "(CT = -q^2 for q in {2, 3/2, 7}, both sides and direct)")


def test_criterion_07_big_constant_term():
    start = time.monotonic()
    spec = identity_spec(("x", "y", "t"))
    expr = ("x^3*exp(t/(x*y))*(2*t-3*x*y)"
            "/((x^3*y*exp(t/(x*y))-t*x-t*y)*(x-y)*(x^3*exp(t/(x*y))-1))")
    box = Box(((-36, 36), (-36, 36), (-1, 8)))
    ct = expand_text(expr, spec, box=box).extract(["x", "y"], 0)
    for k in range(9):
        assert ct.coefficient((k,)) == 3 * 2 ** k, k
    elapsed = time.monotonic() - start
    report(7, elapsed < 30, f"(CT = 3/(1-2t) through t^8, {elapsed:.1f}s < 30s)")


def test_criterion_08_twisted_expansions():
    spec = FieldSpec(("x", "y"), ((2, 1), (1, 2)))
    inv1 = expand_text("1/(x-y)", spec)
    for exponent, value in inv1.terms.items():
        k = exponent[1]
        assert exponent == (-1 - k, k) and k >= 0 and value == 1, exponent
    for k in range(12):
        if inv1.guarantees((-1 - k, k)):
            assert inv1.coefficient((-1 - k, k)) == 1

    inv2 = expand_text("1/(x^2-y)", spec)
    for exponent, value in inv2.terms.items():
        k = exponent[0] // 2
        assert exponent == (2 * k, -1 - k) and k >= 0 and value == -1, exponent
    for k in range(6):
        if inv2.guarantees((2 * k, -1 - k)):
            assert inv2.coefficient((2 * k, -1 - k)) == -1
    report(8, True, "(1/(x-y) and 1/(x^2-y) termwise under [[2,1],[1,2]])")


# ----------------------------------------------------------------------

def _random_cov_instance(rng, box_radius=12):
    n = rng.randint(1, 3)
    spec = identity_spec(tuple(f"x{i}" for i in range(1, n + 1)))
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if int_det(rows) != 0:
            break
    F = []
    for i in range(n):
        terms = {rows[i]: rng.randint(1, 3)}
        for _ in range(rng.randint(0, 2)):
            bump = tuple(rng.randint(0, 2) for _ in range(n))
            if any(bump):
                exponent = tuple(a + b for a, b in zip(rows[i], bump))
                terms.setdefault(exponent, rng.randint(-3, 3))
        F.append(Series(spec, terms, box=cube(n, box_radius)))
    return spec, F


def test_criterion_09_lemma_suite():
    start = time.monotonic()
    rng = random.Random(777)
    for _ in range(100):
        spec, F = _random_cov_instance(rng)
        n = spec.n
        names = list(spec.variables)
        jnum = jacobian_number(F, names)

        assert jacobian(F, names).coefficient((-1,) * n) == 0

        while True:
            e = tuple(rng.randint(-2, 1) for _ in range(n))
            if any(ei != -1 for ei in e):
                break
        powered = jacobian(F, names)
        for s, ei in zip(F, e):
            powered = multiply(powered, s ** ei)
        assert powered.coefficient((-1,) * n) == 0, e

        inv_product = jacobian(F, names)
        for s in F:
            inv_product = multiply(inv_product, s.invert())
        assert inv_product.coefficient((-1,) * n) == jnum

        assert log_jacobian(F, names).coefficient((0,) * n) == jnum

        parts = [f"{v}^{rng.randint(-1, 1)}" for v in names]
        phi_text = "*".join(parts)
        res_phi = phi_text + "*" + "*".join(f"{v}^-1" for v in names)
        v_res = residue_verify(parse(res_phi), F, names, form="res")
        v_ct = residue_verify(parse(phi_text), F, names, form="ct")
        assert v_res.equal and v_ct.equal
        assert v_res.lhs == v_ct.lhs  # Eq (2) and Eq (2') give the same value
    elapsed = time.monotonic() - start
    report(9, elapsed < 60, f"(100 instances x 5 lemmas, {elapsed:.1f}s < 60s)")


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def _random_normalized_F(rng, spec, max_degree=3):
    F = []
    for i in range(spec.n):
        unit = tuple(1 if j == i else 0 for j in range(spec.n))
        terms = {unit: 1}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, max_degree) for _ in range(spec.n))
            if 2 <= sum(e) <= max_degree:
                terms.setdefault(e, rng.randint(-2, 2))
        F.append(Series(spec, terms))
    return F


def _another_formula_holds(F, phi_terms, ydeg):
    """Res_x prod (F_i - y_i)^-1 J(F) Phi(x) = Phi(G(y)) through y-degree."""
    xspec = F[0].spec
    n = xspec.n
    xnames = xspec.variables
    aux = "_deg"
    names = xnames + (aux,) + tuple(f"y{i}" for i in range(1, n + 1))
    N = len(names)
    rows = [
        tuple(1 if j == i else 0 for j in range(n)) + (1,) + (0,) * n
        for i in range(n)
    ]
    rows.append((0,) * n + (1,) + (0,) * n)
    rows.extend(
        (0,) * (n + 1) + tuple(1 if j == i else 0 for j in range(n))
        for i in range(n)
    )
    big = FieldSpec(names, tuple(rows))

    maxdeg = max(sum(e) for s in F for e in s.terms)
    phideg = max((sum(e) for e in phi_terms), default=0)
    depth = n + n * ydeg + maxdeg + phideg + 6
    box = Box(((-depth - 2, depth + 2),) * n + ((-depth, depth),)
              + ((-1, ydeg),) * n)

    def embed(terms):
        return {k + (0,) * (n + 1): v for k, v in terms.items()}

    F_emb = [Series(big, embed(s.terms), box=box) for s in F]
    integrand = Series.constant(big, 1, box=box)
    for i, s in enumerate(F_emb):
        y_i = Series.monomial(
            big, tuple(1 if j == n + 1 + i else 0 for j in range(N)), box=box
        )
        integrand = multiply(integrand, (s + (-y_i)).invert())
    integrand = multiply(integrand, jacobian(F_emb, list(xnames)))
    integrand = multiply(integrand, Series(big, embed(phi_terms), box=box))
    lhs = integrand.extract(xnames, -1).extract([aux], 0)

    G = lagrange_inverse(F, ydeg)
    G_dicts = [{k[:-1]: v for k, v in g.terms.items()} for g in G]
    rhs = compose_polynomial(phi_terms, G_dicts, ydeg)

    for k, v in rhs.items():
        if sum(k) <= ydeg and lhs.coefficient(k) != v:
            return False
    for k, v in lhs.terms.items():
        if sum(k) <= ydeg and rhs.get(k, 0) != v:
            return False
    return True


def test_criterion_10_lagrange():
    # Catalan coefficients through y^10
    F0 = Series(identity_spec(("x",)), {(1,): 1, (2,): -1})
    G0 = lagrange_inverse([F0], 10)[0]
    assert [G0.terms.get((k, 0), 0) for k in range(1, 11)] == CATALAN

    # residue formula against the fixed-point oracle, 20 random 2-variable F
    rng = random.Random(31415)
    spec = identity_spec(("x1", "x2"))
    for _ in range(20):
        F = _random_normalized_F(rng, spec)
        G = lagrange_inverse(F, 6)
        for _ in range(3):
            k = (rng.randint(0, 5), rng.randint(0, 5))
            if not 1 <= sum(k) <= 6:
                continue
            i = rng.randrange(2)
            oracle = G[i].terms.get(k + (0,), 0)
            assert lagrange_coefficient(parse(spec.variables[i]), F, k) == oracle

    # the summed form, as truncated series in y, 10 random instances
    for _ in range(10):
        F = _random_normalized_F(rng, spec)
        phi_terms = {}
        for _ in range(rng.randint(1, 2)):
            coeff = rng.randint(-3, 3)
            if coeff:
                phi_terms[(rng.randint(0, 2), rng.randint(0, 2))] = coeff
        if not phi_terms:
            phi_terms = {(1, 0): 1}
        assert _another_formula_holds(F, phi_terms, 3)
    report(10, True, "(Catalan through y^10; oracle match; summed form)")


def test_criterion_11_ct_kernel_lemma():
    spec = identity_spec(("x", "u"))
    rng = random.Random(2718)
    kernel = Series(spec, {(0, 0): 1, (-1, 1): -1}, box=cube(2, 16))
    inv_kernel = kernel.invert()
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        phi = Series(spec, {(k, 0): c for k, c in enumerate(coeffs) if c})
        lhs = multiply(phi, inv_kernel).extract(["x"], 0)
        for k, c in enumerate(coeffs):
            if lhs.guarantees((k,)):
                assert lhs.coefficient((k,)) == c
        for exponent, value in lhs.terms.items():
            want = coeffs[exponent[0]] if 0 <= exponent[0] < len(coeffs) else 0
            assert value == want
    report(11, True, "(CT_x Phi(x)/(1-u/x) = Phi(u), 50 random Phi, deg <= 8)")


def test_criterion_12_wilson():
    # sum v_j = 1 for n in {3, 4}
    for n, radius, inner in ((3, 12, 9), (4, 10, 5)):
        spec = zspec(n)
        box = cube(n, radius)
        vs = [wilson_v(n, j, spec, box) for j in range(1, n + 1)]
        total = vs[0]
        for v in vs[1:]:
            total = total + v
        assert total.equals_on(1, box=cube(n, inner)), n

    # LJ(v1, v2) = 2! v3 for n = 3
    spec = zspec(3)
    vs = [wilson_v(3, j, spec, cube(3, 12)) for j in (1, 2, 3)]
    lj = log_jacobian(vs[:2], ["z1", "z2"])
    assert lj.equals_on(vs[2].scale(2), box=cube(3, 9))

    # CT_z prod v_j^(-a_j) = multinomial for sum(a) <= 4 (v_j^-1 is exact)
    def inv_v(j):
        product = Series.constant(spec, 1)
        for i in (1, 2, 3):
            if i == j:
                continue
            ratio = tuple(
                (1 if c == j - 1 else 0) - (1 if c == i - 1 else 0)
                for c in range(3)
            )
            product = multiply(product, Series(spec, {(0, 0, 0): 1, ratio: -1}))
        return product

    inv_vs = [inv_v(j) for j in (1, 2, 3)]
    for a in itertools.product(range(5), repeat=3):
        if sum(a) > 4:
            continue
        product = Series.constant(spec, 1)
        for j in (1, 2, 3):
            product = multiply(product, inv_vs[j - 1] ** a[j - 1])
        want = factorial(sum(a)) // (
            factorial(a[0]) * factorial(a[1]) * factorial(a[2])
        )
        assert product.coefficient((0, 0, 0)) == want, a

    # one truncated cross-check of the same identity
    truncated = Series.constant(spec, 1, box=cube(3, 12))
    for j in (1, 2, 3):
        truncated = multiply(truncated, wilson_v(3, j, spec, cube(3, 12)).invert())
    assert truncated.coefficient((0, 0, 0)) == 6
    report(12, True, "(sum v_j = 1 for n in {3,4}; LJ = 2 v_3; Dyson via v_j)")


def test_criterion_13_box_enlargement():
    rng = random.Random(20240820)
    specs = [identity_spec(("x", "y")), FieldSpec(("x", "y"), ((2, 1), (1, 2)))]

    def monomial_text(nonneg, maxdeg=2):
        lo = 0 if nonneg else -maxdeg
        parts = []
        for v in ("x", "y"):
            e = rng.randint(lo, maxdeg)
            if e:
                parts.append(f"{v}^{e}" if e != 1 else v)
        return "*".join(parts)

    def pipeline_text():
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(-3, 3)
            if c:
                mono = monomial_text(nonneg=False)
                terms.append(f"{c}*{mono}" if mono else str(c))
        numerator = "(" + " + ".join(terms or ["1"]) + ")"
        factors = []
        for _ in range(rng.randint(1, 2)):
            while True:
                mono = monomial_text(nonneg=True)
                if mono:
                    break
            factors.append(f"(1 - {rng.choice([1, 2, -1, -2])}*{mono})")
        return f"{numerator} / ({'*'.join(factors)})"

    ran = 0
    for trial in range(50):
        spec = specs[trial % 2]
        text = pipeline_text()
        try:
            small = expand_text(text, spec, box=cube(2, 16)).extract(["x"], 0)
            big = expand_text(text, spec, box=cube(2, 24)).extract(["x"], 0)
        except MNError:
            continue
        assert small.equals_on(big, box=small.box), (text, spec.twist)
        ran += 1
    report(13, ran >= 45, f"({ran}/50 pipelines agreed on the small box)")


def test_criterion_14_refusal():
    spec = identity_spec(("x1", "x2"))
    F1 = expand_text("x1^2", spec)
    F2 = expand_text("x1*(1+x1)", spec)
    # the counterexample series sum_k x2^k/x1^k - sum_k x2^3k/x1^2k, as the
    # rational function it sums to
    phi = parse("1/(1-x2/x1) - 1/(1-x2^3/x1^2)")
    with pytest.raises(RefusedSingular):
        residue_verify(phi, [F1, F2], ["x1", "x2"])

    import os

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mnseries.cli", "cov", "--vars", "x1,x2",
         "--phi", "1/(1-x2/x1) - 1/(1-x2^3/x1^2)",
         "--cov", "x1^2;x1*(1+x1)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "refused-singular" in proc.stderr
    report(14, True, "(RefusedSingular diagnostic, exit code 1)")
