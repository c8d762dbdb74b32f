import random
from fractions import Fraction

import pytest

from mnseries import (
    ExpansionFailure,
    RefusedSingular,
    Series,
    SpecMismatch,
    UnboundVariable,
    UsageError,
    ZeroSeries,
    change_of_variables,
    cube,
    expand_text,
    graded_spec,
    identity_spec,
    jacobian,
    jacobian_number,
    log_jacobian,
    multiply,
    parse,
    residue_verify,
    zspec,
)
from mnseries.series import chain_extract

X = identity_spec(("x",))
XT = identity_spec(("x", "t"))
XYT = identity_spec(("x", "y", "t"))


def test_jacobian_of_coordinates_is_one():
    spec = identity_spec(("x1", "x2"))
    F = [Series.variable(spec, "x1"), Series.variable(spec, "x2")]
    assert jacobian(F, ["x1", "x2"]).equals_on(1)


def test_jacobian_of_monomials():
    # J(f) = j(f) f1 f2 / (x1 x2) for monomial f
    rng = random.Random(13)
    spec = identity_spec(("x1", "x2"))
    for _ in range(40):
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)
        ]
        coeffs = [rng.randint(1, 5), rng.randint(1, 5)]
        F = [Series(spec, {rows[i]: coeffs[i]}) for i in range(2)]
        lhs = jacobian(F, ["x1", "x2"])
        jnum = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        rhs = multiply(F[0], F[1]).shift((-1, -1)).scale(jnum)
        assert lhs.equals_on(rhs)


def test_jacobian_matches_permutation_formula():
    rng = random.Random(14)
    spec = identity_spec(("x1", "x2"))
    for _ in range(20):
        F = [
            Series(spec, {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3),
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3),
            })
            for _ in range(2)
        ]
        d = [[f.derivative(v) for v in ("x1", "x2")] for f in F]
        explicit = multiply(d[0][0], d[1][1]) + (-multiply(d[0][1], d[1][0]))
        assert jacobian(F, ["x1", "x2"]).equals_on(explicit)


def test_jacobian_number_worked_examples():
    F = Series(XT, {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    assert jacobian_number([F], ["x"]) == 2

    Fb = expand_text("x^2*y*exp(t/(x*y))", XYT)
    Gb = expand_text("x*y^2*exp(t/(x*y))", XYT)
    assert jacobian_number([Fb, Gb], ["x", "y"]) == 3

    spec = identity_spec(("x1", "x2"))
    F_id = [Series.variable(spec, "x1"), Series.variable(spec, "x2")]
    assert jacobian_number(F_id, ["x1", "x2"]) == 1


def test_jacobian_number_rejects_a_non_square_matrix():
    F = expand_text("x^2*y+x^3", identity_spec(("x", "y")))
    with pytest.raises(SpecMismatch):
        jacobian_number([F], ["x", "y"])


def test_substitution_rejects_a_repeated_x_name():
    spec = identity_spec(("x", "y"))
    F = [expand_text("x^2", spec), expand_text("y^2", spec)]
    for compute in (jacobian, log_jacobian, jacobian_number, change_of_variables):
        with pytest.raises(UsageError, match="variable 'x' selected twice"):
            compute(F, ["x", "x"])


def test_substitution_rejects_an_empty_list():
    for compute in (jacobian, log_jacobian, jacobian_number, change_of_variables):
        with pytest.raises(SpecMismatch):
            compute([], [])


def test_log_jacobian_big_example():
    Fb = expand_text("x^2*y*exp(t/(x*y))", XYT)
    Gb = expand_text("x*y^2*exp(t/(x*y))", XYT)
    lj = log_jacobian([Fb, Gb], ["x", "y"])
    assert lj.equals_on(expand_text("3-2*t/(x*y)", XYT))


def test_log_jacobian_of_coordinates():
    spec = identity_spec(("x1", "x2", "x3"))
    F = [Series.variable(spec, v) for v in spec.variables]
    assert log_jacobian(F, list(spec.variables)).equals_on(1)


def test_log_jacobian_univariate_example():
    F = expand_text("1-x^-1", X)
    assert log_jacobian([F], ["x"]).equals_on(expand_text("1/(x-1)", X))


def test_ct_log_jacobian_worked_example():
    F = Series(XT, {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    ct = log_jacobian([F], ["x"]).extract(["x"], 0)
    assert ct.coefficient((0,)) == 2
    for k in range(1, 7):
        assert ct.coefficient((2 * k,)) == 0


def test_log_jacobian_x_initial_term_is_the_jacobian_number():
    # when j(F) != 0, the x-initial term of LJ(F) is the constant j(F)
    F = Series(XT, {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    lj = log_jacobian([F], ["x"])
    leading, _ = lj.initial_term()
    assert leading == (0, 0)
    assert lj.extract(["x"], leading[:1]).equals_on(2)


# ----------------------------------------------------------------------
# the residue identity

def test_residue_verify_pi_example():
    F = expand_text("1-x^-1", X)
    phi = parse("x^4/(p*x+x^2)")
    for q in (Fraction(2), Fraction(3, 2), Fraction(7)):
        verdict = residue_verify(phi, [F], ["x"], bindings={"p": q}, form="ct")
        assert verdict.jacobian_number == -1
        assert verdict.equal
        assert verdict.lhs == -(q ** 2)
        assert verdict.rhs == -(q ** 2)


def test_residue_monomial_with_non_minus_one_exponent():
    # Res_x F^e J(F) = 0 when some e_i != -1
    F = expand_text("x^2+x*t+x^3*t", XT)
    verdict = residue_verify(parse("x^2"), [F], ["x"], form="res")
    assert verdict.equal
    assert verdict.lhs.is_zero_on()


def test_residue_inverse_product_gives_jacobian_number():
    F1 = expand_text("x^2*y*exp(t/(x*y))", XYT)
    F2 = expand_text("x*y^2*exp(t/(x*y))", XYT)
    verdict = residue_verify(parse("1/(x*y)"), [F1, F2], ["x", "y"], form="res")
    assert verdict.equal
    assert verdict.lhs.coefficient((0,)) == 3
    assert verdict.jacobian_number == 3


def test_refusal_for_singular_nonpolynomial():
    spec = identity_spec(("x1", "x2"))
    F1 = expand_text("x1^2", spec)
    F2 = expand_text("x1*(1+x1)", spec)
    with pytest.raises(RefusedSingular):
        residue_verify(parse("1/(1-x2/x1)"), [F1, F2], ["x1", "x2"])


def test_singular_usage_error_is_not_a_refusal():
    # j(1+x) = 0, and phi cannot expand at all: the unbound q is the user's
    # error, not a singular change of variables
    F = expand_text("1+x", X)
    with pytest.raises(UnboundVariable):
        residue_verify(parse("x*q"), [F], ["x"])
    with pytest.raises(UsageError, match="unknown form 'x'"):
        residue_verify(parse("x"), [F], ["x"], form="x")
    # nor, with j = -1, a failure of the composition gate
    with pytest.raises(UnboundVariable):
        residue_verify(parse("x*q"), [expand_text("1-x^-1", X)], ["x"])


def test_singular_refusal_when_phi_cannot_expand():
    # j(1+x) = 0 and phi = 1/0 has no expansion at all: refused as singular
    F = expand_text("1+x", X)
    with pytest.raises(RefusedSingular, match="phi is not a Laurent polynomial"):
        residue_verify(parse("1/(x-x)"), [F], ["x"])


def test_singular_laurent_polynomial_still_holds():
    spec = identity_spec(("x1", "x2"))
    F1 = expand_text("x1^2", spec)
    F2 = expand_text("x1*(1+x1)", spec)
    verdict = residue_verify(parse("x1*x2^2"), [F1, F2], ["x1", "x2"], form="res")
    assert verdict.jacobian_number == 0
    assert verdict.equal


def test_expansion_gate_failure():
    # under the f = x^-1 twist, x has negative order, so exp(x) is not in
    # the twisted field even though exp(F) would be fine pointwise
    F = expand_text("1-x^-1", X)
    with pytest.raises(ExpansionFailure):
        residue_verify(parse("exp(x)"), [F], ["x"])


def test_change_of_variables_data():
    F = expand_text("1-x^-1", X)
    cov = change_of_variables([F], ["x"])
    assert cov.jnum == -1
    assert cov.leading_exponents == ((-1,),)
    assert cov.target.twist == ((-1,),)


# ----------------------------------------------------------------------
# random instance generators shared with the acceptance suite

def random_cov_instance(rng, max_vars=3, box_radius=8):
    """Laurent polynomial F with nonzero Jacobian number, as the lemmas need."""
    n = rng.randint(1, max_vars)
    spec = identity_spec(tuple(f"x{i}" for i in range(1, n + 1)))
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        from mnseries import int_det

        if int_det(rows) != 0:
            break
    F = []
    for i in range(n):
        terms = {rows[i]: rng.randint(1, 3)}
        # tail terms strictly above the initial one keep the x-initial intact
        for _ in range(rng.randint(0, 2)):
            bump = tuple(rng.randint(0, 2) for _ in range(n))
            if any(bump):
                exponent = tuple(a + b for a, b in zip(rows[i], bump))
                terms.setdefault(exponent, rng.randint(-3, 3))
        F.append(Series(spec, terms, box=cube(spec.n, box_radius)))
    return spec, F, rows


def test_lemma_suite_small_sample():
    rng = random.Random(15)
    for _ in range(10):
        spec, F, rows = random_cov_instance(rng)
        names = list(spec.variables)
        # Res_x J(F) = 0
        assert jacobian(F, names).coefficient((-1,) * spec.n) == 0
        # CT_x LJ(F) = j(F)
        assert log_jacobian(F, names).coefficient((0,) * spec.n) == \
            jacobian_number(F, names)


def test_jacobian_multilinear_alternating_anticommutative():
    rng = random.Random(16)
    spec = identity_spec(("x1", "x2"))
    names = ["x1", "x2"]
    for _ in range(25):
        def poly():
            return Series(spec, {
                (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3),
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3),
            })

        F1, G1, F2 = poly(), poly(), poly()
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = jacobian([F1.scale(a) + G1.scale(b), F2], names)
        rhs = jacobian([F1, F2], names).scale(a) + jacobian([G1, F2], names).scale(b)
        assert lhs.equals_on(rhs)
        # alternating and anticommutative
        assert jacobian([F1, F1], names).is_zero_on()
        assert jacobian([F1, F2], names).equals_on(-jacobian([F2, F1], names))


def test_jacobian_composition_and_product_rules():
    rng = random.Random(17)
    spec = identity_spec(("x1", "x2"))
    names = ["x1", "x2"]
    for _ in range(15):
        F1 = Series(spec, {(1, 0): 1, (2, 1): rng.randint(-2, 2), (0, 2): 1})
        F2 = Series(spec, {(0, 1): 1, (1, 1): rng.randint(-2, 2)})
        # composition rule with g(z) = z^2 + 3z: J(g(F1), F2) = g'(F1) J(F)
        gF1 = multiply(F1, F1) + F1.scale(3)
        gprime = F1.scale(2) + 3
        assert jacobian([gF1, F2], names).equals_on(
            multiply(gprime, jacobian([F1, F2], names))
        )
        # product rule
        G1 = Series(spec, {(1, 1): 1, (0, 0): rng.randint(1, 3)})
        lhs = jacobian([multiply(F1, G1), F2], names)
        rhs = multiply(F1, jacobian([G1, F2], names)) + \
            multiply(G1, jacobian([F1, F2], names))
        assert lhs.equals_on(rhs)
        # J(F2^{-1}, F2, ...) = 0
        assert jacobian([F2.invert(), F2], names).is_zero_on()


def test_res_and_ct_forms_agree():
    # Eq (2) and Eq (2'): ct-form of phi equals res-form of phi/(x1...xn)
    F1 = expand_text("x^2*y*exp(t/(x*y))", XYT)
    F2 = expand_text("x*y^2*exp(t/(x*y))", XYT)
    ct_form = residue_verify(parse("1"), [F1, F2], ["x", "y"], form="ct")
    res_form = residue_verify(parse("1/(x*y)"), [F1, F2], ["x", "y"], form="res")
    assert ct_form.equal and res_form.equal
    assert ct_form.lhs.equals_on(res_form.lhs)
    assert ct_form.rhs.equals_on(res_form.rhs)


def test_monomial_substitution_preserves_ct():
    # for monomial f with j != 0 and phi a Laurent polynomial (in x) times a
    # power series in a later variable: CT_x phi(f) = CT_x phi(x)
    spec = identity_spec(("x1", "x2", "y"))
    rng = random.Random(18)
    for _ in range(10):
        while True:
            rows = [(rng.randint(-2, 2), rng.randint(-2, 2), 0) for _ in range(2)]
            if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
                break
        f = [Series(spec, {rows[i]: 1}) for i in range(2)]
        phi_terms = {}
        for _ in range(4):
            phi_terms[(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))] = \
                rng.randint(-3, 3)
        phi = Series(spec, phi_terms)
        # substitute the monomials for x1, x2 term by term
        substituted = Series.zero(spec)
        for exponent, coeff in phi.terms.items():
            term = Series(spec, {(0, 0, exponent[2]): coeff})
            term = multiply(term, f[0] ** exponent[0])
            term = multiply(term, f[1] ** exponent[1])
            substituted = substituted + term
        ct = phi.extract(["x1", "x2"], 0)
        assert substituted.extract(["x1", "x2"], 0).equals_on(ct)


def test_extra_ct_lemma():
    # CT_x Phi(x)/(1 - u/x) = Phi(u) for polynomial Phi, u more significant
    spec = identity_spec(("x", "u"))
    rng = random.Random(19)
    for _ in range(10):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))]
        phi = Series(spec, {(k, 0): c for k, c in enumerate(coeffs)})
        kernel = Series(spec, {(0, 0): 1, (-1, 1): -1}, box=spec.default_box())
        lhs = multiply(phi, kernel.invert()).extract(["x"], 0)
        expected = {(k,): c for k, c in enumerate(coeffs) if c}
        for exponent, value in expected.items():
            assert lhs.coefficient(exponent) == value
        for exponent in lhs.terms:
            assert expected.get(exponent, 0) == lhs.terms[exponent]


# ----------------------------------------------------------------------
# a substitution's Jacobian, log Jacobian and initial-term data, once

def _copies(F):
    return [Series(s.spec, s.terms, box=s.box, exact=s.exact) for s in F]


def _cov_data(cov):
    return (cov.leading_exponents, cov.jnum, cov.target)


def test_a_substitution_is_computed_once():
    spec = identity_spec(("x1", "x2"))
    names = ["x1", "x2"]
    F = [Series(spec, {(-1, 2): 1, (1, 3): 3}, box=cube(2, 8)),
         Series(spec, {(-2, 0): 1, (-2, 1): -3, (-1, 1): 1}, box=cube(2, 8))]
    for compute in (jacobian, log_jacobian, change_of_variables):
        first = compute(F, names)
        assert compute(tuple(F), tuple(names)) is first, compute.__name__
        again = compute(_copies(F), names)
        assert again is not first and again == first, compute.__name__
    J = jacobian(F, names)
    # a permuted F or permuted names is another substitution: J changes sign
    for swapped in (jacobian(F[::-1], names), jacobian(F, names[::-1])):
        assert swapped is not J and swapped == -J
    assert jacobian(F, names) is J and jacobian_number(F[::-1], names) == -4
    assert jacobian_number(F, names) == 4
    # so is one whose first series is the same object but not the rest
    assert jacobian([F[0], F[1].scale(2)], names) == J.scale(2)


def test_a_refused_substitution_is_refused_again():
    spec = identity_spec(("x1", "x2"))
    names = ["x1", "x2"]
    F = [Series.zero(spec), Series.variable(spec, "x2")]
    for _ in range(2):
        with pytest.raises(ZeroSeries):
            change_of_variables(F, names)
        with pytest.raises(ZeroSeries):
            jacobian_number(F, names)
    assert jacobian(F, names) is jacobian(F, names)


def test_stored_substitution_results_equal_a_recomputation():
    # criterion 9's instances (its seed and box): after both forms of the
    # identity have run on F, each stored result reads as a recomputation on
    # new objects does
    rng = random.Random(777)
    for _ in range(50):
        spec, F, _ = random_cov_instance(rng, box_radius=12)
        names = list(spec.variables)
        phi = parse("*".join(f"{v}^{rng.randint(-1, 1)}" for v in names))
        fresh = _copies(F)
        verdicts = {}
        for G in (F, F, fresh):
            for form in ("res", "ct"):
                verdicts.setdefault(form, []).append(
                    residue_verify(phi, G, names, form=form).to_json())
        assert all(v[0] == v[1] == v[2] for v in verdicts.values())
        assert jacobian(F, names).to_json() == jacobian(fresh, names).to_json()
        assert log_jacobian(F, names).to_json() == log_jacobian(fresh, names).to_json()
        assert _cov_data(change_of_variables(F, names)) == \
            _cov_data(change_of_variables(fresh, names))


def test_field_specs_are_built_once():
    assert zspec(3) is zspec(3)
    assert graded_spec(["a", "b"]) is graded_spec(("a", "b"))


def test_a_bare_string_is_not_a_list_of_names():
    # "x1" would be read letter by letter: one series for two names
    spec = identity_spec(("x1",))
    F = [expand_text("x1+x1^2", spec)]
    for read in (lambda: jacobian(F, "x1"), lambda: log_jacobian(F, "x1"),
                 lambda: change_of_variables(F, "x1"), lambda: jacobian_number(F, "x1"),
                 lambda: residue_verify(parse("1/x1"), F, "x1"), lambda: graded_spec("xy")):
        with pytest.raises(UsageError, match="got the string"):
            read()
    assert jacobian_number(F, ["x1"]) == 1
    assert residue_verify(parse("1/x1"), F, ["x1"]).equal


def test_graded_spec_aux_name_avoids_the_field_names():
    assert graded_spec(("x",)).variables == ("x", "_deg")
    assert graded_spec(("_deg",)).variables == ("_deg", "_deg_")
    assert graded_spec(("_deg", "_deg_")).variables == ("_deg", "_deg_", "_deg__")


def test_iterable_arguments_are_read_once():
    # a generator for F or xnames answers as a list does
    def generator(items):
        return (item for item in items)

    F = expand_text("1-x^-1", X)
    phi = parse("x^4/(p*x+x^2)")
    verdicts = [residue_verify(phi, make([F]), make(["x"]), bindings={"p": Fraction(2)},
                               form="ct") for make in (list, generator)]
    assert [(v.lhs, v.rhs, v.equal) for v in verdicts] == [(-4, -4, True)] * 2
    a, b = expand_text("1/(1-x-t)", XT), expand_text("1+x", XT)
    assert (chain_extract(generator([a, b]), generator(["x"]), 0)
            == chain_extract([a, b], ["x"], 0) == multiply(a, b).extract(["x"], 0))
