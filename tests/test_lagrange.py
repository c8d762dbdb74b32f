import math
import random

import pytest

from mnseries import (
    BadNormalization,
    MNError,
    OutOfPrecision,
    Series,
    SpecMismatch,
    UsageError,
    identity_spec,
    lagrange_coefficient,
    lagrange_inverse,
    parse,
)
from mnseries import residues
from mnseries import series as series_module
from mnseries.ordering import Box
from mnseries.parser import expand
from mnseries.residues import (
    compose_polynomial,
    embed_graded,
    graded_spec,
    jacobian,
)
from mnseries.series import multiply

X = identity_spec(("x",))
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_inverse_of_x_minus_x_squared_is_catalan():
    F = Series(X, {(1,): 1, (2,): -1})
    G = lagrange_inverse([F], 10)[0]
    got = [G.terms.get((k, 0), 0) for k in range(1, 11)]
    assert got == CATALAN


def test_inverse_of_identity():
    F = Series(X, {(1,): 1})
    G = lagrange_inverse([F], 6)[0]
    assert G.terms == {(1, 0): 1}


def test_two_variable_round_trip():
    spec = identity_spec(("x1", "x2"))
    F = [
        Series(spec, {(1, 0): 1, (0, 2): -1}),  # x1 - x2^2
        Series(spec, {(0, 1): 1, (2, 0): -1}),  # x2 - x1^2
    ]
    degree = 8
    G = lagrange_inverse(F, degree)
    G_dicts = [{k[:-1]: v for k, v in g.terms.items()} for g in G]
    for i, f in enumerate(F):
        composed = compose_polynomial(f.terms, G_dicts, degree)
        unit = tuple(1 if j == i else 0 for j in range(2))
        assert composed == {unit: 1}
    # and the other direction: G_i(F) = x_i
    F_dicts = [f.terms for f in F]
    for i in range(2):
        composed = compose_polynomial(G_dicts[i], F_dicts, degree)
        unit = tuple(1 if j == i else 0 for j in range(2))
        assert composed == {unit: 1}


def test_normalization_errors():
    with pytest.raises(BadNormalization):
        lagrange_inverse([Series(X, {(1,): 2})], 4)
    with pytest.raises(BadNormalization):
        lagrange_inverse([Series(X, {(1,): 1, (0,): 1})], 4)
    with pytest.raises(BadNormalization):
        lagrange_inverse([Series(X, {(2,): 1})], 4)
    # one series per variable, exact, with no negative exponent
    F = Series(X, {(1,): 1, (2,): -1})
    for refused, error in (([F, F], SpecMismatch),
                           ([Series(X, F.terms, exact=False)], BadNormalization),
                           ([Series(X, {(1,): 1, (-2,): 1})], BadNormalization)):
        with pytest.raises(error):
            lagrange_inverse(refused, 4)


def test_coefficient_formula_catalan_values():
    # [y^k] G = Catalan(k-1)
    F = Series(X, {(1,): 1, (2,): -1})
    assert lagrange_coefficient(parse("x"), [F], (1,)) == 1
    assert lagrange_coefficient(parse("x"), [F], (4,)) == 5
    assert lagrange_coefficient(parse("x"), [F], (8,)) == 429


def random_normalized_F(rng, spec, max_degree=3):
    n = spec.n
    F = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        terms = {unit: 1}
        for _ in range(rng.randint(1, 3)):
            exponent = tuple(rng.randint(0, max_degree) for _ in range(n))
            if 2 <= sum(exponent) <= max_degree:
                terms.setdefault(exponent, rng.randint(-2, 2))
        F.append(Series(spec, terms))
    return F


def test_coefficient_formula_matches_fixed_point_oracle():
    rng = random.Random(20240819)
    spec = identity_spec(("x1", "x2"))
    for _ in range(6):
        F = random_normalized_F(rng, spec)
        G = lagrange_inverse(F, 6)
        for _ in range(3):
            k = (rng.randint(0, 3), rng.randint(0, 3))
            if sum(k) == 0 or sum(k) > 5:
                continue
            i = rng.randrange(2)
            oracle = G[i].terms.get(k + (0,), 0)
            phi = parse(spec.variables[i])
            assert lagrange_coefficient(phi, F, k) == oracle, (F[0].terms, F[1].terms, k, i)


def _full_cap_inverse(F, degree):
    """The fixed point G <- x - (F(G) - G) run ``degree`` times, every pass
    capped at ``degree``, as a graded series per variable."""
    n = F[0].spec.n
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    tails = [{e: v for e, v in s.terms.items() if e != unit} for s, unit in zip(F, units)]
    G = [{unit: 1} for unit in units]
    for _ in range(degree):
        G = [{unit: 1, **{e: -v for e, v in compose_polynomial(tail, G, degree).items()}}
             for unit, tail in zip(units, tails)]
    gspec = graded_spec(F[0].spec.variables)
    box = Box(((0, degree),) * (n + 1))
    return [Series(gspec, {e + (0,): v for e, v in g.items()}, box=box, exact=False)
            for g in G]


def test_inverse_caps_rise_to_the_degree():
    # pass t at cap t, caps 2..degree, equals degree passes at the full cap
    rng = random.Random(59)
    for names in (("x",), ("x1", "x2"), ("x1", "x2", "x3")):
        spec = identity_spec(names)
        for degree in range(8):
            F = random_normalized_F(rng, spec, max_degree=rng.randint(2, 4))
            assert lagrange_inverse(F, degree) == _full_cap_inverse(F, degree), (
                [s.terms for s in F], degree)


def test_general_phi_coefficient():
    # [y^k] Phi(G(y)) for Phi = x^2 via the residue formula
    F = Series(X, {(1,): 1, (2,): -1})
    G = lagrange_inverse([F], 10)[0]
    G_dict = {k[:-1]: v for k, v in G.terms.items()}
    square = compose_polynomial({(2,): 1}, [G_dict], 9)
    for k in range(2, 9):
        assert lagrange_coefficient(parse("x^2"), [F], (k,)) == square.get((k,), 0)


def _full_box_coefficient(phi, F, k):
    """The residue formula with every factor on the full padded box.

    Reference for the degree budget of ``lagrange_coefficient``: the same
    box and the same final ``coefficient`` guard, with no factor truncated
    below the box.  Each power is the chain ``s.invert() ** (1 + k_i)``, so
    the reference does not share the binomial power sum of ``s ** -n``.
    """
    spec = F[0].spec
    n = spec.n
    gspec = graded_spec(spec.variables)
    maxdeg = max(sum(e) for s in F for e in s.terms)
    spread = sum(k) + n * (maxdeg - 1) + 4
    lo = -(n + sum(k) + spread)
    width = max(abs(lo), spread) + max(k) + 2
    box = Box(((-width, width),) * n + ((lo, spread),))
    integrand = Series.constant(gspec, 1, box=box)
    embedded = [embed_graded(s, gspec, box) for s in F]
    for s, ki in zip(embedded, k):
        integrand = multiply(integrand, s.invert() ** (1 + ki))
    integrand = multiply(integrand, expand(phi, gspec, box=box))
    integrand = multiply(integrand, jacobian(embedded, spec.variables))
    return integrand.coefficient((-1,) * n + (0,))


def _outcome(function, *args):
    """The value, or the class of the MNError raised."""
    try:
        return function(*args)
    except MNError as exc:
        return type(exc)


BUDGET_PHIS = [
    f"x1^{a}*x2^{b}" for a in range(-14, 4) for b in range(-14, 2, 3)
] + [
    "1/(1-x1)", "exp(x1)", "1/(1-x1-x2)^3", "log(1+x2)", "x1^-2/(1-x2)",
    "1/(x1-x1^2)", "x2^3/(1+x1*x2)", "x1^-3*exp(x2)", "1/(x1-x2)",
    "x1^-1*x2^-1*log(1-x1-x2)",
]
BUDGET_KS = [(0, 1), (1, 2), (0, 3), (3, 3), (2, 0)]


def test_degree_budget_matches_the_full_box_reference():
    rng = random.Random(7)
    spec = identity_spec(("x1", "x2"))
    Fs = [random_normalized_F(rng, spec) for _ in range(3)]
    for text in BUDGET_PHIS:
        phi = parse(text)
        for k in BUDGET_KS:
            F = rng.choice(Fs)
            expected = _outcome(_full_box_coefficient, phi, F, k)
            assert _outcome(lagrange_coefficient, phi, F, k) == expected, (text, k)


def test_degree_budget_edge_cases():
    spec = identity_spec(("x1", "x2"))
    F = [
        Series(spec, {(1, 0): 1, (0, 2): -1}),  # x1 - x2^2
        Series(spec, {(0, 1): 1, (2, 0): -1}),  # x2 - x1^2
    ]
    # deg Phi = 4 > |k| = 1: every integrand term lies above the target
    assert lagrange_coefficient(parse("x1^3*x2"), F, (0, 1)) == 0
    # the budget must count deg Phi: |k| alone would keep too few degrees
    assert (lagrange_coefficient(parse("x1^-3"), F, (0, 3))
            == _full_box_coefficient(parse("x1^-3"), F, (0, 3)))
    catalan_F = [Series(X, {(1,): 1, (2,): -1})]
    # a Phi with no stored terms has no initial degree
    assert lagrange_coefficient(parse("1/(1-x)-1/(1-x)"), catalan_F, (4,)) == 0
    # the final coefficient call still refuses a target outside the box
    with pytest.raises(OutOfPrecision):
        lagrange_coefficient(parse("x^-12"), catalan_F, (4,))


def test_degree_budget_cuts_pair_products(monkeypatch):
    spec = identity_spec(("x1", "x2"))
    F = [
        Series(spec, {(1, 0): 1, (1, 1): 2, (0, 3): -1}),
        Series(spec, {(0, 1): 1, (2, 0): 1, (1, 2): -2}),
    ]
    convolve = series_module._convolve
    pairs = [0]

    def counting(spec, aterms, bterms, keep):
        pairs[0] += len(aterms) * len(bterms)
        return convolve(spec, aterms, bterms, keep)

    monkeypatch.setattr(series_module, "_convolve", counting)
    reference = _full_box_coefficient(parse("x1"), F, (3, 3))
    full_pairs, pairs[0] = pairs[0], 0
    assert lagrange_coefficient(parse("x1"), F, (3, 3)) == reference
    assert 5 * pairs[0] <= full_pairs


def test_large_k_is_catalan():
    F = Series(X, {(1,): 1, (2,): -1})
    assert lagrange_coefficient(parse("x"), [F], (120,)) == math.comb(238, 119) // 120


@pytest.mark.parametrize("degree", [2.5, "3", True, -1])
def test_inverse_refuses_a_bad_degree(degree):
    F = Series(X, {(1,): 1, (2,): -1})
    with pytest.raises(UsageError, match="degree must be a nonnegative integer"):
        lagrange_inverse([F], degree)


@pytest.mark.parametrize("k", [("2",), (True,), (2.0,)])
def test_coefficient_refuses_non_integer_indices(k):
    F = Series(X, {(1,): 1, (2,): -1})
    with pytest.raises(UsageError):
        lagrange_coefficient(parse("x"), [F], k)


@pytest.mark.parametrize("k", [(-1,), (), (2, 1)], ids=["negative", "empty", "too-long"])
def test_coefficient_refuses_a_bad_index(k):
    F = Series(X, {(1,): 1, (2,): -1})
    with pytest.raises(UsageError, match="bad coefficient index"):
        lagrange_coefficient(parse("x"), [F], k)


def test_jacobian_is_taken_from_the_callers_F(monkeypatch):
    # J(F) is formed from the caller's F_i themselves, in their own field, so
    # each F_i's derivatives are computed once over all the targets read
    spec = identity_spec(("x1", "x2"))
    F = [Series(spec, {(1, 0): 1, (1, 1): 2, (0, 3): -1}),
         Series(spec, {(0, 1): 1, (2, 0): 1, (1, 2): -2})]
    G = lagrange_inverse(F, 4)
    seen = []
    monkeypatch.setattr(residues, "jacobian",
                        lambda F, names: seen.append(F) or jacobian(F, names))
    for k in ((1, 0), (0, 2), (2, 2)):
        assert lagrange_coefficient(parse("x1"), F, k) == G[0].terms.get(k + (0,), 0)
    assert len(seen) == 3
    assert all(s is t for got in seen for s, t in zip(got, F, strict=True))
