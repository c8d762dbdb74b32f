import random
from fractions import Fraction
from math import comb, factorial

import pytest

from mnseries import (
    DysonInstance,
    FieldSpec,
    Series,
    SingularTwist,
    UsageError,
    dixon_sum,
    dyson_ct,
    dyson_product,
    dyson_rhs,
    h_complete,
    j_r_closed_form,
    j_r_determinant,
    jacobian_number,
    log_jacobian,
    multiply,
    u_r_build,
    vandermonde,
    wilson_v,
    zspec,
)
from mnseries import series
from mnseries.identities import (
    _dyson_factors,
    u_r_initial_matrix,
    vandermonde_determinant,
)
from mnseries.series import chain_extract


def test_vandermonde_small():
    assert vandermonde(1).terms == {(0,): 1}     # empty product
    v2 = vandermonde(2)
    assert v2.terms == {(1, 0): 1, (0, 1): -1}
    v3 = vandermonde(3)
    assert len(v3.terms) == 6
    # (z1-z2)(z1-z3)(z2-z3) expanded by hand
    assert v3.terms == {
        (2, 1, 0): 1, (2, 0, 1): -1, (1, 2, 0): -1,
        (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): -1,
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vandermonde_equals_determinant_form(n):
    assert vandermonde(n).equals_on(vandermonde_determinant(n))


def test_h_complete():
    assert h_complete(2, 0).terms == {(0, 0): 1}
    assert h_complete(2, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert h_complete(2, -1).is_zero()


# ----------------------------------------------------------------------
# Dyson / Dixon

def test_dyson_small_examples():
    assert dyson_ct(DysonInstance(3, (1, 1, 1))) == 6
    assert dyson_ct(DysonInstance(3, (0, 0, 0))) == 1
    assert dyson_ct(DysonInstance(2, (0, 0))) == 1


def test_dyson_n2_product_by_hand():
    inst = DysonInstance(2, (1, 1))
    product = dyson_product(inst)
    assert product.terms == {(0, 0): 2, (1, -1): -1, (-1, 1): -1}
    assert dyson_ct(inst) == 2


def test_dyson_rhs():
    assert dyson_rhs(DysonInstance(3, (1, 1, 1))) == 6
    assert dyson_rhs(DysonInstance(3, (2, 1, 1))) == 12
    assert dyson_rhs(DysonInstance(4, (3, 2, 1, 0))) == factorial(6) // (6 * 2)


def test_dyson_validation():
    with pytest.raises(UsageError):
        DysonInstance(3, (1, 1))
    with pytest.raises(UsageError):
        DysonInstance(2, (-1, 1))
    # the other families' size and sign checks
    for build in (lambda: u_r_build(1, 2), lambda: j_r_closed_form(1, 2),
                  lambda: vandermonde(0), lambda: dixon_sum(1, -1, 1)):
        with pytest.raises(UsageError):
            build()


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_dyson_and_dixon_refuse_non_integers(bad):
    with pytest.raises(UsageError):
        DysonInstance(bad, (1,))
    with pytest.raises(UsageError, match="integers"):
        DysonInstance(3, (bad, 1, 1))
    with pytest.raises(UsageError, match="integers"):
        dixon_sum(bad, 1, 1)
    with pytest.raises(UsageError, match="integers"):
        dixon_sum(1, 1, bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_builders_refuse_non_integers(bad):
    # range() would raise TypeError on a float, a bool would be taken as 1,
    # and int_det would floor-divide a float
    for build in (lambda: zspec(bad), lambda: vandermonde(bad),
                  lambda: h_complete(bad, 1), lambda: h_complete(2, bad),
                  lambda: wilson_v(bad, 1), lambda: wilson_v(3, bad),
                  lambda: u_r_build(bad, 2), lambda: u_r_build(3, bad),
                  lambda: u_r_initial_matrix(3, bad), lambda: j_r_closed_form(3, bad),
                  lambda: j_r_closed_form(bad, 2), lambda: j_r_determinant(3, bad),
                  lambda: j_r_determinant(bad, 2)):
        with pytest.raises(UsageError, match="arguments must be integers"):
            build()


def test_builders_refuse_what_they_were_seen_to_answer():
    for build in (lambda: j_r_closed_form(3, 1.5), lambda: j_r_determinant(3, 1.5),
                  lambda: vandermonde(True), lambda: wilson_v(True, True),
                  lambda: h_complete(2, True), lambda: vandermonde(2.0),
                  lambda: h_complete(2.0, 1), lambda: wilson_v(2.5, 1), lambda: zspec(2.5)):
        with pytest.raises(UsageError):
            build()
    # zspec(1) is cached, and True is still refused after it
    assert zspec(1).variables == ("z1",)
    with pytest.raises(UsageError):
        zspec(True)
    for n in (0, 1, -2):
        with pytest.raises(UsageError, match="the family needs n >= 2"):
            j_r_determinant(n, 3)


def test_u_r_initial_matrix_by_its_fill_rule():
    # diagonal r; each row's other entries n-2, n-3, ..., 0 from left to right
    for n in range(2, 7):
        for r in (-3, 0, 5):
            for i, row in enumerate(u_r_initial_matrix(n, r)):
                assert row[i] == r
                assert row[:i] + row[i + 1:] == tuple(range(n - 2, -1, -1))


def test_dixon_examples():
    assert dixon_sum(1, 1, 1) == 6
    assert dixon_sum(0, 0, 0) == 1
    assert dixon_sum(2, 1, 1) == 12


def test_dixon_equals_dyson_sample():
    for a, b, c in ((0, 1, 2), (2, 2, 2), (3, 1, 0)):
        assert dixon_sum(a, b, c) == dyson_ct(DysonInstance(3, (a, b, c)))


def test_generalized_dyson_small():
    for a in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1)):
        inst = DysonInstance(3, a, generalized=True)
        assert dyson_ct(inst) == dyson_rhs(inst)


# ----------------------------------------------------------------------
# the pruned product behind dyson_ct

def _random_twist(rng, names):
    while True:
        rows = tuple(tuple(rng.randint(-1, 2) for _ in names) for _ in names)
        try:
            return FieldSpec(names, rows)
        except SingularTwist:
            continue


def _random_polynomial(rng, spec):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exponent = tuple(rng.randint(-2, 2) for _ in range(spec.n))
        terms[exponent] = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
    return Series(spec, terms)


def _chain(spec, factors):
    product = Series.constant(spec, 1)
    for factor in factors:
        product = multiply(product, factor)
    return product


def test_chain_coefficient_equals_multiply_chain():
    rng = random.Random(6)
    for trial in range(60):
        n = rng.randint(2, 3)
        spec = _random_twist(rng, tuple("xyz"[:n]))
        factors = [_random_polynomial(rng, spec) for _ in range(rng.randint(1, 5))]
        product = _chain(spec, factors)
        targets = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(4)]
        targets += rng.sample(sorted(product.terms), min(3, len(product.terms)))
        # beyond the Minkowski sum of the supports: the answer is 0
        reach = sum(max(e[0] for e in factor.terms) for factor in factors)
        targets.append((reach + 1,) + (0,) * (n - 1))
        for target in targets:
            got = chain_extract(factors, spec.variables, target)
            assert got == product.coefficient(target), (trial, target)
            assert type(got) is type(product.coefficient(target))
        assert chain_extract(factors, spec.variables, targets[-1]) == 0


def test_chain_coefficient_edge_cases():
    rng = random.Random(7)
    spec = _random_twist(rng, ("x", "y", "z"))
    f, g = _random_polynomial(rng, spec), _random_polynomial(rng, spec)
    zero = Series.zero(spec)
    for exponent in list(f.terms) + [(5, 5, 5)]:
        assert chain_extract([f], spec.variables, exponent) == f.coefficient(exponent)
        assert chain_extract([f, zero, g], spec.variables, exponent) == 0
        assert chain_extract([zero], spec.variables, exponent) == 0
    # no pair factor: the empty product, 1
    assert dyson_ct(DysonInstance(3, (0, 0, 0))) == 1


@pytest.mark.parametrize("a, generalized", [
    ((1, 2, 3), False), ((2, 2, 2, 2), False), ((1, 0, 2, 1, 1), False),
    ((3,), False), ((0, 0), False), ((4, 4, 0), True), ((2, 1, 3), True),
    ((2,), True), ((0, 0, 0), True), ((5, 3, 4), False), ((1, 5, 2), False),
])
def test_dyson_ct_reads_the_full_product(a, generalized):
    inst = DysonInstance(len(a), a, generalized=generalized)
    assert dyson_ct(inst) == dyson_product(inst).coefficient((0,) * len(a))
    assert dyson_ct(inst) == dyson_rhs(inst)


def test_dyson_factors_multiply_to_the_product():
    inst = DysonInstance(3, (2, 1, 1), generalized=True)
    factors, target = _dyson_factors(inst)
    assert len(factors) == 4 and target == (2, 1, 1)
    spec = zspec(3)
    assert _chain(spec, [Series(spec, f) for f in factors]).coefficient(target) == 12
    # (1 - z_1/z_2)(1 - z_2/z_1)^2 = 3 - x - 3/x + 1/x^2, x = z_1/z_2
    assert factors[0] == {(1, -1, 0): -1, (0, 0, 0): 3,
                          (-1, 1, 0): -3, (-2, 2, 0): 1}


def _binomial(spec, i, j, power):
    """(1 - z_i/z_j)^power, by the binomial theorem."""
    terms = {}
    for k in range(power + 1):
        exponent = [0] * spec.n
        exponent[i], exponent[j] = k, -k
        terms[tuple(exponent)] = (-1) ** k * comb(power, k)
    return Series(spec, terms)


def test_dyson_pair_factor_is_the_product_of_its_two_binomials():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(2, 5)
        a = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        factors, _ = _dyson_factors(DysonInstance(n, a))
        spec = zspec(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i] + a[j]]
        assert len(factors) == len(pairs), (trial, a)
        for factor, (i, j) in zip(factors, pairs):
            expected = multiply(_binomial(spec, i, j, a[j]), _binomial(spec, j, i, a[i]))
            assert factor == expected.terms, (trial, a, i, j)
            assert all(type(v) is int for v in factor.values())


def test_dyson_ct_builds_no_series_of_its_own(monkeypatch):
    built = []
    init, trusted = Series.__init__, Series._trusted.__func__
    monkeypatch.setattr(Series, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    monkeypatch.setattr(Series, "_trusted",
                        classmethod(lambda cls, *args: built.append(1) or trusted(cls, *args)))
    # a generalized instance builds one series, h_complete's
    for a, generalized, series_built in [
            ((1, 1, 1), False, 0), ((3, 2, 2, 1), False, 0), ((3,), False, 0),
            ((0, 0), False, 0), ((2, 1, 1), True, 1), ((0, 0, 0), True, 1)]:
        built.clear()
        inst = DysonInstance(len(a), a, generalized=generalized)
        assert dyson_ct(inst) == dyson_rhs(inst)
        assert len(built) == series_built, (a, generalized)


def test_dyson_ct_from_pair_factors_forms_few_pairs(monkeypatch):
    pairs = []
    original = series._convolve

    def counted(spec, a, b, keep):
        pairs.append(len(a) * len(b))
        return original(spec, a, b, keep)

    monkeypatch.setattr(series, "_convolve", counted)
    assert dyson_ct(DysonInstance(5, (2, 2, 2, 2, 2))) == 113400
    # one factor per ordered pair formed 14 499 pairs
    assert 0 < sum(pairs) <= 3285


def test_pruned_product_forms_few_pairs(monkeypatch):
    pairs = []
    original = series._convolve

    def counted(spec, a, b, keep):
        pairs.append(len(a) * len(b))
        return original(spec, a, b, keep)

    monkeypatch.setattr(series, "_convolve", counted)
    inst = DysonInstance(5, (2, 2, 2, 2, 2))
    assert dyson_ct(inst) == 113400
    pruned = sum(pairs)
    pairs.clear()
    dyson_product(inst)
    full = sum(pairs)
    assert pruned > 0 and full >= 10 * pruned


# ----------------------------------------------------------------------
# the u^(r) family

def test_u_r_sums():
    spec = zspec(3)
    assert u_r_build(3, 1).sum().is_zero()
    assert u_r_build(3, 0).sum().is_zero()
    assert u_r_build(3, 2).sum().equals_on(vandermonde(3))
    z_sum = Series(spec, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert u_r_build(3, 3).sum().equals_on(
        multiply(z_sum, vandermonde(3))
    )
    # r < 0 has no sum rule to check: u_j = (-1)^(j-1) z_j^r Delta_j still
    family = u_r_build(3, -1)
    assert family.r == -1
    assert family.u[0].terms == {(-1, 1, 0): 1, (-1, 0, 1): -1}
    assert family.u[1].terms == {(1, -1, 0): -1, (0, -1, 1): 1}


def test_u_r_initial_exponents_match_matrix():
    for n, r in ((3, 2), (3, 3), (4, 3)):
        family = u_r_build(n, r)
        matrix = u_r_initial_matrix(n, r)
        for j, series in enumerate(family.u):
            leading, _ = series.initial_term()
            assert leading == matrix[j]


def test_u_r_jacobian_number_equals_closed_form():
    for n, r in ((3, 2), (3, 3), (3, 4), (4, 3)):
        family = u_r_build(n, r)
        names = list(family.u[0].spec.variables)
        assert jacobian_number(list(family.u), names) == j_r_closed_form(n, r)


def test_j_r_closed_form_values():
    assert j_r_closed_form(3, 2) == 6            # (n-1) n!/2 at n=3
    assert j_r_closed_form(3, 1) == 0
    assert j_r_closed_form(4, 3) == 36           # not the erratum value 30
    assert j_r_closed_form(4, 3) != 30
    for n in (3, 4, 5):
        assert j_r_closed_form(n, n - 1) == (n - 1) * factorial(n) // 2


def test_j_r_matches_determinant():
    for n in (3, 4, 5):
        for r in range(-6, 7):
            assert j_r_closed_form(n, r) == j_r_determinant(n, r), (n, r)


def test_j_r_zero_set():
    for n in (3, 4, 5):
        zeros = {r for r in range(-12, 12) if j_r_closed_form(n, r) == 0}
        assert zeros == set(range(0, n - 1)) | {-comb(n - 1, 2)}


# ----------------------------------------------------------------------
# Wilson's v_j

def test_wilson_sum_is_one_n2():
    spec = zspec(2)
    total = wilson_v(2, 1, spec) + wilson_v(2, 2, spec)
    assert total.equals_on(1)


def test_wilson_initial_term():
    v1 = wilson_v(3, 1)
    exponent, value = v1.initial_term()
    assert exponent == (-2, 1, 1)   # z1^-(n-1+... ) z2 z3 for j=1, n=3


def test_wilson_lj_identity_n3():
    from mnseries import cube

    spec = zspec(3)
    vs = [wilson_v(3, j, spec) for j in (1, 2, 3)]
    lj = log_jacobian(vs[:2], ["z1", "z2"])
    # opposing geometric tails meet at the box corners, so compare on an
    # interior region well away from the truncation boundary
    assert lj.equals_on(vs[2].scale(2), box=cube(3, 10))


def test_general_substitution_theorem_small_scale():
    # substituting the u^(r) family into a Laurent polynomial preserves the
    # constant term (r avoiding the zeros of j(r)); since a Laurent
    # polynomial's expansion is field independent, the right side is just its
    # own constant coefficient
    from mnseries import cube

    rng = random.Random(29)
    spec = zspec(3)
    box = cube(3, 24)
    for r in (3, 4):
        family = u_r_build(3, r)
        u = [Series(s.spec, s.terms, box=box) for s in family.u]
        for _ in range(4):
            phi_terms = {}
            for _ in range(3):
                e = tuple(rng.randint(-1, 2) for _ in range(3))
                phi_terms.setdefault(e, rng.randint(-3, 3))
            substituted = Series.zero(spec, box=box)
            for e, c in phi_terms.items():
                if c == 0:
                    continue
                term = Series.constant(spec, c, box=box)
                for j in range(3):
                    term = multiply(term, u[j] ** e[j])
                substituted = substituted + term
            want = phi_terms.get((0, 0, 0), 0)
            assert substituted.coefficient((0, 0, 0)) == want, (r, phi_terms)


def test_wilson_dyson_form():
    # CT_z prod v_j^(-a_j) equals the multinomial; v_j^-1 is the exact
    # Laurent polynomial prod_{i != j} (1 - z_j/z_i)
    spec = zspec(3)
    for a in ((1, 1, 1), (2, 1, 0), (1, 0, 2)):
        product = Series.constant(spec, 1)
        for j in (1, 2, 3):
            inv_vj = Series.constant(spec, 1)
            for i in (1, 2, 3):
                if i == j:
                    continue
                ratio = tuple(
                    (1 if c == j - 1 else 0) - (1 if c == i - 1 else 0)
                    for c in range(3)
                )
                inv_vj = multiply(inv_vj, Series(spec, {(0, 0, 0): 1, ratio: -1}))
            product = multiply(product, inv_vj ** a[j - 1])
        want = factorial(sum(a)) // (factorial(a[0]) * factorial(a[1]) * factorial(a[2]))
        assert product.coefficient((0, 0, 0)) == want
