import json
import random
from fractions import Fraction

import pytest

from mnseries import (
    BadInitialTerm,
    Box,
    FieldSpec,
    NonpositiveOrder,
    OutOfPrecision,
    Series,
    SingularTwist,
    SpecMismatch,
    ZeroDivisor,
    ZeroSeries,
    cube,
    exp_of,
    identity_spec,
    log_of,
    multiply,
)
from mnseries.series import _geometric_sum, _vec_sub

X = identity_spec(("x",))
XY = FieldSpec(("x", "y"), ((2, 1), (1, 2)))
XYT = identity_spec(("x", "y", "t"))


def geometric(spec, exponent, box=None):
    return Series(spec, {tuple(exponent): 1}, box=box).compose_stream(lambda n: 1)


def _random_poly(rng, spec, nterms=3, span=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        k = tuple(rng.randint(-span, span) for _ in range(spec.n))
        terms[k] = rng.randint(-4, 4)
    return Series(spec, terms)


# ----------------------------------------------------------------------
# add

def test_add_cancels():
    one_minus_x = Series(X, {(0,): 1, (1,): -1})
    x = Series(X, {(1,): 1})
    assert (one_minus_x + x).terms == {(0,): 1}


def test_add_inverse_is_zero():
    g = geometric(X, (1,))
    assert (g + (-g)).is_zero()


def test_add_commutative():
    rng = random.Random(1)
    for _ in range(50):
        a = _random_poly(rng, XY)
        b = _random_poly(rng, XY)
        assert (a + b).equals_on(b + a)


def test_add_spec_mismatch():
    with pytest.raises(SpecMismatch):
        Series(X, {(1,): 1}) + Series(identity_spec(("y",)), {(1,): 1})


# ----------------------------------------------------------------------
# mul

def test_mul_telescopes_within_box():
    one_minus_x = Series(X, {(0,): 1, (1,): -1})
    partial = Series(X, {(k,): 1 for k in range(17)}, exact=False)
    assert multiply(one_minus_x, partial).equals_on(1)


def test_mul_twisted_inverse_of_x_minus_y():
    s = Series(XY, {(1, 0): 1, (0, 1): -1})
    # 1/(x-y) = (1/x) sum y^k/x^k in the twisted field
    inv = s.invert()
    assert multiply(s, inv).equals_on(1)
    for k in range(6):
        assert inv.coefficient((-1 - k, k)) == 1


def test_mul_associative():
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (_random_poly(rng, XY, 2, 2) for _ in range(3))
        assert multiply(multiply(a, b), c).equals_on(multiply(a, multiply(b, c)))


def test_mul_distributes():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (_random_poly(rng, XYT, 2, 2) for _ in range(3))
        assert multiply(a, b + c).equals_on(multiply(a, b) + multiply(a, c))


def test_order_of_product_adds():
    rng = random.Random(4)
    for _ in range(60):
        a, b = _random_poly(rng, XY, 2, 2), _random_poly(rng, XY, 2, 2)
        if a.is_zero() or b.is_zero():
            continue
        oa, ob = a.order(), b.order()
        got = multiply(a, b).order()
        assert got == tuple(x + y for x, y in zip(oa, ob))


# ----------------------------------------------------------------------
# invert

def test_invert_geometric():
    inv = Series(X, {(0,): 1, (1,): -1}).invert()
    for k in range(17):
        assert inv.coefficient((k,)) == 1


def test_invert_x_minus_y_twisted():
    inv = Series(XY, {(1, 0): 1, (0, 1): -1}).invert()
    expected = {(-1 - k, k): 1 for k in range(20)}
    for exponent, value in inv.terms.items():
        assert expected.get(exponent) == value


def test_invert_x2_minus_y_twisted():
    inv = Series(XY, {(2, 0): 1, (0, 1): -1}).invert()
    # -(1/y) sum x^{2k}/y^k
    for exponent, value in inv.terms.items():
        k = exponent[0] // 2
        assert exponent == (2 * k, -1 - k)
        assert value == -1


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisor):
        Series.zero(X).invert()


def test_invert_inexact_empty_raises_out_of_precision():
    empty = Series(X, {}, exact=False)
    with pytest.raises(OutOfPrecision):
        empty.invert()


def test_invert_round_trips():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_poly(rng, XY, 3, 2)
        if a.is_zero():
            continue
        assert multiply(a, a.invert()).equals_on(1)


def _power_sum_inverse(s):
    """c⁻¹·x^{-m}·(sum of the box-pruned powers of tau), for s = c·x^m·(1 - tau)."""
    spec = s.spec
    m, c = s.initial_term()
    inv_c = 1 / Fraction(c)
    tau = {_vec_sub(e, m): -v * inv_c for e, v in s.terms.items() if e != m}
    total = _geometric_sum(spec, tau, s.box, lambda n: 1)
    return Series(
        spec,
        {_vec_sub(e, m): v * inv_c for e, v in total.items()},
        box=s.box.shift(tuple(-p for p in spec.phi(m))),
        exact=False,
    )


def _random_twist(rng, names):
    while True:
        rows = tuple(tuple(rng.randint(-1, 2) for _ in names) for _ in names)
        try:
            return FieldSpec(names, rows)
        except SingularTwist:
            continue


def test_invert_equals_box_pruned_power_sum():
    rng = random.Random(11)
    origin_outside = 0
    for _ in range(100):
        spec = _random_twist(rng, ("x", "y", "z")[: rng.randint(2, 3)])
        offset = [rng.randint(-3, 3) for _ in range(spec.n)]
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = tuple(rng.randint(-1, 1) + o for o in offset)
            terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
        # a box around the support, so the origin is often left out of it
        phis = [spec.phi(e) for e in terms]
        box = Box(tuple(
            (min(p[i] for p in phis) - rng.randint(0, 4),
             max(p[i] for p in phis) + rng.randint(0, 10))
            for i in range(spec.n)
        ))
        s = Series(spec, terms, box=box, exact=False)
        if len(s.terms) < 2:
            continue
        origin_outside += not box.contains((0,) * spec.n)
        assert s.invert() == _power_sum_inverse(s)
    assert origin_outside > 0


def test_invert_starts_from_the_origin_outside_the_box():
    # The recurrence starts at tau's origin even though the box [3, 10] does
    # not contain it, exactly as the power sum does.  Making the box sound
    # (ROADMAP item 2) may change this value on purpose.
    inv = Series(X, {(5,): 1, (8,): 1}, box=Box(((3, 10),)), exact=False).invert()
    assert inv.terms == {(-2,): -1, (1,): 1, (4,): -1}
    assert inv.box == Box(((-2, 5),))


def _assert_holds_the_constructor_invariant(r):
    # what Series(...) would keep: nothing outside the box, no zero, no
    # integral Fraction
    assert Series(r.spec, r.terms, box=r.box, exact=r.exact) == r
    assert not any(isinstance(v, Fraction) and v.denominator == 1
                   for v in r.terms.values())


def test_engine_results_hold_the_constructor_invariant():
    # multiply and invert build their results without revalidating them
    rng = random.Random(2718)
    seen = {"exact*exact": 0, "exact*truncated": 0, "truncated*truncated": 0,
            "invert": 0, "invert, origin outside the box": 0}

    def draw(spec, exact):
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(spec.n)):
                Fraction(rng.choice([-3, -2, -1, 1, 2, 4]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }
        bounds = []
        for _ in range(spec.n):
            lo = rng.randint(-6, 3)
            bounds.append((lo, lo + rng.randint(0, 10)))
        return Series(spec, terms, box=Box(tuple(bounds)), exact=exact)

    for _ in range(150):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        spec = identity_spec(names) if rng.random() < 0.5 else _random_twist(rng, names)
        for kind, a, b in (
            ("exact*exact", draw(spec, True), draw(spec, True)),
            ("exact*truncated", draw(spec, True), draw(spec, False)),
            ("truncated*truncated", draw(spec, False), draw(spec, False)),
        ):
            try:
                product = multiply(a, b)
            except OutOfPrecision:
                continue
            _assert_holds_the_constructor_invariant(product)
            seen[kind] += bool(product.terms)
        s = draw(spec, rng.random() < 0.3)
        if not s.terms:
            continue
        _assert_holds_the_constructor_invariant(s.invert())
        seen["invert"] += 1
        seen["invert, origin outside the box"] += not s.box.contains((0,) * spec.n)
    assert min(seen.values()) >= 10, seen


def test_wrong_length_exponent_is_refused_on_every_series():
    for s in (Series(XY, {(1, 0): 1}), Series(XY, {(1, 0): 1}, exact=False)):
        for bad in ((0,), (0, 0, 0)):
            with pytest.raises(SpecMismatch):
                s.coefficient(bad)
            with pytest.raises(SpecMismatch):
                s.guarantees(bad)


# ----------------------------------------------------------------------
# composition streams, exp, log

def test_compose_exp_stream():
    a = Series(XYT, {(-1, -1, 1): 1})
    e = exp_of(a)
    from math import factorial

    for k in range(8):
        assert e.coefficient((-k, -k, k)) == Fraction(1, factorial(k))


def test_compose_identity_stream():
    a = Series(XYT, {(1, 0, 0): 2, (1, 1, 0): -3})
    got = a.compose_stream(lambda n: 1 if n == 1 else 0)
    assert got.equals_on(a)


def test_log_exp_round_trip():
    x = Series(X, {(1,): 1})
    assert log_of(exp_of(x)).equals_on(x)
    one_plus_x = Series(X, {(0,): 1, (1,): 1})
    assert exp_of(log_of(one_plus_x)).equals_on(one_plus_x)


def test_log_of_one_minus_x():
    s = Series(X, {(0,): 1, (1,): -1})
    got = log_of(s)
    for k in range(1, 17):
        assert got.coefficient((k,)) == Fraction(-1, k)


def test_exp_t_cubed_coefficient():
    e = exp_of(Series(XYT, {(-1, -1, 1): 1}))
    assert e.coefficient((-3, -3, 3)) == Fraction(1, 6)


def test_log_requires_initial_one():
    with pytest.raises(BadInitialTerm):
        log_of(Series(X, {(0,): 2, (1,): 1}))


def test_compose_requires_positive_order():
    with pytest.raises(NonpositiveOrder):
        exp_of(Series(X, {(0,): 1}))
    with pytest.raises(NonpositiveOrder):
        exp_of(Series(X, {(-1,): 1}))


def test_strict_convergence_matches_manual_sum():
    # every output coefficient is the finite sum over contributing powers;
    # cross-check against an independent manual summation with extra slack
    a = Series(X, {(1,): 1, (2,): 1}, box=cube(1, 8))
    composed = a.compose_stream(lambda n: Fraction(1, n + 1))
    manual = Series.zero(X, box=cube(1, 8))
    power = Series.constant(X, 1, box=cube(1, 8))
    for n in range(0, 14):  # cutoff 8 would do; add slack
        manual = manual + power.scale(Fraction(1, n + 1))
        power = multiply(power, a)
    assert composed.equals_on(manual, box=cube(1, 8))


# ----------------------------------------------------------------------
# derivative

def test_derivative_worked_example():
    F = Series(identity_spec(("x", "t")), {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    got = F.derivative("x")
    assert got.terms == {(1, 0): 2, (0, 1): 1, (2, 1): 3}


def test_derivative_of_constant_in_var():
    F = Series(XYT, {(0, 2, 1): 5})
    assert F.derivative("x").is_zero()


def test_derivative_product_rule():
    rng = random.Random(6)
    for _ in range(40):
        a, b = _random_poly(rng, XYT, 2, 2), _random_poly(rng, XYT, 2, 2)
        lhs = multiply(a, b).derivative("y")
        rhs = multiply(a.derivative("y"), b) + multiply(a, b.derivative("y"))
        assert lhs.equals_on(rhs)


# ----------------------------------------------------------------------
# ct / res / x-initial

def test_res_of_inverse_monomial():
    assert Series(X, {(-1,): 1}).res_scalar() == 1


def test_res_of_derivative_vanishes():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_poly(rng, X, 4, 5)
        assert a.derivative("x").res_scalar() == 0


def test_ct_projects_spec():
    s = Series(XYT, {(0, 0, 2): 7, (1, 0, 2): 1, (0, -1, 3): 4})
    ct = s.ct(["x", "y"])
    assert ct.spec.variables == ("t",)
    assert ct.terms == {(2,): 7}
    res = s.res(["y"])
    assert res.spec.variables == ("x", "t")
    assert res.terms == {(0, 3): 4}


def test_x_initial_term_examples():
    F = Series(identity_spec(("x", "t")), {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    leading, xpart, coeff = F.x_initial_term(["x"])
    assert xpart == (2,)
    assert leading == (2, 0)
    assert coeff.terms == {(0,): 1}

    single = Series(XYT, {(3, -1, 2): 5})
    leading, xpart, coeff = single.x_initial_term(["x", "y"])
    assert xpart == (3, -1)
    assert coeff.terms == {(2,): 5}

    with pytest.raises(ZeroSeries):
        Series.zero(XYT).x_initial_term(["x"])


# ----------------------------------------------------------------------
# truncation contract

def test_coefficient_outside_box_raises():
    g = geometric(X, (1,), box=cube(1, 8))
    assert g.coefficient((8,)) == 1
    with pytest.raises(OutOfPrecision):
        g.coefficient((9,))


def test_exact_series_ignore_box_for_queries():
    s = Series(X, {(40,): 1})
    assert s.coefficient((40,)) == 1
    assert s.coefficient((41,)) == 0


def test_zero_coefficients_pruned():
    s = Series(X, {(0,): 0, (1,): 2})
    assert s.terms == {(1,): 2}


def test_box_enlargement_consistency():
    # recompute a pipeline with a strictly larger box; results agree on the
    # smaller box
    for radius in (8,):
        small = cube(2, radius)
        big = cube(2, radius + 8)
        results = []
        for box in (small, big):
            a = Series(XY, {(1, 0): 1, (0, 1): -1}, box=box)
            pipeline = multiply(a.invert(), Series(XY, {(0, 0): 1, (1, 1): 2}, box=box))
            results.append(pipeline)
        assert results[0].equals_on(results[1], box=results[0].box)


def test_with_box_shrinks():
    g = geometric(X, (1,), box=cube(1, 12))
    smaller = g.with_box(cube(1, 4))
    assert set(smaller.terms) == {(k,) for k in range(5)}


def test_json_round_trip_and_determinism():
    s = Series(XY, {(1, 0): Fraction(3, 2), (0, 1): -1, (2, 2): 7}, exact=False)
    blob = json.dumps(s.to_json())
    again = Series.from_json(json.loads(blob))
    assert again == s
    assert json.dumps(again.to_json()) == blob
    exps = [tuple(t["exp"]) for t in s.to_json()["terms"]]
    assert exps == [e for e, _ in s.sorted_terms()]
