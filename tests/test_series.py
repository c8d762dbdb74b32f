import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from mnseries import (
    BadInitialTerm,
    Box,
    FieldSpec,
    MNError,
    NonpositiveOrder,
    OutOfPrecision,
    Series,
    SingularTwist,
    SpecMismatch,
    UnknownVariable,
    UsageError,
    ZeroDivisor,
    ZeroSeries,
    cube,
    exp_of,
    identity_spec,
    jacobian,
    jacobian_number,
    log_jacobian,
    log_of,
    multiply,
    parse,
    residue_verify,
    series,
)
from mnseries.series import _coeff, _convolve, _vec_sub, multiply_extract

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


def test_power_starts_from_its_base(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    for s in (Series(XY, {(1, 0): 1, (0, 1): -2, (1, 1): Fraction(1, 3)},
                     box=cube(2, 8), exact=False),
              Series(XY, {(0, 0): 1, (1, -1): Fraction(-1, 2)}, box=cube(2, 5))):
        calls.clear()
        power = s ** 6
        assert len(calls) == 3          # s^2, s^4 and s^2·s^4; no product by 1
        chain = s
        for _ in range(5):
            chain = multiply(chain, s)
        assert power == chain
        assert s ** 1 == s and s ** 0 == Series.constant(XY, 1, box=s.box)


def _outcome(compute):
    """The value, or the class of the MNError raised."""
    try:
        return compute()
    except MNError as exc:
        return type(exc)


def test_negative_power_equals_the_inverse_chain():
    # s ** -n sums the binomial weights C(j+n-1, n-1) of (1 - tau)^-n over
    # one pruned power sum.  Where every generator e - m is nonnegative in phi
    # and the box holds the origin, that pruning is sound, and the result is
    # the chain of n inverses, claimed box and exactness included.
    rng = random.Random(1313)
    seen = Counter()
    cases = 0
    while cases < 600:
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        twisted = rng.random() < 0.5
        spec = _random_twist(rng, names) if twisted else identity_spec(names)
        low = [rng.randint(-2, 2) for _ in names]
        terms = {tuple(a + rng.randint(0, 2) for a in low):
                 Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 5))}
        # a box about the support that sometimes cuts it or misses the origin
        phis = [spec.phi(e) for e in terms]
        bounds = []
        for i in range(spec.n):
            lo = min(p[i] for p in phis) - rng.randint(0, 3)
            bounds.append((lo, max(lo, max(p[i] for p in phis) + rng.randint(-2, 6))))
        box = Box(tuple(bounds))
        exact = rng.random() < 0.3
        s = Series(spec, terms, box=box, exact=exact)
        if not box.contains((0,) * spec.n):
            continue
        if s.terms:
            m, _ = s.initial_term()
            if any(x < 0 for e in s.terms for x in spec.phi(_vec_sub(e, m))):
                continue
        n = rng.randint(2, 5)
        cases += 1
        got = _outcome(lambda: s ** -n)
        assert got == _outcome(lambda: s.invert() ** n), (s, n)
        seen["twisted" if twisted else "identity"] += 1
        seen["exact" if exact else "truncated"] += 1
        seen[f"{spec.n} variables"] += 1
        seen[f"n={n}"] += 1
        seen[got.__name__ if isinstance(got, type)
             else "monomial" if len(s.terms) == 1 else "2+ terms"] += 1
    assert min(seen.values()) >= 10 and seen["2+ terms"] >= 300, seen


def test_negative_power_makes_no_product(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "multiply", lambda a, b: calls.append(1) or multiply(a, b))
    s = Series(XY, {(0, 0): 2, (1, 0): -1, (1, 1): Fraction(1, 3)},
               box=cube(2, 6), exact=False)
    power = s ** -4
    assert calls == []
    assert power.coefficient((1, 0)) == Fraction(4, 2 ** 5)   # C(4,3)·(1/2)/2^4
    assert power.box == s.box


def test_order_of_product_adds():
    rng = random.Random(4)
    for _ in range(60):
        a, b = _random_poly(rng, XY, 2, 2), _random_poly(rng, XY, 2, 2)
        if a.is_zero() or b.is_zero():
            continue
        oa, ob = a.initial_term()[0], b.initial_term()[0]
        got = multiply(a, b).initial_term()[0]
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


def _geometric_sum(spec, tau, box, coefficients):
    """Reference power sum: coefficients(n)·tau^n over n, each power formed
    by a pruned product of the previous one with tau, until one is empty.
    Independent of the engine's recurrence; tau's exponents must be
    revlex-positive through the twist, so the pruned powers die out."""
    zero = (0,) * spec.n
    total = {}
    c0 = _coeff(coefficients(0))
    if c0 != 0:
        total[zero] = c0
    if not tau:
        return total
    power = {zero: 1}
    n = 0
    while power:
        n += 1
        power = _convolve(spec, power, tau, box)
        if not power:
            break
        cn = _coeff(coefficients(n))
        if cn != 0:
            for exponent, value in power.items():
                total[exponent] = total.get(exponent, 0) + value * cn
    return {k: v for k, v in total.items() if v != 0}


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
    # boxes that miss the origin from above (some lo > 0) and from below
    # (some hi < 0) in a coordinate
    missed = {"above": 0, "below": 0}
    for case in range(140):
        spec = _random_twist(rng, ("x", "y", "z")[: rng.randint(2, 3)])
        offset = [rng.randint(-3, 3) for _ in range(spec.n)]
        if case >= 100:
            # supports far from the origin, on either side
            offset = [o + rng.choice((-6, 6)) for o in offset]
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
        missed["above"] += any(lo > 0 for lo, _ in box.bounds)
        missed["below"] += any(hi < 0 for _, hi in box.bounds)
        assert s.invert() == _power_sum_inverse(s)
    assert origin_outside > 0
    assert min(missed.values()) >= 30, missed


def test_invert_computes_phi_once_per_input_term(monkeypatch):
    # no phi call per output term or per candidate step: the recurrence
    # carries packed keys, and invert computes each input term's phi once
    rng = random.Random(31)
    calls = []
    phi = FieldSpec.phi

    def counted(spec, exponent):
        calls.append(exponent)
        return phi(spec, exponent)

    monkeypatch.setattr(FieldSpec, "phi", counted)
    long_runs = 0
    for _ in range(20):
        spec = _random_twist(rng, ("x", "y", "z"))
        terms = {tuple(rng.randint(-1, 1) for _ in range(3)): rng.choice([-2, -1, 1, 3])
                 for _ in range(5)}
        s = Series(spec, terms, box=cube(3, 6), exact=False)
        if len(s.terms) < 3:
            continue
        calls.clear()
        long_runs += len(s.invert().terms) >= 3 * len(s.terms)
        assert len(calls) <= len(s.terms)   # len(tau) + 1
    assert long_runs >= 5


def test_invert_refuses_a_step_that_wraps_in_the_packed_key():
    # Term order compares y first, so x + y + x^2 = x·(1 + x^-1·y + x).  The
    # step x^-1·y leaves x in [0, 3] from the origin, but its packed key,
    # (y - 0)·4 + (x - 0) = 3, lies in the packed range of the box: only a
    # per-coordinate check tells that it wraps into the y field.
    s = Series(identity_spec(("x", "y")), {(1, 0): 1, (0, 1): 1, (2, 0): 1},
               box=Box(((0, 3), (0, 5))), exact=False)
    inv = s.invert()
    assert inv == _power_sum_inverse(s)
    assert (-2, 1) not in inv.terms and inv.coefficient((-1, 1)) == 1


def test_invert_starts_from_the_origin_outside_the_box():
    # The recurrence starts at tau's origin even though the box [3, 10] does
    # not contain it, exactly as the power sum does.  Making the box sound
    # (ROADMAP item 2) may change this value on purpose.
    inv = Series(X, {(5,): 1, (8,): 1}, box=Box(((3, 10),)), exact=False).invert()
    assert inv.terms == {(-2,): -1, (1,): 1, (4,): -1}
    assert inv.box == Box(((-2, 5),))


@pytest.mark.xfail(strict=True, reason="unsound precision box (ROADMAP item 1): "
                   "the product shifts by the initial term, not by the least "
                   "point of the support")
def test_product_claims_a_point_a_pair_from_outside_reaches():
    # 1/(1-y/x) · 1/(1-x) at x^2*y^3 is 1, from x^-3*y^3 · x^5; while the
    # defect stands the product claims [-3,3]^2 and stores 0 there
    spec = identity_spec(("x", "y"))
    a = Series(spec, {(0, 0): 1, (-1, 1): -1}, box=cube(2, 3)).invert()
    b = Series(spec, {(0, 0): 1, (1, 0): -1}, box=cube(2, 3)).invert()
    assert _outcome(lambda: multiply(a, b).coefficient((2, 3))) in (1, OutOfPrecision)


# ----------------------------------------------------------------------
# invert and derivative, once per object

def _memo_cases():
    truncated = Series(XY, {(0, 0): 2, (1, 0): -1, (1, 1): Fraction(1, 3)},
                       box=cube(2, 6), exact=False)
    return {
        "exact": Series(XY, {(0, 0): 1, (1, -1): Fraction(-1, 2), (2, 1): 3}),
        "truncated": truncated,
        "monomial": Series(XY, {(2, -1): Fraction(3, 4)}, box=cube(2, 5), exact=False),
        "engine result": multiply(truncated, Series(XY, {(0, 0): 1, (0, 1): 2})),
    }


def test_invert_and_derivative_are_computed_once_per_object():
    for label, s in _memo_cases().items():
        fresh = Series(s.spec, s.terms, box=s.box, exact=s.exact)
        inv = s.invert()
        assert s.invert() is inv, label
        assert inv == fresh.invert(), label
        for name in XY.variables:
            d = s.derivative(name)
            assert s.derivative(name) is d, (label, name)
            assert d == fresh.derivative(name), (label, name)
        assert s.derivative("x") is not s.derivative("y")
        # the inverse's own inverse is computed, not taken from s
        fresh_inv = Series(inv.spec, inv.terms, box=inv.box, exact=inv.exact)
        assert inv.invert() is not s and inv.invert() == fresh_inv.invert(), label


@pytest.fixture
def recurrence_runs(monkeypatch):
    """A list that gains one entry per run of ``_invert_recurrence``."""
    runs = []
    recurrence = series._invert_recurrence
    monkeypatch.setattr(series, "_invert_recurrence",
                        lambda *args: runs.append(1) or recurrence(*args))
    return runs


def test_invert_runs_the_recurrence_once_per_object(recurrence_runs):
    runs = recurrence_runs
    s = _memo_cases()["truncated"]
    s.invert()
    s.invert()
    assert len(runs) == 1
    twin = Series(s.spec, s.terms, box=s.box, exact=s.exact)
    other = Series(s.spec, s.terms, box=s.box, exact=s.exact)
    assert twin == other and twin.invert() == other.invert()
    assert len(runs) == 3             # equal values share nothing


def test_a_refusal_is_not_stored():
    zero, empty = Series.zero(X), Series(X, {}, exact=False)
    for _ in range(2):
        with pytest.raises(ZeroDivisor):
            zero.invert()
        with pytest.raises(OutOfPrecision):
            empty.invert()
        with pytest.raises(UnknownVariable):
            zero.derivative("y")
    s = _memo_cases()["exact"]
    with pytest.raises(UnknownVariable):
        s.derivative("z")
    assert s.derivative("x") is s.derivative("x")


def test_lemma_checks_reuse_each_inverse(recurrence_runs):
    # One criterion-9 instance through the lemma checks: Res J, Res J·F^e,
    # Res J/ΠF, CT LJ and both forms of the residue identity.  The recurrence
    # runs once for F_1^-2 (the binomial power sum), once per F_i (Res J/ΠF,
    # reused by the substitution x_i^-1 of the Res form) and once per log
    # Jacobian's F_1·F_2: 5 runs, where recomputing every inverse takes 7.
    runs = recurrence_runs
    spec = identity_spec(("x1", "x2"))
    names = list(spec.variables)
    low, zero = (-1, -1), (0, 0)
    for _ in range(2):               # a new instance reuses nothing of the last
        runs.clear()
        F = [Series(spec, {(-1, 2): 1, (1, 3): 3}, box=cube(2, 12)),
             Series(spec, {(-2, 0): 1, (-2, 1): -3, (-1, 1): 1}, box=cube(2, 12))]
        jnum = jacobian_number(F, names)
        assert jnum == 4
        assert jacobian(F, names).coefficient(low) == 0
        powered = multiply(multiply(jacobian(F, names), F[0] ** -2), F[1])
        assert powered.coefficient(low) == 0
        quotient = jacobian(F, names)
        for s in F:
            quotient = multiply(quotient, s.invert())
        assert quotient.coefficient(low) == jnum
        assert log_jacobian(F, names).coefficient(zero) == jnum
        v_res = residue_verify(parse("x1^-1*x2^-1"), F, names, form="res")
        v_ct = residue_verify(parse("1"), F, names, form="ct")
        assert v_res.equal and v_ct.equal and v_res.lhs == v_ct.lhs
        assert len(runs) == 5


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


def _slice_outcome(read):
    """What ``read()`` gives: the series, or the value and its type, or the
    class of the MNError raised."""
    try:
        value = read()
    except MNError as exc:
        return type(exc)
    if isinstance(value, Series):
        return value, {k: type(v) for k, v in value.terms.items()}
    return value, type(value)


def test_multiply_extract_equals_extract_of_the_formed_product():
    rng = random.Random(1729)
    seen = Counter()

    def draw(spec, exact):
        terms = {} if rng.random() < 0.1 else {
            tuple(rng.randint(-2, 2) for _ in range(spec.n)):
                Fraction(rng.choice([-3, -2, -1, 1, 2, 4]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 6))
        }
        bounds = []
        for _ in range(spec.n):
            lo = rng.randint(-7, 0)
            bounds.append((lo, lo + rng.randint(3, 12)))
        return Series(spec, terms, box=Box(tuple(bounds)), exact=exact)

    for _ in range(200):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        spec = identity_spec(names) if rng.random() < 0.4 else _random_twist(rng, names)
        over = rng.sample(names, rng.randint(1, len(names)))
        roll = rng.random()
        if roll < 0.05:
            over.append("q")
        elif roll < 0.1:
            over.append(over[0])
        roll = rng.random()
        if roll < 0.3:
            want = 0
        elif roll < 0.55:
            want = -1
        elif roll < 0.9:
            want = tuple(rng.randint(-3, 3) for _ in over)
        else:
            want = tuple(rng.choice([-20, 20]) for _ in over)   # outside every box
        for a_exact, b_exact in ((True, True), (True, False), (False, True), (False, False)):
            a, b = draw(spec, a_exact), draw(spec, b_exact)
            expected = _slice_outcome(lambda: multiply(a, b).extract(over, want))
            assert _slice_outcome(lambda: multiply_extract(a, b, over, want)) == expected, (
                a.to_json(), b.to_json(), over, want)
            full = len(set(over)) == spec.n and "q" not in over
            product = _slice_outcome(lambda: multiply(a, b))
            if (spec.is_identity_twist() and "q" not in over and len(set(over)) == len(over)
                    and not isinstance(product, type) and not product[0].exact):
                wants = (want,) * len(over) if isinstance(want, int) else want
                bounds = [product[0].box.bounds[spec.index(v)] for v in over]
                if any(not lo <= w <= hi for w, (lo, hi) in zip(wants, bounds)):
                    # a named exponent outside the product's box: both refuse
                    assert expected is OutOfPrecision, (a.to_json(), b.to_json(), over, want)
                    seen["full" if full else "partial", "outside the box"] += 1
            if isinstance(expected, type):
                seen[expected.__name__] += 1
            elif (a_exact and not a.terms) or (b_exact and not b.terms):
                seen["exact zero operand"] += 1
            else:
                kind = ("exact" if a_exact and b_exact else "truncated",
                        "full" if full else "partial")
                seen[kind] += bool(expected[0].terms if kind[1] == "partial" else expected[0])
    assert min(seen[key] for key in (
        "OutOfPrecision", "UnknownVariable", "UsageError", "exact zero operand",
        ("exact", "full"), ("exact", "partial"),
        ("truncated", "full"), ("truncated", "partial"),
        ("full", "outside the box"), ("partial", "outside the box"))) >= 10, seen


def test_slice_outside_the_box_refused():
    # x lives in [1,5]: the x^0 part of 1/(1-x-y) is not known there
    box = Box(((1, 5), (-3, 3)))
    inverse = Series(identity_spec(("x", "y")), {(0, 0): 1, (1, 0): -1, (0, 1): -1},
                     box=box).invert()
    for read in (lambda: inverse.extract(["x"], 0),
                 lambda: inverse.extract(["x"], (6,)),
                 lambda: multiply_extract(inverse, Series.constant(inverse.spec, 1), ["x"], 0)):
        with pytest.raises(OutOfPrecision):
            read()
    # an exact series has no box to leave
    assert Series(XYT, {(3, 0, 0): 2}).extract(["x"], 0).terms == {}


def test_empty_name_list_refused():
    s = Series(XYT, {(1, 1, 1): 1})
    for read in (lambda: s.extract([], 0), lambda: multiply_extract(s, s, [], 0)):
        with pytest.raises(UsageError):
            read()


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


def _reference_compose(s, coefficients):
    """``s.compose_stream(coefficients)`` by the reference power sum; the
    refusal is decided from every stored term, not from the initial one."""
    spec = s.spec
    if any(spec.key(e) <= (0,) * spec.n for e in s.terms):
        raise NonpositiveOrder("a term of nonpositive order")
    total = _geometric_sum(spec, s.terms, s.box, coefficients)
    return Series(spec, total, box=s.box, exact=False)


def _reference_log(s):
    spec = s.spec
    zero = (0,) * spec.n
    if s.terms.get(zero) != 1 or any(spec.key(e) < zero for e in s.terms):
        raise BadInitialTerm("initial term is not 1")
    tail = Series(spec, {e: v for e, v in s.terms.items() if e != zero},
                  box=s.box, exact=s.exact)
    return _reference_compose(tail, lambda n: Fraction((-1) ** (n + 1), n) if n else 0)


_STREAMS = (
    lambda n: 1,
    lambda n: Fraction(1, n + 1),
    lambda n: n % 3 - 1,                                    # zero at n = 1, 4, ...
    lambda n: 0 if n % 2 else Fraction((-1) ** (n // 2), n + 2),
)


def _exp_stream(n):
    return Fraction(1, factorial(n))


def test_compose_exp_log_equal_the_reference_power_sum():
    rng = random.Random(23)
    seen = Counter()
    for case in range(600):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        spec = identity_spec(names) if case % 2 else _random_twist(rng, names)
        n = spec.n
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            while rng.random() < 0.9 and not spec.is_positive(e):
                e = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
        kind = ("compose", "exp", "log")[case % 3]
        if kind == "log" and rng.random() < 0.9:
            terms[(0,) * n] = 1
        radius = {1: 16, 2: 6, 3: 3}[n]
        box = Box(tuple((lo, lo + rng.randint(radius // 2, 2 * radius))
                        for lo in (rng.randint(-radius, 1) for _ in range(n))))
        s = Series(spec, terms, box=box, exact=rng.random() < 0.4)
        if kind == "compose":
            stream = _STREAMS[case // 3 % len(_STREAMS)]
            got = partial(s.compose_stream, stream)
            want = partial(_reference_compose, s, stream)
        elif kind == "exp":
            got, want = partial(exp_of, s), partial(_reference_compose, s, _exp_stream)
        else:
            got, want = partial(log_of, s), partial(_reference_log, s)
        try:
            expected = want()
        except MNError as exc:
            with pytest.raises(type(exc)):
                got()
            seen[type(exc).__name__] += 1
            continue
        assert got() == expected, (kind, s)
        seen["twisted"] += not spec.is_identity_twist()
        seen["truncated"] += not s.exact
        seen["origin outside"] += not box.contains((0,) * n)
        seen["long"] += len(expected.terms) >= 6
    wanted = ("NonpositiveOrder", "BadInitialTerm", "twisted", "truncated",
              "origin outside", "long")
    assert min(seen[k] for k in wanted) >= 30, seen


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
    assert Series(X, {(-1,): 1}).coefficient((-1,)) == 1


def test_res_of_derivative_vanishes():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_poly(rng, X, 4, 5)
        assert a.derivative("x").coefficient((-1,)) == 0


def test_ct_projects_spec():
    s = Series(XYT, {(0, 0, 2): 7, (1, 0, 2): 1, (0, -1, 3): 4})
    ct = s.extract(["x", "y"], 0)
    assert ct.spec.variables == ("t",)
    assert ct.terms == {(2,): 7}
    res = s.extract(["y"], -1)
    assert res.spec.variables == ("x", "t")
    assert res.terms == {(0, 3): 4}


def test_x_initial_term_examples():
    F = Series(identity_spec(("x", "t")), {(2, 0): 1, (1, 1): 1, (3, 1): 1})
    leading, _ = F.initial_term()
    assert leading == (2, 0)
    assert F.extract(["x"], leading[:1]).terms == {(0,): 1}

    single = Series(XYT, {(3, -1, 2): 5})
    leading, _ = single.initial_term()
    assert leading[:2] == (3, -1)
    assert single.extract(["x", "y"], leading[:2]).terms == {(2,): 5}

    with pytest.raises(ZeroSeries):
        Series.zero(XYT).initial_term()


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


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("make", [
    lambda v: Series(X, {(1,): v}),
    lambda v: Series.constant(X, v),
    lambda v: Series(X, {(1,): 1}).scale(v),
    lambda v: Series(X, {(1,): 1}) / v,
], ids=["Series", "constant", "scale", "divide"])
def test_bool_coefficients_refused(make, value):
    # a bool is an int to isinstance, but not an exact rational coefficient
    with pytest.raises(UsageError, match="is not an exact rational"):
        make(value)


def test_operators_by_scalars_and_series_and_their_text():
    x = Series.variable(X, "x", box=cube(1, 4))
    one_minus_x = 1 - x                                   # __rsub__
    assert one_minus_x == Series(X, {(0,): 1, (1,): -1}, box=cube(1, 4))
    geo = 1 / one_minus_x                                 # __rtruediv__
    assert geo == one_minus_x.invert()
    assert (3 / one_minus_x).terms == {(k,): 3 for k in range(5)}
    assert x / one_minus_x == multiply(x, geo)            # by a series
    assert (x / 2).terms == {(1,): Fraction(1, 2)}        # by a scalar
    with pytest.raises(UsageError):
        x / "1/2"
    assert repr(geo) == "Series(1 + x + x^2 + x^3 + x^4 | x | truncated)"
    assert repr(x - x) == "Series(0 | x | exact)"
    assert str(Series.zero(X)) == "0"


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


def test_json_round_trip_and_determinism():
    s = Series(XY, {(1, 0): Fraction(3, 2), (0, 1): -1, (2, 2): 7}, exact=False)
    blob = json.dumps(s.to_json())
    again = Series.from_json(json.loads(blob))
    assert again == s
    assert json.dumps(again.to_json()) == blob
    exps = [tuple(t["exp"]) for t in s.to_json()["terms"]]
    assert exps == [e for e, _ in s.sorted_terms()]


def test_json_round_trip_past_the_str_digit_limit():
    # str(int) and int(str) refuse more than 4300 digits
    big = 7 ** 6000                                        # 5 071 digits
    s = Series(XY, {(1, 0): Fraction(big, 3), (0, 1): -big, (2, 2): Fraction(1, big)},
               exact=False)
    blob = json.dumps(s.to_json())
    again = Series.from_json(json.loads(blob))
    assert again == s
    assert json.dumps(again.to_json()) == blob


def _series_document(**changes):
    data = Series(XY, {(1, 0): Fraction(3, 2), (0, 1): -1}, exact=False).to_json()
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    pytest.param(_series_document(terms=[{"exp": [0.5, 0], "coeff": "1"}]),
                 id="fractional-exponent"),
    pytest.param(_series_document(terms=[{"exp": ["1", 0], "coeff": "1"}]),
                 id="string-exponent"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": "1/0"}]),
                 id="zero-denominator"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": "abc"}]),
                 id="word-coefficient"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": "1_0"}]),
                 id="digit-separator-coefficient"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": "\u0663"}]),
                 id="arabic-digit-coefficient"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": "1/\uff12"}]),
                 id="fullwidth-digit-denominator"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": 0.1}]),
                 id="float-coefficient"),
    pytest.param(_series_document(terms=[{"exp": [1, 0], "coeff": True}]),
                 id="bool-coefficient"),
    pytest.param(_series_document(terms=[{"exp": [1, 0]}]), id="missing-coefficient"),
    pytest.param({k: v for k, v in _series_document().items() if k != "box"},
                 id="missing-box"),
    pytest.param(_series_document(box=[[-16, 16], [-16.5, 16]]), id="fractional-box"),
    pytest.param(_series_document(box=[[-16, 16], [-16]]), id="half-interval"),
    pytest.param(_series_document(twist=[[1, 0], [0, "1"]]), id="string-twist"),
    pytest.param(_series_document(vars=3), id="vars-not-a-list"),
    pytest.param(_series_document(exact="no"), id="exact-not-a-bool"),
])
def test_from_json_refuses_malformed_documents(data):
    with pytest.raises(UsageError):
        Series.from_json(data)


def test_comparison_box_must_match_the_field():
    # 1/(1-x) and 1/(1-x) + y^10 agree on [-5,5]^2; a box of another
    # dimension used to be zipped against the exponents and read wrongly
    plain = identity_spec(("x", "y"))
    s = geometric(plain, (1, 0))
    t = s + Series.monomial(plain, (0, 10))
    assert s.equals_on(t, box=cube(2, 5))
    assert not s.equals_on(t, box=cube(2, 10))
    for n in (1, 3):
        with pytest.raises(SpecMismatch):
            s.equals_on(t, box=cube(n, 5))
        with pytest.raises(SpecMismatch):
            s.is_zero_on(box=cube(n, 5))
