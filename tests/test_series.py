import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from math import comb, factorial, lcm, prod

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
    expand_text,
    identity_spec,
    int_det,
    jacobian,
    jacobian_number,
    log_jacobian,
    log_of,
    multiply,
    parse,
    residue_verify,
    series,
)
from mnseries.ordering import Region, pivot_columns
from mnseries.residues import embed_graded, graded_spec
from mnseries.series import (
    _coeff,
    _convolve,
    _invert_recurrence,
    _power_sum,
    _vec_add,
    _vec_sub,
    chain_extract,
)

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


def test_exact_operand_keeps_the_sums_box():
    # an exact operand adds its support, never its box: 1 + t keeps t's box
    # as t + 1 does (meeting the constant's default [-16, 16], it claimed
    # less on [-40, 40] and was refused on [20, 30])
    def box_of_sum(t):
        try:
            return (Series.constant(X, 1) + t).box
        except OutOfPrecision:
            return None

    ts = [Series(X, {(25,): 1, (30,): 2}, box=Box((bounds,)), exact=False)
          for bounds in ((-40, 40), (20, 30))]
    assert [(t + 1).box for t in ts] == [t.box for t in ts]
    assert [box_of_sum(t) for t in ts] == [t.box for t in ts]


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


def test_pruned_products_equal_the_filtered_full_product():
    # the keep branch (tuple loop below PACKED_PAIRS, guard-bit loop from it
    # on) against the unpruned product filtered by the box
    rng = random.Random(6174)
    seen = Counter()
    far = 10 ** 8                       # beyond any phi-sum drawn here

    def operand(n, size):
        centre = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        spread = rng.choice((1, 3, 10 ** 6))
        terms = {}
        for _ in range(size):
            e = tuple(max(-10 ** 6, min(10 ** 6, c + rng.randint(-spread, spread)))
                      for c in centre)
            terms[e] = _coeff(rng.choice((rng.choice((-2, -1, 1, 3)),
                                          Fraction(rng.choice((-3, -1, 1, 2)),
                                                   rng.randint(1, 4)))))
        return terms

    for _ in range(2000):
        names = ("a", "b", "c", "d", "e")[: rng.randint(1, 5)]
        if rng.random() < 0.5:
            spec = identity_spec(names)
        else:
            while True:
                rows = tuple(tuple(rng.randint(-1, 3) for _ in names) for _ in names)
                try:
                    spec = FieldSpec(names, rows)
                    break
                except SingularTwist:
                    continue
        a = operand(spec.n, rng.randint(1, 12))
        b = operand(spec.n, rng.randint(1, 30))
        centre = spec.phi(_vec_add(rng.choice(list(a)), rng.choice(list(b))))
        radii = (0, 1, 3, 10, 10 ** 6, 10 ** 7)
        bounds = [(c - rng.choice(radii), c + rng.choice(radii)) for c in centre]
        if rng.random() < 0.15:
            j = rng.randrange(spec.n)
            bounds[j] = (far, far + 10) if rng.random() < 0.5 else (-far - 10, -far)
        keep = Box(tuple(bounds))
        got = _convolve(spec, a, b, keep)
        want = {e: v for e, v in _convolve(spec, a, b, None).items()
                if keep.contains(spec.phi(e))}
        assert got == want
        assert {e: type(v) for e, v in got.items()} == {e: type(v) for e, v in want.items()}
        side = "packed" if len(a) * len(b) >= series.PACKED_PAIRS else "tuples"
        seen[side, "kept some" if got else "kept nothing"] += 1
        seen[side, "identity" if spec.is_identity_twist() else "twisted"] += 1
        seen[side, "a fraction" if Fraction in map(type, got.values()) else "ints"] += 1
    assert len(seen) == 12 and min(seen.values()) >= 100, seen


def _shift_and_intersect(a, b):
    """The product's ``(box, exact)`` by the per-exponent rule: one shifted
    box per shift, intersected one at a time.  An exact zero operand makes an
    exact product claimed on the other's box if it is truncated."""
    if (a.exact and (b.exact or not a.terms)) or (b.exact and not b.terms):
        if not b.exact:
            return b.box, True
        if not a.exact:
            return a.box, True
        return a.box.intersect(b.box) or a.box, True
    candidates = []
    for mine, other in ((a, b), (b, a)):
        if mine.exact:
            continue
        if other.exact:
            candidates += [mine.box.shift(a.spec.phi(e)) for e in other.terms]
        elif other.terms:
            candidates.append(mine.box.shift(a.spec.phi(other.initial_term()[0])))
        else:
            candidates.append(mine.box)
    box = candidates[0]
    for candidate in candidates[1:]:
        box = box.intersect(candidate)
        if box is None:
            raise OutOfPrecision("product has no guaranteed region")
    return box, False


def test_product_box_equals_the_per_exponent_shift_and_intersect():
    rng = random.Random(2718)
    seen = Counter()
    kinds = ("exact", "truncated", "empty truncated", "exact zero")

    def operand(spec, kind):
        centre = [rng.randint(-30, 30) for _ in range(spec.n)]
        box = Box(tuple((c - rng.randint(0, 12), c + rng.randint(0, 12)) for c in centre))
        if kind in ("empty truncated", "exact zero"):
            return Series(spec, {}, box=box, exact=kind == "exact zero")
        terms = {tuple(rng.randint(-3, 3) for _ in range(spec.n)): rng.choice((-2, 1, 3))
                 for _ in range(rng.randint(1, 5))}
        if kind == "truncated":       # keep at least one term inside the box
            terms[next(iter(terms))] = 1
            box = Box(tuple((lo + c - x, hi + c - x) for (lo, hi), c, x
                            in zip(box.bounds, spec.phi(next(iter(terms))), centre)))
        return Series(spec, terms, box=box, exact=kind == "exact")

    for _ in range(3000):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        twisted = rng.random() < 0.5
        spec = _random_twist(rng, names) if twisted else identity_spec(names)
        pair = (rng.choice(kinds), rng.choice(kinds))
        a, b = (operand(spec, kind) for kind in pair)
        want = _outcome(lambda: _shift_and_intersect(a, b))
        got = _outcome(lambda: Region.product(*series._claim(a), *series._claim(b)))
        if not isinstance(got, type):
            got = got.box, got.exact
        assert got == want, (a.to_json(), b.to_json())
        seen[pair] += 1
        seen["twisted" if twisted else "identity"] += 1
        seen["refused" if want is OutOfPrecision else "claimed"] += 1
        if "exact" not in pair and want is OutOfPrecision:
            seen["truncated pair refused"] += 1
    assert len(seen) == 21 and min(seen.values()) >= 30, seen


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


@pytest.mark.parametrize("n", [True, False])
def test_bool_powers_refused(n):
    # a bool is an int to isinstance, but not a series exponent
    s = Series(XY, {(1, 0): 1, (0, 1): -2})
    with pytest.raises(UsageError, match="series powers must be integers"):
        s ** n


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


def _power_sum_inverse(s, p=1):
    """s^(-p) as c^(-p)·x^(-p·m)·(sum of C(j+p-1, p-1) times the j-th
    box-pruned power of tau), for s = c·x^m·(1 - tau).  tau's box is where
    it is known: s's box less phi(m) if s is truncated (an exact s walks its
    own box), and the result is claimed on tau's box less p·phi(m)."""
    spec = s.spec
    m, c = s.initial_term()
    inv_c = 1 / Fraction(c)
    tau = {_vec_sub(e, m): -v * inv_c for e, v in s.terms.items() if e != m}
    down = tuple(-x for x in spec.phi(m))
    walk = s.box if s.exact else s.box.shift(down)
    total = _geometric_sum(spec, tau, walk, lambda j: comb(j + p - 1, p - 1))
    shift = tuple(-p * x for x in m)
    return Series(
        spec,
        {_vec_add(e, shift): v * inv_c ** p for e, v in total.items()},
        box=walk.shift(tuple(p * x for x in down)),
        exact=False,
    )


def _random_twist(rng, names):
    while True:
        rows = tuple(tuple(rng.randint(-1, 2) for _ in names) for _ in names)
        try:
            return FieldSpec(names, rows)
        except SingularTwist:
            continue


def _shared_denominator_series(rng):
    """A truncated series with coefficients ±1/k! and ±1/(2^a·3^b), so that
    tau's denominators share factors, on a box about its support that often
    misses the origin."""
    spec = _random_twist(rng, ("x", "y", "z")[: rng.randint(2, 3)])
    offset = [rng.randint(-2, 2) for _ in range(spec.n)]
    terms = {}
    for _ in range(rng.randint(2, 5)):
        e = tuple(rng.randint(-1, 1) + o for o in offset)
        if rng.random() < 0.5:
            den = factorial(rng.randint(1, 5))
        else:
            den = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
        terms[e] = Fraction(rng.choice((-1, 1)), den)
    phis = [spec.phi(e) for e in terms]
    box = Box(tuple((min(p[i] for p in phis) - rng.randint(0, 3),
                     max(p[i] for p in phis) + rng.randint(2, 8))
                    for i in range(spec.n)))
    return Series(spec, terms, box=box, exact=False)


def _levels_shed(s, inv):
    """Per term of g = 1/(1 - tau) in ``inv`` = s⁻¹, how many factors of
    tau's common denominator den the kernel divides out of its numerator:
    a numerator arrives one level above its highest predecessor's and is
    stored at the least level k with den^k·g_e integral."""
    m, c = s.initial_term()
    tau = {_vec_sub(e, m): Fraction(-v, c) for e, v in s.terms.items() if e != m}
    den = lcm(*(v.denominator for v in tau.values()))
    levels = {}
    for e, v in inv.terms.items():
        v *= c
        levels[_vec_add(e, m)] = next(k for k in range(99) if (v * den ** k).denominator == 1)
    origin = (0,) * s.spec.n
    levels.setdefault(origin, 0)        # the walk starts there, stored or not
    shed = Counter()
    for e, level in levels.items():
        if e != origin:
            arrived = 1 + max(levels[p] for p in (_vec_sub(e, t) for t in tau) if p in levels)
            shed[arrived - level] += 1
    return shed


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

    # Fields of 20+ bits (one variable scaled past 2^20 on the identity
    # twist), a box coordinate one point wide (at 0, where every term of the
    # support lies), and the origin 2^20 or more outside the box (supports
    # as above from o, and 2·o, scaled by 2^20 and more)
    unit = 2 ** 20 + rng.randint(1, 999)
    seen = Counter()
    for case in range(150):
        kind = ("wide", "point", "far")[case % 3]
        names = ("x", "y", "z")[: rng.randint(2, 3)]
        spec = identity_spec(names) if kind == "wide" else _random_twist(rng, names)
        scale = [unit if kind == "far" else 1 for _ in names]
        if kind == "wide":
            scale[rng.randrange(spec.n)] = unit
        offset = [0 if kind == "point" else rng.randint(-3, 3) for _ in names]
        if kind == "far":
            offset = [o + rng.choice((-6, 6)) for o in offset]
        j = rng.randrange(spec.n)
        support = [tuple(o * (1 + (kind == "far")) for o in offset)]
        for _ in range(rng.randint(2, 6)):
            e = tuple(rng.randint(-1, 1) + o for o in offset)
            if kind != "point" or spec.phi(e)[j] == 0:
                support.append(e)
        terms = {tuple(x * k for x, k in zip(e, scale)):
                 Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
                 for e in support}
        phis = [spec.phi(e) for e in terms]
        # margins in the unit of the coordinate's exponents, so each walk
        # takes as few steps as an unscaled one
        bounds = [(min(p[i] for p in phis) - rng.randint(0, 4) * scale[i],
                   max(p[i] for p in phis) + rng.randint(0, 10) * scale[i])
                  for i in range(spec.n)]
        if kind == "point":
            bounds[j] = (0, 0)
        box = Box(tuple(bounds))
        s = Series(spec, terms, box=box, exact=False)
        if len(s.terms) < 2:
            continue
        inv = s.invert()
        assert inv == _power_sum_inverse(s), (kind, s, box)
        seen[kind] += 1
        seen[kind, "walked"] += len(inv.terms) >= 3
        if kind == "far":
            seen[kind, "origin outside"] += not box.contains((0,) * spec.n)
    assert min(seen.values()) >= 15, seen

    # tau's denominators share factors (±1/k!, ±1/(2^a·3^b)), so popped
    # numerators hold tau's common denominator, often more than once
    shed = Counter()
    for _ in range(150):
        s = _shared_denominator_series(rng)
        if len(s.terms) < 2:
            continue
        inv = s.invert()
        assert inv == _power_sum_inverse(s), s
        shed.update(_levels_shed(s, inv))
    assert shed[1] >= 300 and sum(n for k, n in shed.items() if k >= 2) >= 50, shed


def test_shared_denominators_in_powers_exp_and_log():
    # s ** -n, exp and log on the shared-denominator family, against the
    # reference power sum
    rng = random.Random(19)
    seen = Counter()
    for case in range(360):
        s = _shared_denominator_series(rng)
        if len(s.terms) < 2:
            continue
        m, c = s.initial_term()
        # tau, of positive order, on the box moved with it
        box = s.box.shift(tuple(-x for x in s.spec.phi(m)))
        tau = Series(s.spec, {_vec_sub(e, m): Fraction(-v, c) for e, v in s.terms.items()
                              if e != m}, box=box, exact=False)
        kind = ("power", "exp", "log")[case % 3]
        if kind == "power":
            n = rng.randint(2, 4)
            got, want = s ** -n, _power_sum_inverse(s, n)
        elif kind == "exp":
            got, want = exp_of(tau), _reference_compose(tau, _exp_stream)
        else:
            one_plus = tau + Series.constant(s.spec, 1, box=box)
            got, want = log_of(one_plus), _reference_log(one_plus)
        assert got == want, (kind, s)
        seen[kind] += 1
        seen[kind, "long"] += len(want.terms) >= 6
        seen[kind, "integral"] += sum(type(v) is int for v in want.terms.values()) >= 2
    assert min(seen.values()) >= 30, seen


def test_an_inverse_is_handed_its_initial_term():
    # the recurrence stores in term order and hands its first term to the
    # inverse: it is the least stored term, also where the box misses the origin
    rng = random.Random(43)
    seen = Counter()
    for _ in range(300):
        s = _shared_denominator_series(rng)
        inv = s.invert()
        if not inv.terms:
            with pytest.raises(ZeroSeries):
                inv.initial_term()
            continue
        least = min(inv.terms, key=inv.spec.key)
        assert inv.initial_term() == (least, inv.terms[least]), s
        assert inv.initial_term() == Series(inv.spec, inv.terms, box=inv.box,
                                            exact=False).initial_term()
        seen["origin outside" if not s.box.contains((0,) * s.spec.n) else "inside"] += 1
        seen["long"] += len(inv.terms) >= 5
    assert min(seen.values()) >= 30, seen


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
        for n in (2, 3, 4):             # s ** -n keys tau once too
            calls.clear()
            s ** -n
            assert len(calls) <= len(s.terms), n
    assert long_runs >= 5


def test_invert_refuses_a_step_that_wraps_in_the_packed_key():
    # Term order compares y first, so x + y + x^2 = x·(1 + x^-1·y + x), and
    # tau is walked on the box less x, [-1, 2] in x.  A second step x^-1·y
    # from x^-1·y leaves it, although the packed sum lies between the box's
    # least and greatest packed keys: the step must be refused in the x
    # field itself, not by the key's range.  So g = 1/(1 - tau) has no
    # x^-2·y^2, and of the three paths to x^-1·y^2 only the two that avoid
    # it count.
    s = Series(identity_spec(("x", "y")), {(1, 0): 1, (0, 1): 1, (2, 0): 1},
               box=Box(((0, 3), (0, 5))), exact=False)
    inv = s.invert()
    assert inv == _power_sum_inverse(s)
    assert (-3, 2) not in inv.terms and inv.coefficient((-2, 2)) == -2


def test_invert_starts_from_the_origin_outside_the_box():
    # tau = -x^3 is known on [3, 10] - 5 = [-2, 5], which holds its origin;
    # the recurrence starts there and walks tau's box, and the inverse is
    # claimed on [-7, 0], where x^-5·(1 - x^3 + ...) is the true inverse.
    # Making the box sound (ROADMAP item 1) may change this value on purpose.
    inv = Series(X, {(5,): 1, (8,): 1}, box=Box(((3, 10),)), exact=False).invert()
    assert inv.terms == {(-5,): 1, (-2,): -1}
    assert inv.box == Box(((-7, 0),))


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


def test_invert_is_computed_once_per_object():
    for label, s in _memo_cases().items():
        fresh = Series(s.spec, s.terms, box=s.box, exact=s.exact)
        inv = s.invert()
        assert s.invert() is inv, label
        assert inv == fresh.invert(), label
        for name in XY.variables:
            assert s.derivative(name) == fresh.derivative(name), (label, name)
        # the inverse's own inverse is computed, not taken from s
        fresh_inv = Series(inv.spec, inv.terms, box=inv.box, exact=inv.exact)
        assert inv.invert() is not s and inv.invert() == fresh_inv.invert(), label


@pytest.fixture
def power_sums(monkeypatch):
    """A list that gains one entry per ``_power_sum`` call, a one-step ray
    or a run of the recurrence."""
    runs = []
    power_sum = series._power_sum
    monkeypatch.setattr(series, "_power_sum",
                        lambda *args: runs.append(1) or power_sum(*args))
    return runs


def test_invert_runs_the_recurrence_once_per_object(power_sums):
    runs = power_sums
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


def test_lemma_checks_reuse_each_inverse(power_sums):
    # One criterion-9 instance through the lemma checks: Res J, Res J·F^e,
    # Res J/ΠF, CT LJ and both forms of the residue identity.  A power sum
    # runs once for F_1^-2 (the binomial power sum), once per F_i (Res J/ΠF,
    # reused by the substitution x_i^-1 of the Res form) and once for the
    # inverse of F_1·F_2 in the log Jacobian, which CT LJ and the CT form
    # share: 4 calls, where recomputing every inverse takes 7.
    runs = power_sums
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
        assert len(runs) == 4


def _assert_holds_the_constructor_invariant(r):
    # what Series(...) would keep: nothing outside the box, no zero, no
    # integral Fraction
    assert Series(r.spec, r.terms, box=r.box, exact=r.exact) == r
    assert not any(isinstance(v, Fraction) and v.denominator == 1
                   for v in r.terms.values())


def test_engine_results_hold_the_constructor_invariant():
    # multiply, invert, compose_stream, derivative, negation, scale, shift
    # and embed_graded of an exact series build their results without
    # revalidating them
    rng = random.Random(2718)
    seen = {"exact*exact": 0, "exact*truncated": 0, "truncated*truncated": 0,
            "invert": 0, "invert, origin outside the box": 0, "compose_stream": 0,
            "derivative": 0, "derivative, integral from a Fraction": 0,
            "negation, scale and shift": 0, "embed_graded": 0}

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
        # a scale by 3/2 makes the thirds integral
        for derived in (-s, s.scale(Fraction(3, 2)), s.scale(0), s.shift((1,) * spec.n)):
            _assert_holds_the_constructor_invariant(derived)
        seen["negation, scale and shift"] += 1
        seen["invert, origin outside the box"] += not s.box.contains((0,) * spec.n)
        tail = Series(spec, {e: v for e, v in s.terms.items() if spec.is_positive(e)},
                      box=s.box, exact=s.exact)
        if tail.terms:
            # weights with denominators, so that a path sum can come out integral
            _assert_holds_the_constructor_invariant(
                tail.compose_stream(lambda n: Fraction((-1) ** n * 3, n + 1)))
            seen["compose_stream"] += 1
        # even exponents: a coefficient with denominator 2 differentiates to an int
        doubled = Series(spec, {tuple(2 * x for x in e): v for e, v in s.terms.items()})
        for i, name in enumerate(names):
            for source in (s, doubled):
                _assert_holds_the_constructor_invariant(source.derivative(name))
                seen["derivative"] += 1
                seen["derivative, integral from a Fraction"] += any(
                    type(v) is Fraction and e[i] and (v * e[i]).denominator == 1
                    for e, v in source.terms.items())
        if s.exact:
            gspec = graded_spec(names)
            embedded = embed_graded(s, gspec, Box(s.box.bounds + ((-4, 4),)))
            _assert_holds_the_constructor_invariant(embedded)
            seen["embed_graded"] += 1
    assert min(seen.values()) >= 30, sorted(seen.items())
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


def test_chain_of_two_equals_extract_of_the_formed_product():
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
            assert _slice_outcome(lambda: chain_extract([a, b], over, want)) == expected, (
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


def _chain_outcome(read):
    """What ``read()`` gives, for a comparison: a series' ``to_json``, a
    value and its type, or the class and message of the MNError raised."""
    try:
        value = read()
    except MNError as exc:
        return type(exc), str(exc)
    if isinstance(value, Series):
        return value.to_json()
    return value, type(value)


def test_chain_equals_the_formed_product():
    # chain_extract reads what reduce(multiply, ...) then extract reads, on
    # chains of 2 to 5 factors (a truncated one of 1 to 3 terms among them),
    # in fields whose phi-coordinates a slice pins or leaves free; an exact
    # factor of more than one term is often put
    # before the truncated ones, where it can drop a truncated product's
    # initial pair (ROADMAP item 1, face (c))
    rng = random.Random(31)
    seen = Counter()
    fields = [identity_spec(("x", "y")), graded_spec(("x", "y"))] + [
        FieldSpec(("x", "y"), twist)
        for twist in (((1, 0), (1, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))]

    def polynomial(spec, count, box, exact=True):
        terms = {}
        while len(terms) < count:
            terms[tuple(rng.randint(-2, 2) for _ in range(spec.n))] = rng.choice(
                (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
        return Series(spec, terms, box=box, exact=exact)

    def positive(spec, box):
        steps = [e for e in (tuple(rng.randint(-1, 2) for _ in range(spec.n))
                             for _ in range(8)) if spec.is_positive(e)][:2]
        return Series(spec, {e: rng.choice((1, -1, 2)) for e in steps} or {spec.unit("x"): 1},
                      box=box)

    def factor(spec, kind):
        box = Box(tuple((-rng.randint(2, 4), rng.randint(2, 4)) for _ in range(spec.n)))
        if kind in ("exact", "truncated"):
            return polynomial(spec, rng.randint(1, 3), box, kind == "exact")
        if kind == "inverse":
            return polynomial(spec, rng.randint(2, 3), box).invert()
        if kind == "exp":
            return exp_of(positive(spec, box))
        if kind == "log":
            return log_of(1 + positive(spec, box))
        return Series(spec, {}, box=box, exact=rng.random() < 0.5)

    for draw in range(300):
        spec = fields[draw % len(fields)]
        kinds = rng.choices(("exact", "truncated", "inverse", "exp", "log", "zero"),
                            (4, 3, 3, 2, 2, 1),
                            k=rng.randint(2, 5))
        factors = [_outcome(lambda kind=kind: factor(spec, kind)) for kind in kinds]
        factors = [s for s in factors if isinstance(s, Series)]
        if len(factors) < 2:
            continue
        if draw % 2:
            factors.sort(key=lambda s: not (s.exact and len(s.terms) > 1))
        formed = _chain_outcome(lambda: reduce(multiply, factors))
        seen["product refused" if isinstance(formed, tuple) else "product formed"] += 1
        truncated = [k for k, s in enumerate(factors) if not s.exact]
        if truncated and any(s.exact and len(s.terms) > 1 for s in factors[:truncated[-1]]):
            seen["exact factor before a truncated one"] += 1
        for size in range(1, spec.n + 1):
            for names in combinations(spec.variables, size):
                for want in (-1, 0, 1):
                    expected = _chain_outcome(
                        lambda: reduce(multiply, factors).extract(names, want))
                    got = _chain_outcome(lambda: chain_extract(factors, names, want))
                    assert got == expected, ([s.to_json() for s in factors], names, want)
                    refused = isinstance(expected, tuple) and isinstance(expected[0], type)
                    seen["slice" if size < spec.n else "coefficient",
                         "refused" if refused else "read"] += 1
                    seen["nonzero"] += not refused and bool(
                        expected["terms"] if isinstance(expected, dict) else expected[0])
    assert min(seen.values()) >= 10, seen


def test_slice_outside_the_box_refused():
    # x lives in [1,5]: the x^0 part of 1/(1-x-y) is not known there
    box = Box(((1, 5), (-3, 3)))
    inverse = Series(identity_spec(("x", "y")), {(0, 0): 1, (1, 0): -1, (0, 1): -1},
                     box=box).invert()
    for read in (lambda: inverse.extract(["x"], 0),
                 lambda: inverse.extract(["x"], (6,)),
                 lambda: chain_extract([inverse, Series.constant(inverse.spec, 1)], ["x"], 0)):
        with pytest.raises(OutOfPrecision):
            read()
    # an exact series has no box to leave
    assert Series(XYT, {(3, 0, 0): 2}).extract(["x"], 0).terms == {}


def _solve(matrix, rhs):
    """x with x·matrix = rhs for a nonsingular square matrix, in Fractions
    (Gauss-Jordan on the transposed system)."""
    k = len(rhs)
    rows = [[Fraction(matrix[i][j]) for i in range(k)] + [Fraction(rhs[j])] for j in range(k)]
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def test_slice_refuses_exactly_when_a_corner_leaves_the_box():
    # The slice at the selected exponents is claimed on the box less
    # phi(target) on the pivot columns of the remaining rows.  A slice
    # term's phi is an affine map of its slice phi u, so its extremes lie at
    # the corners of the slice's box: a truncated slice must refuse exactly
    # when some corner u, mapped back to residual exponents r (r·R = u, R
    # the rows at the pivot columns), has phi(target ⊕ r) outside the box.
    rng = random.Random(1729)
    seen = Counter()
    for _ in range(1000):
        names = ("x", "y", "z", "w")[: rng.randint(2, 4)]
        spec = _random_twist(rng, names)
        n = spec.n
        picked = rng.sample(range(n), rng.randint(1, n - 1))
        over = [names[i] for i in picked]
        want = tuple(rng.randint(-3, 3) for _ in picked)
        rows = [spec.twist[i] for i in range(n) if i not in picked]
        columns = pivot_columns(rows)
        # narrow boxes refuse most slices; wide non-pivot intervals claim most
        wide = rng.random() < 0.5
        box = Box(tuple((rng.randint(-60, -30), rng.randint(30, 60))
                        if wide and j not in columns else (lo, lo + rng.randint(0, 8))
                        for j, lo in enumerate(rng.randint(-6, 2) for _ in range(n))))
        target = [0] * n
        for i, w in zip(picked, want):
            target[i] = w
        origin = spec.phi(tuple(target))
        square = [[row[c] for c in columns] for row in rows]
        corners = product(*[(box.bounds[c][0] - origin[c], box.bounds[c][1] - origin[c])
                            for c in columns])
        outside = False
        for u in corners:
            r = _solve(square, u)
            point = [o + sum(x * row[j] for x, row in zip(r, rows))
                     for j, o in enumerate(origin)]
            outside |= not box.contains(point)
        got = _outcome(lambda: Series(spec, {}, box=box, exact=False).extract(over, want))
        assert (got is OutOfPrecision) == outside, (spec, over, want, box)
        if not outside:
            assert got.box.bounds == tuple((box.bounds[c][0] - origin[c],
                                            box.bounds[c][1] - origin[c]) for c in columns)
        # an exact claim has no box to leave
        assert not Series(spec, {}, box=box).extract(over, want).terms
        seen[n, "refused" if outside else "claimed"] += 1
        seen["twisted pivots"] += columns != sorted(set(range(n)) - set(picked))
    assert len(seen) == 7 and min(seen.values()) >= 30, seen


def test_slice_on_a_twist_with_a_singular_residual_block():
    # y's row (1, 0) is 0 on y's own column, so the kept block is singular;
    # its pivot column is column 0, where it orders y as the field does
    spec = FieldSpec(("x", "y"), ((1, 1), (1, 0)))
    ct = expand_text("1+y", spec, box=cube(2, 4)).extract(["x"], 0)
    assert ct.spec == identity_spec(("y",))
    assert (ct.terms, ct.box) == ({(0,): 1, (1,): 1}, Box(((-4, 4),)))


def _slice(spec, box, selected, want):
    """The residual field and box of ``want`` at the ``selected`` indices."""
    names = [spec.variables[i] for i in selected]
    residual = Series.zero(spec, box=box).extract(names, want)
    return residual.spec, residual.box


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slice_keeps_the_order_the_field_induces(seed):
    # random nonsingular twists, n = 2..4, random proper sets of named variables
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(2, 4)
        twist = None
        while twist is None or int_det(twist) == 0:
            twist = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        spec = FieldSpec(tuple(f"v{i}" for i in range(n)), twist)
        selected = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        keep = [i for i in range(n) if i not in selected]
        want = [rng.randint(-3, 3) for _ in selected]
        box = cube(n, 6)
        # a singular residual twist would raise SingularTwist here
        residual, residual_box = _slice(spec, box, selected, want)
        for _ in range(10):
            pair = [[rng.randint(-3, 3) for _ in keep] for _ in range(2)]
            full = []
            for r in pair:
                exponent = [0] * n
                for i, e in zip(selected + keep, want + r):
                    exponent[i] = e
                full.append(exponent)
                # the residual box holds every term of the slice the box holds
                if box.contains(spec.phi(exponent)):
                    assert residual_box.contains(residual.phi(r))
            assert _sign(*map(residual.key, pair)) == _sign(*map(spec.key, full))
        # on the identity twist the slice is the kept names' plain field on
        # the kept intervals, as it was before pivot columns
        plain = identity_spec(spec.variables)
        assert _slice(plain, box, selected, want) == (
            identity_spec([plain.variables[i] for i in keep]), box.project(keep))


def test_partial_slice_on_a_twisted_field_claims_only_what_it_knows():
    # phi(a, b) = (a + b, b): the box [1,5] on a + b leaves out the constant
    # term, whose slice y^0 is 1; a refusal claims nothing
    spec = FieldSpec(("x", "y"), ((1, 0), (1, 1)))
    small, wide = (_outcome(lambda: expand_text("1/(1-x-y)", spec, box=Box((bounds, (-3, 3))))
                            .extract(["x"], 0)) for bounds in ((1, 5), (-8, 8)))
    assert isinstance(wide, Series)
    if isinstance(small, Series):
        claimed = [(k,) for k in range(-3, 4) if small.guarantees((k,))]
        assert ([small.coefficient(e) for e in claimed]
                == [wide.coefficient(e) for e in claimed])


def test_empty_name_list_refused():
    s = Series(XYT, {(1, 1, 1): 1})
    for read in (lambda: s.extract([], 0), lambda: chain_extract([s, s], [], 0)):
        with pytest.raises(UsageError):
            read()


def test_a_bare_string_is_not_a_list_of_names():
    # "x1" would be read letter by letter, as the unknown name x
    s = expand_text("1+x1", identity_spec(("x1",)))
    for read in (lambda: s.extract("x1", 0), lambda: chain_extract([s, s], "x1", 0)):
        with pytest.raises(UsageError, match="got the string 'x1'"):
            read()
    assert s.extract(["x1"], 0) == s.extract(("x1",), 0) == 1


def test_empty_factor_list_refused():
    # reduce(multiply, []) has no start value; the chain refuses the list
    for factors in ([], iter([])):
        with pytest.raises(UsageError, match="nonempty list of series"):
            chain_extract(factors, ["x"], 0)


def test_a_product_of_a_series_and_a_scalar_is_refused():
    s = Series(X, {(0,): 1, (1,): 2})
    for read in (lambda: multiply(s, 3), lambda: multiply(3, s),
                 lambda: chain_extract([s, 3], ["x"], 0)):
        with pytest.raises(UsageError):
            read()
    # the operators still read a scalar as a constant, or scale by it
    assert s + 3 == 3 + s == Series(X, {(0,): 4, (1,): 2})
    assert s - 1 == Series(X, {(1,): 2}) and (1 - s).terms == {(1,): -2}
    assert Series.constant(X, 3).equals_on(3) and not s.equals_on(1)
    assert s * 3 == 3 * s == Series(X, {(0,): 3, (1,): 6})


@pytest.mark.parametrize("want", [1.5, ["0"], [0.5], True, [True], Fraction(1)],
                         ids=["float", "str entry", "float entry", "bool", "bool entry",
                              "Fraction"])
def test_non_integer_wanted_exponent_refused(want):
    # a partial naming used to raise TypeError, return an empty series for
    # [0.5], or read True as the x^1 slice; only an int is a wanted exponent
    s = Series(identity_spec(("x", "y")), {(0, 0): 1, (1, 1): -1}, box=cube(2, 4)).invert()
    for names in (["x"], ["x", "y"]):
        wanted = want * len(names) if isinstance(want, list) else want   # one per name
        for read in (lambda: s.extract(names, wanted),
                     lambda: chain_extract([s, s], names, wanted)):
            with pytest.raises(UsageError):
                read()


@pytest.mark.parametrize("entry", [0.5, True, "1", Fraction(1)],
                         ids=["float", "bool", "str", "Fraction"])
def test_non_integer_exponent_entries_are_refused(entry):
    # only an int is an exponent entry, as in from_json; a float one used to
    # be stored and then broke printing and a packed product
    for exact in (True, False):
        with pytest.raises(UsageError, match="exponent entries must be integers"):
            Series(X, {(entry,): 1}, exact=exact)
        s = Series(XY, {(1, 0): 1}, exact=exact)
        for read in (s.coefficient, s.guarantees):
            with pytest.raises(UsageError, match="exponent entries must be integers"):
                read((entry, 0))
    with pytest.raises(UsageError):
        Series(X, {(k + 0.5,): 1 for k in range(10)}, box=cube(1, 20), exact=False)


def test_division_by_a_zero_scalar_is_a_zero_divisor():
    s = Series(XY, {(1, 0): 1, (0, 1): 2}, exact=False)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisor, match="cannot divide by zero"):
            s / zero


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


def _recurrence_power_sum(tau, twist, box, weights, start, scale):
    """``_power_sum`` as ``_invert_recurrence`` gives it for any tau: the
    plain recurrence, or the one lifted by a path-length coordinate with
    weights(n)·scale on the paths of n steps."""
    if weights is None:
        return _invert_recurrence(tau, twist, box, start, scale)
    length = prod(hi - lo + 1 for lo, hi in box.bounds)
    lifted = [(*row, 0) for row in twist] + [(0,) * len(twist) + (1,)]
    paths = _invert_recurrence({e + (1,): v for e, v in tau.items()}, lifted,
                               Box(box.bounds + ((0, length),)), start + (0,), 1)
    total = {}
    for e, value in paths.items():
        term = _coeff(_coeff(weights(e[-1])) * scale) * value
        total[e[:-1]] = total.get(e[:-1], 0) + term
    return {e: _coeff(v) for e, v in total.items() if v}


_RAY_WEIGHTS = {
    "plain": None,
    "binomial": lambda j: comb(j + 2, 2),
    "exp": lambda j: Fraction(1, factorial(j)),
    "log": lambda j: Fraction((-1) ** (j + 1), j) if j else 0,
}


def test_one_step_ray_equals_the_recurrence():
    # item for item, in order and type, on random twists and boxes, many of
    # which miss the origin or stop the ray at its first step
    rng = random.Random(41)
    seen = Counter()
    for case in range(1500):
        spec = _random_twist(rng, ("x", "y", "z")[: rng.randint(1, 3)])
        n = spec.n
        step = tuple(rng.randint(-2, 2) for _ in range(n))
        while not spec.is_positive(step):
            step = tuple(rng.randint(-2, 2) for _ in range(n))
        value = rng.choice((1, -1, 3, Fraction(1, 2), Fraction(-2, 3)))
        box = Box(tuple(sorted((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(n)))
        start = tuple(rng.randint(-3, 3) for _ in range(n))
        scale = rng.choice((1, -2, Fraction(3, 4)))
        kind = list(_RAY_WEIGHTS)[case % len(_RAY_WEIGHTS)]
        args = (box, _RAY_WEIGHTS[kind], start, scale)
        got = _power_sum({step: value}, spec, *args)
        want = _recurrence_power_sum({step: value}, spec.twist, *args)
        assert [(e, v, type(v)) for e, v in got.items()] == [
            (e, v, type(v)) for e, v in want.items()], (kind, spec, step, box)
        seen[kind, "origin outside" if not box.contains((0,) * n) else "origin"] += 1
        seen["long"] += len(want) >= 4
        seen["empty"] += not want
    assert len(seen) == 2 * len(_RAY_WEIGHTS) + 2 and min(seen.values()) >= 20, seen


def test_a_one_term_factor_shifts_and_scales_the_other():
    # multiply by an exact c·x^m equals the pair loop it replaces, on
    # the product box, for either operand order and any claim of the other
    rng = random.Random(43)
    for case in range(300):
        spec = _random_twist(rng, ("x", "y", "z")[: rng.randint(1, 3)])
        n = spec.n
        m = tuple(rng.randint(-3, 3) for _ in range(n))
        one = Series(spec, {m: rng.choice((1, -2, Fraction(3, 5)))}, box=cube(n, 6))
        other = Series(spec, {tuple(rng.randint(-3, 3) for _ in range(n)):
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 70))},
                       box=cube(n, 5), exact=rng.random() < 0.3)
        a, b = (one, other) if case % 2 else (other, one)
        product = multiply(a, b)
        region = Region.product(*series._claim(a), *series._claim(b))
        assert product.region == region
        assert product.terms == _convolve(spec, a.terms, b.terms,
                                          None if region.exact else region.box)
        _assert_holds_the_constructor_invariant(product)


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
    assert bool(x) and not bool(x - x)
    assert x - 3 == Series(X, {(0,): -3, (1,): 1}, box=cube(1, 4))
    assert 3 * x == x * 3 == Series(X, {(1,): 3}, box=cube(1, 4))
    assert Series.constant(X, 3) != 3 and not (x == 3)  # a series is never a scalar
    with pytest.raises(UsageError, match="need one wanted exponent per name, got 1 for 2"):
        Series(XY, {(1, 1): 1}).extract(["x", "y"], (0,))


def test_str_joins_the_terms_with_their_signs():
    xy = identity_spec(("x", "y"))
    cases = [(Series.zero(xy), "0"),
             (Series.constant(xy, -3), "-3"),
             (Series(xy, {(1, 0): -2, (0, 1): 1}), "-2*x + y"),
             (Series(xy, {(0, 0): 1, (1, 0): -1}), "1 - x"),
             (Series(xy, {(-1, 0): Fraction(-3, 2), (0, 0): 1}), "-3/2*x^-1 + 1"),
             (Series(xy, {(0, 0): -1, (1, 0): 2, (0, 1): Fraction(-1, 2), (1, 1): -1}),
              "-1 + 2*x - 1/2*y - x*y")]
    for s, text in cases:
        assert str(s) == text


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


@pytest.mark.parametrize("exact", ["no", 1])
def test_exact_must_be_a_bool(exact):
    # stored as given, either one made to_json write a document that
    # from_json refuses
    with pytest.raises(UsageError, match=f"expected true or false for exact, got {exact!r}"):
        Series(X, {(0,): 1, (1,): 2}, exact=exact)


@pytest.mark.parametrize("exact", [True, False])
def test_json_round_trip_keeps_exact(exact):
    s = Series(X, {(0,): 1, (1,): 2}, box=cube(1, 4), exact=exact)
    again = Series.from_json(json.loads(json.dumps(s.to_json())))
    assert again == s and again.exact is exact


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
        with pytest.raises(SpecMismatch):
            Series(plain, {}, box=cube(n, 5))
    # truncated on disjoint boxes, or on one disjoint from the box asked for
    far = Series(plain, {}, box=Box(((20, 30), (20, 30))), exact=False)
    for compare in (lambda: s.equals_on(far), lambda: far.equals_on(t, box=cube(2, 5))):
        with pytest.raises(OutOfPrecision, match="no common guaranteed box to compare on"):
            compare()
