import random

import pytest

from mnseries import (
    Box,
    FieldSpec,
    SingularTwist,
    SpecMismatch,
    UnknownVariable,
    cube,
    format_field_spec,
    identity_spec,
    int_det,
    parse_field_spec,
    transformed_spec,
)
from mnseries.ordering import EQUAL, GREATER, revlex_compare

TWIST = FieldSpec(("x", "y"), ((2, 1), (1, 2)))


def test_phi_fixes_y_over_x():
    # rho(y/x) = rho(y)/rho(x) = y/x under the x->x^2 y, y->x y^2 twist
    assert TWIST.phi((-1, 1)) == (-1, 1)


def test_phi_zero_is_zero():
    assert TWIST.phi((0, 0)) == (0, 0)
    assert identity_spec(("a", "b", "c")).phi((0, 0, 0)) == (0, 0, 0)


def test_phi_by_hand():
    # 2*(2,1) - (1,2)
    assert TWIST.phi((2, -1)) == (3, 0)


def test_compare_y_over_x_greater_than_one():
    assert TWIST.compare((-1, 1), (0, 0)) == GREATER


def test_compare_equal_only_on_same_vector():
    assert TWIST.compare((3, -2), (3, -2)) == EQUAL


def test_compare_x_squared_over_y():
    assert TWIST.compare((2, -1), (0, 0)) == GREATER


def test_transformed_spec_inverse_variable():
    base = identity_spec(("x",))
    spec = transformed_spec(base, {"x": (-1,)})
    assert spec.twist == ((-1,),)


def test_transformed_spec_identity_substitution():
    base = identity_spec(("x", "y", "t"))
    spec = transformed_spec(base, {"x": (1, 0, 0), "y": (0, 1, 0)})
    assert spec == base


def test_transformed_spec_big_example():
    base = identity_spec(("x", "y", "t"))
    spec = transformed_spec(base, {"x": (2, 1, 0), "y": (1, 2, 0)})
    assert spec.twist == ((2, 1, 0), (1, 2, 0), (0, 0, 1))


def test_transformed_spec_singular():
    base = identity_spec(("x", "y"))
    with pytest.raises(SingularTwist):
        transformed_spec(base, {"x": (2, 0), "y": (1, 0)})


def test_transformed_spec_composes_with_base():
    base = FieldSpec(("x", "y"), ((2, 1), (1, 2)))
    spec = transformed_spec(base, {"x": (1, 1)})
    # x -> x*y first, then the base twist: row_x = (1,1)·M, row_y unchanged
    assert spec.twist == ((3, 3), (1, 2))


def _random_spec(rng):
    n = rng.randint(1, 4)
    while True:
        twist = tuple(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)
        )
        if int_det(twist) != 0:
            return FieldSpec(tuple(f"v{i}" for i in range(n)), twist)


def _random_vec(rng, n):
    return tuple(rng.randint(-6, 6) for _ in range(n))


def test_total_order_properties():
    rng = random.Random(20240817)
    for _ in range(200):
        spec = _random_spec(rng)
        a, b, c = (_random_vec(rng, spec.n) for _ in range(3))
        # antisymmetry
        assert spec.compare(a, b) == -spec.compare(b, a)
        # totality: some verdict is always produced; equality iff identical
        assert (spec.compare(a, b) == EQUAL) == (a == b)
        # transitivity
        if spec.compare(a, b) != GREATER and spec.compare(b, c) != GREATER:
            assert spec.compare(a, c) != GREATER


def test_translation_invariance():
    rng = random.Random(7)
    for _ in range(200):
        spec = _random_spec(rng)
        a, b, g = (_random_vec(rng, spec.n) for _ in range(3))
        shifted = spec.compare(
            tuple(x + z for x, z in zip(a, g)), tuple(y + z for y, z in zip(b, g))
        )
        assert shifted == spec.compare(a, b)


def test_phi_matches_its_definition():
    rng = random.Random(314)
    specs = [identity_spec(("a",)), identity_spec(("a", "b", "c")),
             FieldSpec(("a", "b"), ((0, 1), (1, 0))),
             FieldSpec(("a", "b"), ((1, 0), (0, -1)))]
    specs += [_random_spec(rng) for _ in range(200)]
    for spec in specs:
        n = spec.n
        assert spec.is_identity_twist() == all(
            spec.twist[i][j] == (i == j) for i in range(n) for j in range(n)
        )
        for _ in range(5):
            k = _random_vec(rng, n)
            # phi(k) = sum_i k_i * row_i
            want = tuple(sum(k[i] * spec.twist[i][j] for i in range(n))
                         for j in range(n))
            assert spec.phi(k) == want
            assert spec.phi(list(k)) == want
        for length in (n - 1, n + 1):
            with pytest.raises(SpecMismatch):
                spec.phi((1,) * length)
    assert sum(spec.is_identity_twist() for spec in specs) > 2


def test_box_exit_lemma():
    # revlex-greater than the top corner implies outside the box
    rng = random.Random(99)
    for _ in range(300):
        spec = _random_spec(rng)
        box = cube(spec.n, rng.randint(1, 8))
        k = _random_vec(rng, spec.n)
        phi = spec.phi(k)
        if revlex_compare(phi, box.top_corner()) == GREATER:
            assert not box.contains(phi)


def test_box_basics():
    box = Box(((-2, 3), (0, 5)))
    assert box.contains((3, 0))
    assert not box.contains((4, 0))
    assert box.shift((1, -1)).bounds == ((-1, 4), (-1, 4))
    assert box.intersect(Box(((0, 9), (4, 9)))).bounds == ((0, 3), (4, 5))
    assert box.intersect(Box(((9, 9), (0, 5)))) is None
    assert box.top_corner() == (3, 5)


def test_parse_field_spec_round_trip():
    text = "vars=x,y,t; twist=[[2,1,0],[1,2,0],[0,0,1]]"
    spec = parse_field_spec(text)
    assert spec.variables == ("x", "y", "t")
    assert spec.twist[0] == (2, 1, 0)
    assert parse_field_spec(format_field_spec(spec)) == spec


def test_parse_field_spec_identity_default():
    spec = parse_field_spec("vars=a,b")
    assert spec.is_identity_twist()
    assert format_field_spec(spec) == "vars=a,b"


def test_singular_twist_rejected():
    with pytest.raises(SingularTwist):
        FieldSpec(("x", "y"), ((1, 1), (1, 1)))


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        identity_spec(("x",)).index("zz")


def test_int_det():
    assert int_det(((2, 1), (1, 2))) == 3
    assert int_det(((0, 1), (1, 0))) == -1
    assert int_det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # cross-check against permanent-style cofactor expansion
        assert int_det(m) == _cofactor_det(m)


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total += -term if j % 2 else term
    return total
