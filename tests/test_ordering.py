import random
from fractions import Fraction

import pytest

from mnseries import (
    Box,
    FieldSpec,
    SingularTwist,
    SpecMismatch,
    UnknownVariable,
    UsageError,
    cube,
    format_field_spec,
    identity_spec,
    int_det,
    parse,
    parse_field_spec,
    transformed_spec,
)
from mnseries.ordering import (
    MAX_DECIMAL_EXPONENT,
    field_spec,
    rational_text,
    read_int,
    read_rational,
)
from mnseries.parser import Variable

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
    assert TWIST.key((-1, 1)) > TWIST.key((0, 0))
    assert TWIST.is_positive((-1, 1))


def test_compare_equal_only_on_same_vector():
    assert TWIST.key((3, -2)) == TWIST.key((3, -2))
    assert TWIST.key((3, -2)) != TWIST.key((-2, 3))


def test_compare_x_squared_over_y():
    assert TWIST.key((2, -1)) > TWIST.key((0, 0))
    assert TWIST.is_positive((2, -1))


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
    with pytest.raises(UsageError, match="substituted row for 'x' has wrong length"):
        transformed_spec(base, {"x": (2, 0, 1)})


def test_transformed_spec_composes_with_base():
    base = FieldSpec(("x", "y"), ((2, 1), (1, 2)))
    spec = transformed_spec(base, {"x": (1, 1)})
    # x -> x*y first, then the base twist: row_x = (1,1)·M, row_y unchanged
    assert spec.twist == ((3, 3), (1, 2))


def test_transformed_spec_maps_each_unit_through_the_base_phi():
    # the target field maps a substituted unit to base.phi(row), any other
    # unit to base.phi(unit), and so every exponent k to base.phi(k·rows)
    rng = random.Random(28)
    seen = {"singular": 0, "field": 0, "partial": 0}
    for _ in range(400):
        n = rng.randint(1, 3)
        base = _random_spec(rng, n)
        names = rng.sample(base.variables, rng.randint(1, n))
        substituted = {name: tuple(rng.randint(-2, 2) for _ in range(n)) for name in names}
        if rng.random() < 0.2:          # a row repeated, or a zero row
            substituted[names[0]] = rng.choice([(0,) * n] + list(substituted.values())[1:])
        rows = [substituted.get(name, base.unit(name)) for name in base.variables]
        if int_det(rows) == 0:
            with pytest.raises(SingularTwist):
                transformed_spec(base, substituted)
            seen["singular"] += 1
            continue
        target = transformed_spec(base, substituted)
        assert target.variables == base.variables
        for name, row in zip(base.variables, rows):
            assert target.phi(target.unit(name)) == base.phi(row)
        k = _random_vec(rng, n)
        image = tuple(sum(k[i] * row[j] for i, row in enumerate(rows)) for j in range(n))
        assert target.phi(k) == base.phi(image)
        seen["field"] += 1
        seen["partial"] += len(names) < n
    assert min(seen.values()) >= 50, seen


def _random_spec(rng, n=None):
    n = n or rng.randint(1, 4)
    while True:
        twist = tuple(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)
        )
        if int_det(twist) != 0:
            return FieldSpec(tuple(f"v{i}" for i in range(n)), twist)


def _random_vec(rng, n):
    return tuple(rng.randint(-6, 6) for _ in range(n))


def _compare(spec, a, b):
    """-1, 0 or 1 as a is below, equal to or above b in the term order."""
    ka, kb = spec.key(a), spec.key(b)
    return (ka > kb) - (ka < kb)


def test_total_order_properties():
    rng = random.Random(20240817)
    for _ in range(200):
        spec = _random_spec(rng)
        a, b, c = (_random_vec(rng, spec.n) for _ in range(3))
        # antisymmetry
        assert _compare(spec, a, b) == -_compare(spec, b, a)
        # totality: some verdict is always produced; equality iff identical
        assert (_compare(spec, a, b) == 0) == (a == b)
        # transitivity
        if _compare(spec, a, b) <= 0 and _compare(spec, b, c) <= 0:
            assert _compare(spec, a, c) <= 0
        assert spec.is_positive(a) == (_compare(spec, a, (0,) * spec.n) > 0)


def test_translation_invariance():
    rng = random.Random(7)
    for _ in range(200):
        spec = _random_spec(rng)
        a, b, g = (_random_vec(rng, spec.n) for _ in range(3))
        shifted = _compare(
            spec, tuple(x + z for x, z in zip(a, g)), tuple(y + z for y, z in zip(b, g))
        )
        assert shifted == _compare(spec, a, b)


HUGE = 7 ** 6000


def _wide_specs(rng, count):
    """Twists whose columns mix 0, 1, -1, negative entries and entries past
    str's 4300 digits, each with a twin of the same shape (its other
    entries moved by 1), as phi is compiled once per shape."""
    entries = (0, 0, 1, -1, 2, -3, 97, -(10 ** 30), HUGE, -HUGE)
    specs = []
    while len(specs) < count:
        n = rng.randint(1, 4)
        twist = tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(n))
        twin = tuple(tuple(t if t in (0, 1, -1) else t + 1 for t in row) for row in twist)
        specs += [FieldSpec(tuple(f"v{i}" for i in range(n)), rows)
                  for rows in (twist, twin) if int_det(rows)]
    return specs


def test_phi_matches_its_definition():
    rng = random.Random(314)
    specs = [identity_spec(("a",)), identity_spec(("a", "b", "c")),
             FieldSpec(("a", "b"), ((0, 1), (1, 0))),
             FieldSpec(("a", "b"), ((1, 0), (0, -1)))]
    specs += [_random_spec(rng) for _ in range(200)]
    specs += _wide_specs(random.Random(2718), 200)
    for spec in specs:
        n = spec.n
        assert spec.is_identity_twist() == all(
            spec.twist[i][j] == (i == j) for i in range(n) for j in range(n)
        )
        for _ in range(5):
            k = _random_vec(rng, n)
            if rng.random() < 0.2:
                k = tuple(rng.choice((x, HUGE, -HUGE)) for x in k)
            # phi(k) = sum_i k_i * row_i
            want = tuple(sum(k[i] * spec.twist[i][j] for i in range(n))
                         for j in range(n))
            assert spec.phi(k) == want
            assert spec.phi(list(k)) == want
        for length in (n - 1, n + 1):
            with pytest.raises(SpecMismatch):
                spec.phi((1,) * length)
    assert sum(spec.is_identity_twist() for spec in specs) > 2
    assert sum(any(abs(t) == HUGE for row in spec.twist for t in row) for spec in specs) > 50


def test_box_exit_lemma():
    # revlex-greater than the top corner implies outside the box
    rng = random.Random(99)
    for _ in range(300):
        spec = _random_spec(rng)
        box = cube(spec.n, rng.randint(1, 8))
        k = _random_vec(rng, spec.n)
        if spec.key(k) > box.top_corner()[::-1]:
            assert not box.contains(spec.phi(k))


def test_box_basics():
    box = Box(((-2, 3), (0, 5)))
    assert box.contains((3, 0))
    assert not box.contains((4, 0))
    assert box.shift((1, -1)).bounds == ((-1, 4), (-1, 4))
    assert box.intersect(Box(((0, 9), (4, 9)))).bounds == ((0, 3), (4, 5))
    assert box.intersect(Box(((9, 9), (0, 5)))) is None
    assert box.top_corner() == (3, 5)
    # only ints bound a box: a float one used to reach the packed kernels
    for bounds in (((0.5, 3),), ((0, True),), ((0, Fraction(3)),)):
        with pytest.raises(UsageError, match="box bounds must be integers"):
            Box(bounds)
    with pytest.raises(UsageError, match=r"empty box interval \[2, 1\]"):
        Box(((2, 1),))


def test_parse_field_spec_round_trip():
    text = "vars=x,y,t; twist=[[2,1,0],[1,2,0],[0,0,1]]"
    spec = parse_field_spec(text)
    assert spec.variables == ("x", "y", "t")
    assert spec.twist[0] == (2, 1, 0)
    assert parse_field_spec(format_field_spec(spec)) == spec


def test_parse_field_spec_twist_with_spaces():
    plain = parse_field_spec("vars=x,y; twist=[[2,1],[1,2]]")
    for twist in ("[[2, 1], [1, 2]]", " [ [ 2 , 1 ] ,\t[1,2]\n] "):
        assert parse_field_spec(f"vars=x,y; twist={twist}") == plain
    for bad in ("[[2 1],[1,2]]", "[[2,1],[1,a]]", "[[2,1],[1,2]", "[[2,1] [1,2]]",
                "[[2.5,1],[1,2]]", "[[2,,1],[1,2]]"):
        with pytest.raises(UsageError):
            parse_field_spec(f"vars=x,y; twist={bad}")


def test_read_int_takes_ascii_digits_only():
    assert read_int("12") == 12 and read_int(" -12\t") == -12 and read_int("+7") == 7
    assert read_int("9" * 5000) == 10 ** 5000 - 1      # int(str) stops at 4 300 digits
    for bad in ("1_0", "\u0663", "\uff11", "1.0", "", " ", "1 2", "0x10", "--1", "1e3"):
        with pytest.raises(ValueError):
            read_int(bad)
    with pytest.raises(UsageError):
        parse_field_spec("vars=x,y; twist=[[2_1,0],[0,1]]")


def test_read_rational_takes_ascii_digits_only():
    # Fraction(text) also takes digit separators and other scripts' digits
    for text, value in (("12", 12), (" -3/4 ", Fraction(-3, 4)), ("+7", 7),
                        ("1.5", Fraction(3, 2)), (".5", Fraction(1, 2)), ("2.", 2),
                        ("-2.5E-1", Fraction(-1, 4))):
        assert read_rational(text) == value
    assert read_rational("9" * 5000 + "/2") == Fraction(10 ** 5000 - 1, 2)
    for bad in ("1_0", "1_0/3", "1/1_0", "1.5_0", "1e1_0", "\u0663", "1/\u0663",
                "\uff11.5", "", "1/", "/2", "1 /2", "0x10", "nan", "inf", "1/2/3"):
        with pytest.raises(ValueError):
            read_rational(bad)


def test_parse_field_spec_identity_default():
    spec = parse_field_spec("vars=a,b")
    assert spec.is_identity_twist()
    assert format_field_spec(spec) == "vars=a,b"
    # empty fragments are skipped
    assert parse_field_spec("vars=x;;") == parse_field_spec(" ; vars=x") == \
        identity_spec(("x",))


def test_field_spec_builds_what_parse_field_spec_reads():
    assert field_spec(" x , y ", "[[2, 1], [1, 2]]") == TWIST
    assert field_spec("x,,y") == identity_spec(("x", "y"))
    for names, twist, message in (
            (",", None, "field spec needs vars=..."),
            ("x", "[[1]]; vars=y", "bad twist matrix"),
            ("x;twist=[[2]]", None, "bad variable name 'x;twist=\\[\\[2\\]\\]'")):
        with pytest.raises(UsageError, match=message):
            field_spec(names, twist)


def test_every_field_variable_can_be_spelled_in_an_expression():
    names = ("x", "_", "_deg_", "a1", "x_2", "exp", "\u03b1", "\u03b1\u0662")
    spec = identity_spec(names)
    assert [parse(name) for name in spec.variables] == [Variable(n) for n in names]
    for bad in ("y=1", "x;twist=[[2]]", "1x", "\u0662x", "x y", " x", "", "x+y",
                "\u00b2", "x.y", 1, None):
        with pytest.raises(UsageError, match="bad variable name"):
            identity_spec(("x", bad))


def test_singular_twist_rejected():
    with pytest.raises(SingularTwist):
        FieldSpec(("x", "y"), ((1, 1), (1, 1)))
    # and the other malformed fields, built or parsed
    for build in (lambda: FieldSpec((), ()),
                  lambda: FieldSpec(("x", "x"), ((1, 0), (0, 1))),
                  lambda: FieldSpec(("x", "y"), ((1, 0),)),
                  lambda: FieldSpec(("x", "y"), ((1, 0), (0,))),
                  lambda: parse_field_spec("vars=x,y; lex"),
                  lambda: parse_field_spec("vars=x,y; order=lex"),
                  lambda: parse_field_spec("twist=[[1]]"),
                  # each key at most once
                  lambda: parse_field_spec("vars=x; vars=y"),
                  lambda: parse_field_spec("twist=[[1]]; vars=x; twist=[[1]]")):
        with pytest.raises(UsageError):
            build()


@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_twist_entries_must_be_integers(entry):
    # 1.5 used to fail later, as a box bound; True used to act as 1
    with pytest.raises(UsageError, match="twist entries must be integers"):
        FieldSpec(("x",), ((entry,),))


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        identity_spec(("x",)).index("zz")


def test_a_bare_string_is_not_a_list_of_names():
    # "xy" would be read letter by letter, as the names x and y
    for build in (lambda: identity_spec("xy"), lambda: FieldSpec("xy", ((1, 0), (0, 1)))):
        with pytest.raises(UsageError, match="got the string 'xy'"):
            build()
    # any other sequence of names is stored as a tuple
    assert FieldSpec(["x", "y"], ((1, 0), (0, 1))) == identity_spec(("x", "y"))
    assert identity_spec(iter(["x", "y"])) == identity_spec(("x", "y"))


def test_int_det_of_the_empty_matrix_and_of_non_integers():
    assert int_det(()) == 1
    for bad in ([[1.5]], [[2, 0], [0, 2.0]], [[True, 0], [0, 1]], [["1"]]):
        with pytest.raises(UsageError, match="determinant entries must be integers"):
            int_det(bad)


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


def test_read_rational_bounds_the_decimal_exponent():
    # Fraction builds 10**exponent: "1e999999999" would run out of memory,
    # "1e1000000" takes a tenth of a second
    bound = MAX_DECIMAL_EXPONENT
    assert read_rational(f"1e{bound}") == 10 ** bound
    assert read_rational(f"2.5E-{bound}") == Fraction(5, 2 * 10 ** bound)
    assert read_rational(f"1e-000{bound}") == Fraction(1, 10 ** bound)
    for bad in (f"1e{bound + 1}", f"1e-{bound + 1}", "1e1000000", "1e" + "9" * 100000):
        with pytest.raises(ValueError):
            read_rational(bad)
    # every p and p/q that rational_text writes still reads back, at any length
    for value in (Fraction(-3, 7), 10 ** 20000, Fraction(1, 10 ** 20001), 0):
        assert read_rational(rational_text(value)) == value


def test_read_rational_refuses_inexact_numbers():
    assert read_rational(7) == 7
    for bad in (0.1, 2.0, True, False, None):
        with pytest.raises(ValueError):
            read_rational(bad)
