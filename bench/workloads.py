"""The benchmark's four workloads, built from the paper's acceptance criteria.

``build(name, seed)`` returns the instances of one pass.  ``cov_lemma`` and
``lagrange`` draw their coefficients from ``seed`` here, as plain data, over
exponent shapes fixed by the acceptance suite's own seeds, so that every seed
costs the same work; the engine only sees the inputs when an instance runs.
``ct3`` and ``dyson`` are fixed by the paper and ignore the seed.

Every instance checks its answer against a reference that does not come from
the engine path it exercises, and raises ``Mismatch`` when they differ:

* ``ct3``: CT_{x,y} = 3/(1-2t), so the t^k coefficient is 3·2^k;
* ``dyson``: the multinomial (a_1+...+a_n)!/(a_1!...a_n!), and for Dixon's
  form also the alternating binomial sum;
* ``cov_lemma``: the lemma identities, with the Jacobian number computed here
  from the initial exponents the generator chose;
* ``lagrange``: the fixed-point compositional inverse, which the engine keeps
  independent of the residue formula on purpose.

The engine is called through module attributes looked up at call time
(``series.multiply``, not a name imported from it), so the tracer's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, prod

from mnseries import cli, identities, ordering, parser, residues, series

Instance = namedtuple("Instance", "label check")


class Mismatch(Exception):
    """An instance's answer differs from its reference."""


def expect(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got}, expected {want}")


# ----------------------------------------------------------------------
# independent references

def multinomial(a):
    return factorial(sum(a)) // prod(factorial(ai) for ai in a)


def dixon_reference(a, b, c):
    """Dixon's alternating sum, written out here from its definition."""
    return sum(
        (-1) ** j * comb(a + b, a + j) * comb(b + c, b + j) * comb(c + a, c + j)
        for j in range(-min(a, b, c), min(a, b, c) + 1)
    )


def small_det(rows):
    """Determinant by Laplace expansion; the rows here are at most 3x3."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * small_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


# ----------------------------------------------------------------------
# ct3: the paper's three-variable constant term, through the CLI

CT3_EXPR = ("x^3*exp(t/(x*y))*(2*t-3*x*y)"
            "/((x^3*y*exp(t/(x*y))-t*x-t*y)*(x-y)*(x^3*exp(t/(x*y))-1))")
# The box [-24,24]^2 x [-1,5]: the smallest box on which a traced run showed
# series.invert as nearly all of the pass (1.74 of 1.80 s), fixed before any
# box was checked.  Criterion 7's own box costs 14-16 s a pass, too few
# repetitions for a run.  The truncated inversion is not yet sound on every
# box (ROADMAP, "make the precision box sound"): at [-16,16]^2 x [-1,4],
# [-18,18]^2 x [-1,4] and [-20,20]^2 x [-1,5] the top t-coefficient comes out
# 0.  This box gives 3*2^k for every k, so a failure here after a change to
# inversion or truncation is that defect moving, not noise.
CT3_RADIUS = 24
CT3_DEPTH = 5


def _ct3_check():
    argv = ["ct", "--vars", "x,y,t",
            f"--box=-{CT3_RADIUS}:{CT3_RADIUS},-{CT3_RADIUS}:{CT3_RADIUS},-1:{CT3_DEPTH}",
            "--over", "x,y", "--format", "json", "--expr", CT3_EXPR]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    expect("exit status", status, 0)
    result = json.loads(out.getvalue())
    expect("t-box", result["box"], [[0, CT3_DEPTH]])
    got = {item["exp"][0]: Fraction(item["coeff"]) for item in result["terms"]}
    want = {k: 3 * 2 ** k for k in range(CT3_DEPTH + 1)}
    expect("CT_{x,y} coefficients", got, want)


def ct3(seed):
    return [Instance("ct3", _ct3_check)]


# ----------------------------------------------------------------------
# dyson: exact Laurent-polynomial products, no truncation anywhere

def _dyson_check(a, generalized):
    instance = identities.DysonInstance(len(a), a, generalized=generalized)
    expect(f"CT Dyson{a}", identities.dyson_ct(instance), multinomial(a))


def _dixon_check(a, b, c):
    want = multinomial((a, b, c))
    expect(f"dixon_reference{(a, b, c)}", dixon_reference(a, b, c), want)
    expect(f"dixon_sum{(a, b, c)}", identities.dixon_sum(a, b, c), want)
    expect(f"CT Dixon{(a, b, c)}",
           identities.dyson_ct(identities.DysonInstance(3, (a, b, c))), want)


def _exponents(n, high, total):
    return [a for a in itertools.product(range(high + 1), repeat=n) if sum(a) <= total]


def dyson(seed):
    out = []
    for n, high, total in ((3, 4, 8), (4, 3, 6), (5, 2, 4)):
        for a in _exponents(n, high, total):
            out.append(Instance(f"dyson{a}", lambda a=a: _dyson_check(a, False)))
    for a in _exponents(3, 4, 6):
        out.append(Instance(f"gdyson{a}", lambda a=a: _dyson_check(a, True)))
    for a, b, c in itertools.product(range(1, 6), repeat=3):
        out.append(Instance(f"dixon{(a, b, c)}", lambda a=a, b=b, c=c: _dixon_check(a, b, c)))
    return out


# ----------------------------------------------------------------------
# cov_lemma: the lemma suite on random changes of variables, plus Wilson

LEMMA_RADIUS = 12
NONZERO = (-3, -2, -1, 1, 2, 3)


def _lemma_data(shape, values):
    """One change of variables x_i -> F_i, drawn as criterion 9 draws it.

    ``shape`` fixes which exponents appear, the powers e and the slot
    monomial; ``values`` then replaces every nonzero coefficient.  The lemma
    identities hold for any nonzero coefficients, and the work an instance
    costs depends on its exponents, so runs on different seeds check
    different numbers but do the same amount of work.

    Unlike criterion 9, n is at most 2.  A three-variable instance can cost
    a hundred times the median one, and so few repetitions of those fit in a
    run that their fastest times wander; Wilson's v_j keep three and four
    variables in the workload.
    """
    n = shape.randint(1, 2)
    while True:
        rows = [tuple(shape.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if small_det(rows) != 0:
            break
    F = []
    for row in rows:
        terms = {row: shape.randint(1, 3)}
        for _ in range(shape.randint(0, 2)):
            bump = tuple(shape.randint(0, 2) for _ in range(n))
            if any(bump):
                terms.setdefault(tuple(r + b for r, b in zip(row, bump)), shape.randint(-3, 3))
        F.append({k: values.choice(NONZERO) for k, v in terms.items() if v})
    while True:
        e = tuple(shape.randint(-2, 1) for _ in range(n))
        if any(ei != -1 for ei in e):
            break
    phi = tuple(shape.randint(-1, 1) for _ in range(n))
    return n, F, small_det(rows), e, phi


def _lemma_check(n, F_terms, jnum, e, phi):
    names = [f"x{i}" for i in range(1, n + 1)]
    spec = ordering.identity_spec(names)
    box = ordering.cube(n, LEMMA_RADIUS)
    F = [series.Series(spec, terms, box=box) for terms in F_terms]
    low, zero = (-1,) * n, (0,) * n

    expect("jacobian_number", residues.jacobian_number(F, names), jnum)
    expect("Res J", residues.jacobian(F, names).coefficient(low), 0)

    powered = residues.jacobian(F, names)
    for s, ei in zip(F, e):
        powered = series.multiply(powered, s ** ei)
    expect(f"Res J*F^{e}", powered.coefficient(low), 0)

    inverse = residues.jacobian(F, names)
    for s in F:
        inverse = series.multiply(inverse, s.invert())
    expect("Res J/prod F", inverse.coefficient(low), jnum)

    expect("CT LJ", residues.log_jacobian(F, names).coefficient(zero), jnum)

    phi_text = "*".join(f"{v}^{k}" for v, k in zip(names, phi))
    res_text = phi_text + "*" + "*".join(f"{v}^-1" for v in names)
    v_res = residues.residue_verify(parser.parse(res_text), F, names, form="res")
    v_ct = residues.residue_verify(parser.parse(phi_text), F, names, form="ct")
    expect("residue identity (Res form)", v_res.equal, True)
    expect("residue identity (CT form)", v_ct.equal, True)
    expect("Res form = CT form", v_res.lhs, v_ct.lhs)


def _wilson_sum_check(n, radius, inner):
    spec = identities.zspec(n)
    box = ordering.cube(n, radius)
    vs = [identities.wilson_v(n, j, spec, box) for j in range(1, n + 1)]
    total = vs[0]
    for v in vs[1:]:
        total = total + v
    expect(f"sum v_j = 1 (n={n})", total.equals_on(1, box=ordering.cube(n, inner)), True)


def _wilson_lj_check():
    # LJ(v_1, v_2) = 2! v_3 for n = 3
    spec = identities.zspec(3)
    box = ordering.cube(3, 12)
    vs = [identities.wilson_v(3, j, spec, box) for j in (1, 2, 3)]
    lj = residues.log_jacobian(vs[:2], ["z1", "z2"])
    expect("LJ(v1,v2) = 2 v3", lj.equals_on(vs[2].scale(2), box=ordering.cube(3, 9)), True)


LEMMA_INSTANCES = 100
LEMMA_SHAPE_SEED = 777          # the seed of acceptance criterion 9


def cov_lemma(seed):
    shape, values = random.Random(LEMMA_SHAPE_SEED), random.Random(seed)
    out = []
    for index in range(LEMMA_INSTANCES):
        data = _lemma_data(shape, values)
        out.append(Instance(f"lemma{index}", lambda data=data: _lemma_check(*data)))
    # the interior boxes are the ones the acceptance suite checks on
    out.append(Instance("wilson_sum3", lambda: _wilson_sum_check(3, 12, 9)))
    out.append(Instance("wilson_sum4", lambda: _wilson_sum_check(4, 10, 5)))
    out.append(Instance("wilson_lj3", _wilson_lj_check))
    return out


# ----------------------------------------------------------------------
# lagrange: residue-formula coefficients against the fixed-point inverse

LAGRANGE_DEGREE = 6
LAGRANGE_INSTANCES = 100
LAGRANGE_NAMES = ("x1", "x2")
LAGRANGE_SHAPE_SEED = 31415     # the seed of acceptance criterion 10


def _lagrange_data(shape, values):
    """F_i = x_i + terms of total degree 2..3, and three coefficients to find.

    As in ``_lemma_data``, ``shape`` fixes the exponents and targets and
    ``values`` draws the nonzero coefficients of the higher terms.
    """
    n = len(LAGRANGE_NAMES)
    F = []
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        terms = {}
        for _ in range(shape.randint(1, 3)):
            exponent = tuple(shape.randint(0, 3) for _ in range(n))
            if 2 <= sum(exponent) <= 3:
                terms.setdefault(exponent, shape.randint(-2, 2))
        F.append({unit: 1} | {k: values.choice(NONZERO) for k, v in terms.items() if v})
    targets = []
    while len(targets) < 3:
        k = (shape.randint(0, 5), shape.randint(0, 5))
        if 1 <= sum(k) <= LAGRANGE_DEGREE:
            targets.append((shape.randrange(n), k))
    return F, targets


def _lagrange_check(F_terms, targets):
    spec = ordering.identity_spec(LAGRANGE_NAMES)
    F = [series.Series(spec, terms) for terms in F_terms]
    G = residues.lagrange_inverse(F, LAGRANGE_DEGREE)
    for i, k in targets:
        got = residues.lagrange_coefficient(parser.parse(LAGRANGE_NAMES[i]), F, k)
        expect(f"[y^{k}] G_{i + 1}", got, G[i].terms.get(k + (0,), 0))


def lagrange(seed):
    shape, values = random.Random(LAGRANGE_SHAPE_SEED), random.Random(seed)
    out = []
    for index in range(LAGRANGE_INSTANCES):
        data = _lagrange_data(shape, values)
        out.append(Instance(f"lagrange{index}", lambda data=data: _lagrange_check(*data)))
    return out


WORKLOADS = {"ct3": ct3, "dyson": dyson, "cov_lemma": cov_lemma, "lagrange": lagrange}


def build(name, seed):
    return WORKLOADS[name](seed)
