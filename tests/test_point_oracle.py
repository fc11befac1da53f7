"""Roby-module and characteristic-morphism checks against evaluation at
random rational points.

``verify_roby`` decides the power identity and ``verify_char_morphism``
decides Cayley-Hamilton, the unit law and multiplicativity symbolically,
through the term-map kernel and ``PolyMatrix`` products.  Here every
variable gets a seeded random rational and the same identities are checked
on plain nested lists of exact numbers, with a matrix product written out
below.  A polynomial identity that holds vanishes at every point; one that
fails is nonzero at a random point except on a set of small measure
(Schwartz-Zippel), so three points agree with the symbolic verdict for any
practical purpose.
"""

import random
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import pytest

from robyclif.freealg import FreeAlgebra, char_poly
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import run_pipeline
from robyclif.poly import HomForm, parse_poly
from robyclif.roby import (
    CharMorphism,
    GradedRobyModule,
    monomial_roby,
    twisted_tensor,
    verify_char_morphism,
    verify_roby,
)
from robyclif.scalars import make_root
from robyclif.specfile import parse_pipeline

from test_pipeline import multi_branch_spec

DEMO = Path(__file__).resolve().parent.parent / "demo"
POINTS = 3


def random_rational(rng):
    return Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))


def evaluate(p, point):
    """A Poly's value at point (a dict from variable name to number)."""
    total = 0
    for exp, c in p.terms.items():
        term = c
        for v, e in zip(p.vars, exp):
            term = term * point[v] ** e
        total = total + term
    return total


def at_point(m, point):
    return [[evaluate(e, point) for e in row] for row in m.rows()]


def mat_mul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        # zero factors add nothing, so each row sums over its nonzero pairs only
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_comb(coeffs, mats, n):
    out = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            # zero entries add nothing, so only the nonzero ones are scaled
            for out_row, row in zip(out, m):
                for j, x in enumerate(row):
                    if x:
                        out_row[j] = out_row[j] + c * x
    return out


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def verdicts_at(cm, point):
    """(cayley_hamilton, unit, first failing ordered pair or None) at one point."""
    algebra, chi, n = cm.source, cm.charpoly, cm.dim
    mats = [at_point(m, point) for m in cm.matrices]
    # chi(sum a_i C_i, a) with Gamma_i -> a_i, as a sum over the powers of t
    generic = mat_comb([point[g] for g in chi.dual_names], mats, n)
    coeffs = {}
    for exp, c in chi.poly.terms.items():
        k, value = 0, c
        for v, e in zip(chi.poly.vars, exp):
            if v == chi.tvar:
                k = e
            else:
                value = value * point[v] ** e
        coeffs[k] = coeffs.get(k, 0) + value
    total, power = [[0] * n for _ in range(n)], eye(n)
    for k in range(chi.rank + 1):
        total = mat_comb([1, coeffs.get(k, 0)], [total, power], n)
        power = mat_mul(power, generic)
    ch_ok = total == [[0] * n for _ in range(n)]
    unit_ok = mat_comb([evaluate(c, point) for c in algebra.unit], mats, n) == eye(n)
    for i in range(algebra.rank):
        for j in range(algebra.rank):
            image = mat_comb([evaluate(c, point) for c in algebra.table[i][j]], mats, n)
            if mat_mul(mats[i], mats[j]) != image:
                return ch_ok, unit_ok, (i, j)
    return ch_ok, unit_ok, None


def point_verdicts(cm, rng):
    """The verdicts at POINTS random points: an identity holds if it holds at each.

    The first failing pair is the least over the points, since the pairs
    before the symbolic one vanish everywhere.
    """
    names = set(cm.charpoly.poly.vars) - {cm.charpoly.tvar} | set(cm.charpoly.dual_names)
    names.update(*(m.vars for m in cm.matrices))
    names.update(*(c.vars for row in cm.source.table for coords in row for c in coords))
    names.update(*(c.vars for c in cm.source.unit))
    found = []
    for _ in range(POINTS):
        point = {v: random_rational(rng) for v in sorted(names)}
        found.append(verdicts_at(cm, point))
    pairs = [pair for _, _, pair in found if pair is not None]
    return (
        all(ch for ch, _, _ in found),
        all(unit for _, unit, _ in found),
        min(pairs) if pairs else None,
    )


def symbolic_verdicts(cm):
    report = verify_char_morphism(cm)
    _, pair = cm.source.action_laws(cm.matrices)
    multiplicativity = report.get("multiplicativity")
    assert multiplicativity.ok == (pair is None)
    return report.get("cayley_hamilton").ok, report.get("unit").ok, pair


def noncommuting_counterexample():
    # B = k[z,w]/(z^2, zw, w^2) with C(z) = E23, C(w) = E12: C(w) C(z) = E13
    # is not the image of wz = 0
    zero = [0, 0, 0]
    b = FreeAlgebra(
        ["1", "z", "w"],
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], zero, zero], [[0, 0, 1], zero, zero]],
    )
    cz = PolyMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    cw = PolyMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    return CharMorphism(b, [PolyMatrix.identity(3), cz, cw], char_poly(b))


def tampered(cm):
    # one off-diagonal entry of the last matrix moved: Cayley-Hamilton fails
    n = cm.dim
    bump = PolyMatrix.from_rows([[int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)])
    return CharMorphism(cm.source, cm.matrices[:-1] + [cm.matrices[-1] + bump], cm.charpoly)


def pipeline_morphism(spec):
    return lambda: run_pipeline(spec()).morphism


def demo_spec(name):
    return parse_pipeline((DEMO / name).read_text(encoding="utf-8"))


# name -> (morphism factory, expected (cayley_hamilton, unit, failing pair))
CASES = {
    "multi_branch_spec(1)": (pipeline_morphism(lambda: multi_branch_spec(1)), (True, True, None)),
    "multi_branch_spec(2)": (pipeline_morphism(lambda: multi_branch_spec(2)), (True, True, None)),
    "multi_branch_spec(3)": (pipeline_morphism(lambda: multi_branch_spec(3)), (True, True, None)),
    "perturbed_split.pipeline": (
        pipeline_morphism(lambda: demo_spec("perturbed_split.pipeline")),
        (True, False, (0, 0)),
    ),
    "non-commuting counterexample": (noncommuting_counterexample, (True, True, (2, 1))),
    "tampered multi_branch_spec(1)": (
        lambda: tampered(pipeline_morphism(lambda: multi_branch_spec(1))()),
        (False, True, (1, 1)),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_point_evaluation_agrees_with_verify_char_morphism(name):
    build, expected = CASES[name]
    cm = build()
    want = symbolic_verdicts(cm)
    assert point_verdicts(cm, random.Random(sum(map(ord, name)))) == want
    assert want == expected


# -- the Roby power identity ---------------------------------------------------


def roby_point_verdict(module, rng):
    """Whether (sum s_i A_i + r T)^degree = target * I at POINTS random points.

    The base variables, each s_i and r get random rationals; the target is
    evaluated with its i-th dual variable at s_i and its t-variable at r.
    As in ``verify_roby``, those names are bound in the target only: where
    one also occurs in a matrix, it takes a point value there like any
    other variable.
    """
    mats = list(module.actions)
    bound = list(module.target_vars)
    if module.tslot is not None:
        mats.append(module.tslot)
        bound.append(module.tvar)
    base = (set(module.target_poly.vars) - set(bound)).union(*(m.vars for m in mats))
    n = module.dim
    for _ in range(POINTS):
        point = {v: random_rational(rng) for v in sorted(base)}
        coeffs = [random_rational(rng) for _ in bound]
        generic = mat_comb(coeffs, [at_point(m, point) for m in mats], n)
        power = generic
        for _ in range(module.degree - 1):
            power = mat_mul(power, generic)
        value = evaluate(module.target_poly, {**point, **dict(zip(bound, coeffs))})
        if power != mat_comb([value], [eye(n)], n):
            return False
    return True


PIPELINE_SPECS = {
    **{f"multi_branch_spec({n})": partial(multi_branch_spec, n) for n in (1, 2, 3, 4)},
    "quadric.pipeline": partial(demo_spec, "quadric.pipeline"),
    "perturbed_split.pipeline": partial(demo_spec, "perturbed_split.pipeline"),
}


@cache
def pipeline_result(name):
    return run_pipeline(PIPELINE_SPECS[name]())


def diagonal_form(e, xi, **kw):
    # y1^e + y2^e as the twisted tensor of two one-variable monomial modules
    m1, m2 = (monomial_roby(HomForm(parse_poly(f"{v}^{e}"), e, (v,))) for v in ("y1", "y2"))
    return twisted_tensor(m1, m2, xi, **kw)


def tampered_module(module):
    # one entry of the last basis action moved: the power identity fails
    n = module.dim
    bump = PolyMatrix.from_rows([[int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)])
    return GradedRobyModule(
        module.degree,
        module.grading,
        module.action_names,
        module.actions[:-1] + [module.actions[-1] + bump],
        module.target_poly,
        target_vars=module.target_vars,
        tslot=module.tslot,
        tvar=module.tvar,
    )


# name -> (module factory, whether the power identity holds)
ROBY_CASES = {
    **{
        f"{name} {part}": (lambda name=name, part=part: getattr(pipeline_result(name), part), True)
        for name in PIPELINE_SPECS
        for part in ("seed", "assembly")
    },
    "y1^3 + y2^3 twisted by zeta_3": (lambda: diagonal_form(3, make_root(3)), True),
    "y1^4 + y2^4 twisted by zeta_4": (lambda: diagonal_form(4, make_root(4)), True),
    "y1^3 + y2^3 untwisted (xi = 1)": (
        lambda: diagonal_form(3, 1, require_primitive=False),
        False,
    ),
    "tampered multi_branch_spec(1) assembly": (
        lambda: tampered_module(pipeline_result("multi_branch_spec(1)").assembly),
        False,
    ),
}


@pytest.mark.parametrize("name", list(ROBY_CASES))
def test_point_evaluation_agrees_with_verify_roby(name):
    build, expected = ROBY_CASES[name]
    module = build()
    want = verify_roby(module).get("power_identity").ok
    assert roby_point_verdict(module, random.Random(sum(map(ord, name)))) == want
    assert want == expected
