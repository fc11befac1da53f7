"""Every entry point that takes polynomials coerces them through ``as_poly``.

Each site is fed the same polynomial as a Poly, as a string and, when the
polynomial is constant, as an int and a Fraction; all kinds must give equal
outcomes.  A constant that a site rejects on meaning (a defining polynomial
must involve its variable) is still coerced, so every kind fails with the
same message.  Values that are no polynomial at all fail in the coercion.
"""

from fractions import Fraction

import pytest

from robyclif.errors import InputError
from robyclif.freealg import char_poly, monogenic_algebra
from robyclif.linegeom import restrict_to_line
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import PipelineSpec
from robyclif.poly import HomForm, Poly, as_poly, parse_poly
from robyclif.roby import CharMorphism, monomial_roby
from robyclif.scalars import make_root
from robyclif.seeds import companion_matrix, mf_seed, perturbed_split_algebra


def module_matrices(module):
    return list(module.actions) + [module.tslot]


def perturbed_morphism():
    algebra = perturbed_split_algebra("z2*x")
    ident = PolyMatrix.identity(2)
    return CharMorphism(algebra, [ident, ident], char_poly(algebra))


QUADRIC = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")
SEED = mf_seed("x", "y")

# site -> (call taking one polynomial-like value, sample polynomials)
SITES = {
    "PolyMatrix.from_rows": (lambda v: PolyMatrix.from_rows([[v, "x"], [1, v]]), ["-2", "x - 3/2*y"]),
    "PolyMatrix.diagonal": (lambda v: PolyMatrix.diagonal([v, "y"]), ["-2", "x*y"]),
    "monogenic_algebra": (lambda v: monogenic_algebra(v, "z"), ["-2", "z^2 - x*y"]),
    "companion_matrix": (lambda v: companion_matrix(v, "z"), ["-2", "z^3 - x"]),
    "mf_seed": (lambda v: module_matrices(mf_seed(v, "y")), ["-2", "x + y"]),
    "monomial_roby": (
        lambda v: module_matrices(
            monomial_roby(HomForm(parse_poly("-2*x*y"), 2, ("x", "y")), [(v, "x"), (1, "y")])
        ),
        ["-2"],
    ),
    "restrict_to_line": (lambda v: restrict_to_line(perturbed_morphism(), {"z2": v}), ["0", "x + y"]),
    "PipelineSpec.line": (lambda v: PipelineSpec(QUADRIC, {"z2": v}, SEED).line, ["0"]),
    "Poly.substitute": (lambda v: parse_poly("x^2*y + w").substitute({"x": v}), ["-2", "y - 1/2"]),
}


def kinds(text):
    p = parse_poly(text)
    out = {"Poly": p, "str": text}
    if p.is_constant():
        c = p.constant_value()
        out["Fraction"] = Fraction(c)
        out["int"] = int(c)
    return out


def outcome(call, value):
    try:
        return call(value)
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("site", SITES)
def test_every_kind_gives_the_same_result(site):
    call, samples = SITES[site]
    for text in samples:
        values = kinds(text)
        want = outcome(call, values["Poly"])
        for kind, value in values.items():
            assert outcome(call, value) == want, f"{site}: {kind} {text!r}"


@pytest.mark.parametrize("bad", [1.5, None, []], ids=["float", "None", "list"])
@pytest.mark.parametrize("site", SITES)
def test_non_polynomials_are_input_errors(site, bad):
    call, _ = SITES[site]
    with pytest.raises(InputError, match="cannot interpret"):
        call(bad)


def test_as_poly_kinds():
    x = Poly.variable("x")
    assert as_poly(x) is x
    assert as_poly("x") == x
    assert as_poly(3) == as_poly(Fraction(3)) == Poly.const(3)
    assert as_poly(0) == Poly.zero()
    assert as_poly(make_root(4)) == Poly.const(make_root(4))
